package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sampleReport builds a healthy in-memory benchcore report with one metric
// of every class.
func sampleReport() *BenchCoreReport {
	rep := &BenchCoreReport{}
	p := &rep.Provenance
	p.Graph.Generator = "preferential-attachment"
	p.Graph.N = 20000
	p.Graph.EdgesPerVertex = 5
	p.Graph.Edges = 100000
	p.Graph.NumSeeds = 10
	p.Theta, p.Budget, p.GoMaxProcs, p.NumCPU, p.GoVersion = 1000, 10, 4, 4, "go1.24.0"
	rep.Metrics = []BenchMetric{
		{Name: "incremental.ns_per_round", Value: 4e5, Unit: "ns", Class: ClassTiming},
		{Name: "speedup_incremental_vs_fresh", Value: 22.5, Unit: "x", Class: ClassRatio},
		{Name: "instrumentation.overhead_pct", Value: 0.4, Unit: "%", Class: ClassBar, Limit: 2},
		{Name: "blockers_identical_across_workers", Value: 1, Unit: "bool", Class: ClassBool},
		{Name: "pool_bytes", Value: 248832, Unit: "bytes", Class: ClassInfo},
	}
	return rep
}

func clone(t *testing.T, rep *BenchCoreReport) *BenchCoreReport {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out BenchCoreReport
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// setMetric sets the value of the named metric of rep.
func setMetric(t *testing.T, rep *BenchCoreReport, name string, v float64) {
	t.Helper()
	i := slices.IndexFunc(rep.Metrics, func(m BenchMetric) bool { return m.Name == name })
	if i < 0 {
		t.Fatalf("no metric %s", name)
	}
	rep.Metrics[i].Value = v
}

func gatedNames(res *BenchDiffResult) []string {
	var names []string
	for _, m := range res.Metrics {
		if m.Gated {
			names = append(names, m.Name)
		}
	}
	return names
}

// TestBenchDiffIdenticalPasses: a report diffed against itself passes and
// gates every metric that is not info. The committed BENCH_core.json has
// no instrumentation metrics (it was measured before that section
// existed), so against itself it gates these eight names; a fresh report
// adds the two instrumentation gates (TestRunBenchCore).
func TestBenchDiffIdenticalPasses(t *testing.T) {
	base := sampleReport()
	res, err := RunBenchDiff(base, clone(t, base), nil)
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if !res.HardwareMatch {
		t.Fatal("identical provenance reported as hardware mismatch")
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("identical reports regressed: %v", res.Regressions)
	}
	if got := gatedNames(res); len(got) != len(base.Metrics)-1 {
		t.Fatalf("gated %v, want every metric but the info one", got)
	}

	committed, err := LoadBenchCoreReport(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = RunBenchDiff(committed, committed, nil); err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("BENCH_core.json regressed against itself: %v", res.Regressions)
	}
	want := []string{
		"pool_build_ms",
		"fresh.ns_per_round",
		"incremental.ns_per_round",
		"blockers_identical_across_workers",
		"speedup_incremental_vs_fresh",
		"speedup_incremental_4w_vs_1w",
		"mutate_repair[99_edges].repair_bit_identical",
		"mutate_repair[998_edges].repair_bit_identical",
	}
	if got := gatedNames(res); !slices.Equal(got, want) {
		t.Fatalf("BENCH_core.json gates %v, want %v", got, want)
	}
}

// TestBenchDiffCatchesTimingRegression: on matching hardware a +15% timing
// fails the gate, and the one regression names the metric.
func TestBenchDiffCatchesTimingRegression(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	setMetric(t, cand, "incremental.ns_per_round", 4e5*1.15)
	res, err := RunBenchDiff(base, cand, nil)
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "incremental.ns_per_round") {
		t.Fatalf("regressions = %v, want one incremental.ns_per_round entry", res.Regressions)
	}
}

// TestBenchDiffDeterminismContracts: a determinism contract that reads false
// fails the gate, and the instrumentation overhead bar sits at its 2% limit
// plus a quarter-point noise allowance: 2.2% passes, 2.3% fails.
func TestBenchDiffDeterminismContracts(t *testing.T) {
	base := sampleReport()
	base.Metrics = append(base.Metrics, BenchMetric{
		Name: "mutate_repair[998_edges].repair_bit_identical", Value: 1, Unit: "bool", Class: ClassBool,
	})

	for _, name := range []string{"blockers_identical_across_workers", "mutate_repair[998_edges].repair_bit_identical"} {
		cand := clone(t, base)
		setMetric(t, cand, name, 0)
		res, err := RunBenchDiff(base, cand, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], name) {
			t.Fatalf("regressions = %v, want one %s entry", res.Regressions, name)
		}
	}

	cand := clone(t, base)
	setMetric(t, cand, "instrumentation.overhead_pct", 2.2)
	res, err := RunBenchDiff(base, cand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("overhead inside the noise allowance regressed: %v", res.Regressions)
	}
	setMetric(t, cand, "instrumentation.overhead_pct", 2.3)
	if res, err = RunBenchDiff(base, cand, nil); err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "instrumentation.overhead_pct") {
		t.Fatalf("regressions = %v", res.Regressions)
	}
}

// TestBenchDiffGatesByClass runs every class through pass, regress and
// missing, once on a name from today's report and once on a name no report
// has carried: the class alone decides the verdict.
func TestBenchDiffGatesByClass(t *testing.T) {
	known := map[string]BenchMetric{}
	for _, m := range sampleReport().Metrics {
		known[m.Class] = m
	}
	const unknownClass = "timng"
	known[unknownClass] = BenchMetric{Name: "fresh.ns_per_round", Value: 1, Class: unknownClass}

	// Baseline values: timing 4e5 ns, ratio 22.5x, bar 0.4 (limit 2), bool
	// 1, info 248832 bytes, unknown class 1.
	cases := []struct {
		class, name string
		cand        float64
		candClass   string // the candidate's record class; "" = the baseline's
		candMissing bool   // the candidate lacks the metric
		baseMissing bool   // the baseline lacks the metric
		want        bool   // a regression naming the metric
	}{
		{class: ClassTiming, name: "pass", cand: 4.36e5},
		{class: ClassTiming, name: "regress", cand: 4.6e5, want: true},
		{class: ClassTiming, name: "zero", cand: 0, want: true},
		{class: ClassTiming, name: "missing", candMissing: true, want: true},
		{class: ClassTiming, name: "reclassified", cand: 6e5, candClass: ClassInfo, want: true},
		{class: ClassTiming, name: "new", cand: 6e5, baseMissing: true},
		{class: ClassRatio, name: "pass", cand: 20.5},
		{class: ClassRatio, name: "regress", cand: 15, want: true},
		{class: ClassRatio, name: "missing", candMissing: true, want: true},
		{class: ClassBar, name: "pass", cand: 2.2},
		{class: ClassBar, name: "regress", cand: 2.3, want: true},
		{class: ClassBar, name: "missing", candMissing: true, want: true},
		{class: ClassBar, name: "new", cand: 2.3, baseMissing: true, want: true},
		{class: ClassBool, name: "pass", cand: 1},
		{class: ClassBool, name: "regress", cand: 0, want: true},
		{class: ClassBool, name: "missing", candMissing: true, want: true},
		{class: ClassBool, name: "new", cand: 0, baseMissing: true, want: true},
		{class: ClassInfo, name: "changed", cand: 1},
		{class: ClassInfo, name: "missing", candMissing: true},
		{class: unknownClass, name: "pass", cand: 1, want: true},
	}
	for _, tc := range cases {
		rec := known[tc.class]
		for _, name := range []string{rec.Name, "never_seen." + tc.class} {
			t.Run(tc.class+"/"+tc.name+"/"+name, func(t *testing.T) {
				b := rec
				b.Name = name
				base := sampleReport()
				base.Metrics = []BenchMetric{b}
				cand := clone(t, base)
				cand.Metrics[0].Value = tc.cand
				if tc.candClass != "" {
					cand.Metrics[0].Class = tc.candClass
				}
				if tc.candMissing {
					cand.Metrics = nil
				}
				if tc.baseMissing {
					base.Metrics = nil
				}
				res, err := RunBenchDiff(base, cand, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !tc.want {
					if len(res.Regressions) != 0 {
						t.Fatalf("regressions = %v, want none", res.Regressions)
					}
					return
				}
				if len(res.Regressions) != 1 || !strings.HasPrefix(res.Regressions[0], name+" ") {
					t.Fatalf("regressions = %v, want one naming %s", res.Regressions, name)
				}
				if tc.candMissing && !strings.Contains(res.Regressions[0], "missing") {
					t.Fatalf("regression %q does not say the metric is missing", res.Regressions[0])
				}
			})
		}
	}
}

// TestBenchDiffHardwareMismatchUngatesTimings: on foreign hardware the same
// +15% timing delta must NOT fail the gate, but a collapsed speedup ratio
// and a missing timing still must.
func TestBenchDiffHardwareMismatchUngatesTimings(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	cand.Provenance.NumCPU = 8
	cand.Provenance.GoMaxProcs = 8
	setMetric(t, cand, "incremental.ns_per_round", 4.6e5)
	res, err := RunBenchDiff(base, cand, nil)
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if res.HardwareMatch {
		t.Fatal("differing NumCPU reported as hardware match")
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("ungated timing delta failed the gate: %v", res.Regressions)
	}

	setMetric(t, cand, "speedup_incremental_vs_fresh", 22.5*0.7)
	if res, err = RunBenchDiff(base, cand, nil); err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "speedup_incremental_vs_fresh") {
		t.Fatalf("regressions = %v, want the ratio gate to fire despite hardware mismatch", res.Regressions)
	}

	cand.Metrics = slices.DeleteFunc(cand.Metrics, func(m BenchMetric) bool { return m.Class != ClassTiming })
	if res, err = RunBenchDiff(base, cand, nil); err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	for _, r := range res.Regressions {
		if strings.HasPrefix(r, "incremental.ns_per_round") {
			t.Fatalf("the kept timing regressed on foreign hardware: %v", res.Regressions)
		}
	}
	if len(res.Regressions) != 3 {
		t.Fatalf("regressions = %v, want the three missing non-timing metrics", res.Regressions)
	}
}

// TestBenchDiffWorkloadMismatchErrors: reports measured on different
// workloads are incomparable — an error, not a soft pass.
func TestBenchDiffWorkloadMismatchErrors(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	cand.Provenance.Theta = 2000
	if _, err := RunBenchDiff(base, cand, nil); err == nil {
		t.Fatal("theta mismatch did not error")
	}
	cand = clone(t, base)
	cand.Provenance.Graph.N = 10000
	if _, err := RunBenchDiff(base, cand, nil); err == nil {
		t.Fatal("graph mismatch did not error")
	}
}

// TestLoadBenchCoreReportRoundtrip writes a report to disk and loads it; a
// missing file and a report of the older sectioned schema do not load.
func TestLoadBenchCoreReportRoundtrip(t *testing.T) {
	base := sampleReport()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchCoreReport(path)
	if err != nil {
		t.Fatalf("LoadBenchCoreReport: %v", err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if _, err := LoadBenchCoreReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file did not error")
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"theta": 1000, "fresh": {"ns_per_round": 5e5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchCoreReport(old); err == nil {
		t.Fatal("sectioned report loaded as a flat one")
	}
}

// TestAppendBenchHistory appends two entries and checks the JSONL shape.
func TestAppendBenchHistory(t *testing.T) {
	base := sampleReport()
	res, err := RunBenchDiff(base, clone(t, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	for i := 0; i < 2; i++ {
		if err := AppendBenchHistory(path, base, res); err != nil {
			t.Fatalf("AppendBenchHistory: %v", err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e BenchHistoryEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", n, err)
		}
		if e.Time == "" || e.Provenance != base.Provenance || !e.HardwareMatch {
			t.Fatalf("line %d malformed: %+v", n, e)
		}
		if len(e.Metrics) != 4 || e.Metrics["incremental.ns_per_round"] != 4e5 {
			t.Fatalf("line %d: metrics %v, want the four that are not info", n, e.Metrics)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("history has %d lines, want 2", n)
	}
}
