package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleReport builds a healthy in-memory benchcore report.
func sampleReport() *BenchCoreReport {
	rep := &BenchCoreReport{
		Theta: 1000, Budget: 10, Workers: 0,
		GoMaxProcs: 4, NumCPU: 4, GoVersion: "go1.24.0",
		PoolBuildMS: 120,
	}
	rep.Graph.Generator = "preferential-attachment"
	rep.Graph.N = 20000
	rep.Graph.EdgesPerVertex = 5
	rep.Graph.Edges = 100000
	rep.Graph.NumSeeds = 10
	rep.Fresh = BenchCoreMode{NsPerRound: 9e6}
	rep.Incremental = BenchCoreMode{NsPerRound: 4e5}
	rep.SpeedupIncrementalVsFresh = 22.5
	rep.SpeedupIncremental4WVs1W = 2.5
	rep.BlockersIdenticalAcrossWorkers = true
	rep.MutateRepair = []BenchCoreMutatePoint{
		{BatchEdges: 16, RepairBitIdentical: true},
		{BatchEdges: 256, RepairBitIdentical: true},
	}
	rep.Instrumentation = &BenchCoreInstrumentation{
		OverheadPct: 0.4, RoundsObserved: 100, BlockersIdentical: true, Workers: 4,
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

// TestBenchDiffIdenticalPasses: a report diffed against itself must gate
// every class and report zero regressions.
func TestBenchDiffIdenticalPasses(t *testing.T) {
	base := sampleReport()
	res, err := RunBenchDiff(base, clone(t, base), BenchDiffOptions{})
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if !res.HardwareMatch {
		t.Fatal("identical provenance reported as hardware mismatch")
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("identical reports regressed: %v", res.Regressions)
	}
	gated := 0
	for _, m := range res.Metrics {
		if m.Regressed {
			t.Fatalf("metric %s regressed on identical input", m.Name)
		}
		if m.Gated {
			gated++
		}
	}
	if gated < 10 {
		t.Fatalf("only %d gated metrics, want full coverage", gated)
	}
}

// TestBenchDiffCatchesTimingRegression: +15% incremental ns/round must trip
// the 10% timing gate on matching hardware.
func TestBenchDiffCatchesTimingRegression(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	cand.Incremental.NsPerRound *= 1.15
	res, err := RunBenchDiff(base, cand, BenchDiffOptions{})
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "incremental.ns_per_round") {
		t.Fatalf("regressions = %v, want one incremental.ns_per_round entry", res.Regressions)
	}
}

// TestBenchDiffHardwareMismatchUngatesTimings: on foreign hardware the same
// +15% timing delta must NOT fail the gate, but a collapsed speedup ratio
// still must.
func TestBenchDiffHardwareMismatchUngatesTimings(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	cand.NumCPU = 8
	cand.GoMaxProcs = 8
	cand.Incremental.NsPerRound *= 1.15
	res, err := RunBenchDiff(base, cand, BenchDiffOptions{})
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if res.HardwareMatch {
		t.Fatal("differing NumCPU reported as hardware match")
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("ungated timing delta failed the gate: %v", res.Regressions)
	}

	cand.SpeedupIncrementalVsFresh = base.SpeedupIncrementalVsFresh * 0.7
	res, err = RunBenchDiff(base, cand, BenchDiffOptions{})
	if err != nil {
		t.Fatalf("RunBenchDiff: %v", err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "speedup_incremental_vs_fresh") {
		t.Fatalf("regressions = %v, want the ratio gate to fire despite hardware mismatch", res.Regressions)
	}
}

// TestBenchDiffDeterminismContracts: broken bit-identity booleans and a
// blown instrumentation bar must each fail regardless of tolerances.
func TestBenchDiffDeterminismContracts(t *testing.T) {
	base := sampleReport()

	cand := clone(t, base)
	cand.BlockersIdenticalAcrossWorkers = false
	res, err := RunBenchDiff(base, cand, BenchDiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "blockers_identical_across_workers") {
		t.Fatalf("regressions = %v", res.Regressions)
	}

	cand = clone(t, base)
	cand.MutateRepair[1].RepairBitIdentical = false
	if res, err = RunBenchDiff(base, cand, BenchDiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "repair_bit_identical") {
		t.Fatalf("regressions = %v", res.Regressions)
	}

	// The overhead gate sits at the 2% bar plus the timing tolerance
	// (the measurement is a ratio of two noisy timings): 11% passes under
	// the default 10% tolerance, 13% fails.
	cand = clone(t, base)
	cand.Instrumentation.OverheadPct = 11
	if res, err = RunBenchDiff(base, cand, BenchDiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("overhead inside the noise allowance regressed: %v", res.Regressions)
	}
	cand.Instrumentation.OverheadPct = 13
	if res, err = RunBenchDiff(base, cand, BenchDiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 || !strings.Contains(res.Regressions[0], "instrumentation.overhead_pct") {
		t.Fatalf("regressions = %v", res.Regressions)
	}
}

// TestBenchDiffWorkloadMismatchErrors: reports measured on different
// workloads are incomparable — an error, not a soft pass.
func TestBenchDiffWorkloadMismatchErrors(t *testing.T) {
	base := sampleReport()
	cand := clone(t, base)
	cand.Theta = 2000
	if _, err := RunBenchDiff(base, cand, BenchDiffOptions{}); err == nil {
		t.Fatal("theta mismatch did not error")
	}
	cand = clone(t, base)
	cand.Graph.N = 10000
	if _, err := RunBenchDiff(base, cand, BenchDiffOptions{}); err == nil {
		t.Fatal("graph mismatch did not error")
	}
}

// TestLoadBenchCoreReportRoundtrip writes a report to disk and loads it.
func TestLoadBenchCoreReportRoundtrip(t *testing.T) {
	base := sampleReport()
	path := filepath.Join(t.TempDir(), "bench.json")
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
	if got.Theta != base.Theta || got.Incremental.NsPerRound != base.Incremental.NsPerRound {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if _, err := LoadBenchCoreReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestAppendBenchHistory appends two entries and checks the JSONL shape.
func TestAppendBenchHistory(t *testing.T) {
	base := sampleReport()
	res, err := RunBenchDiff(base, clone(t, base), BenchDiffOptions{})
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
		if e.Time == "" || e.GoVersion != "go1.24.0" || !e.HardwareMatch {
			t.Fatalf("line %d malformed: %+v", n, e)
		}
		if e.IncrementalNsPerRound != 4e5 {
			t.Fatalf("line %d: incremental ns %v", n, e.IncrementalNsPerRound)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("history has %d lines, want 2", n)
	}
}
