package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func writeBenchReport(t *testing.T, dir string, rep *BenchCoreReport) string {
	t.Helper()
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_core.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchProvenance(workers, gomaxprocs int) BenchProvenance {
	p := sampleReport().Provenance
	p.Workers, p.GoMaxProcs, p.NumCPU = workers, gomaxprocs, gomaxprocs
	return p
}

// TestBenchCoreOverwriteGuard pins the provenance rules for replacing a
// committed baseline: a matching provenance overwrites freely, any
// mismatch needs -force — in particular a run on a machine with FEWER
// cores than the baseline's must never replace it silently, because the
// scaling numbers would quietly degrade.
func TestBenchCoreOverwriteGuard(t *testing.T) {
	dir := t.TempDir()

	// Missing file: always fine.
	if err := checkOverwrite(filepath.Join(dir, "absent.json"), benchProvenance(0, 4), false); err != nil {
		t.Fatalf("missing baseline rejected: %v", err)
	}

	// Same provenance: fine without force.
	rep := sampleReport()
	rep.Provenance = benchProvenance(0, 4)
	path := writeBenchReport(t, dir, rep)
	if err := checkOverwrite(path, benchProvenance(0, 4), false); err != nil {
		t.Fatalf("matching provenance rejected: %v", err)
	}

	// Downgrade: baseline measured at higher GOMAXPROCS than this run.
	rep.Provenance = benchProvenance(0, 8)
	path = writeBenchReport(t, dir, rep)
	err := checkOverwrite(path, benchProvenance(0, 4), false)
	if err == nil {
		t.Fatal("gomaxprocs downgrade accepted without -force")
	}
	if !strings.Contains(err.Error(), "gomaxprocs=8") || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("downgrade error does not name the mismatch: %v", err)
	}
	if err := checkOverwrite(path, benchProvenance(0, 4), true); err != nil {
		t.Fatalf("-force did not override the downgrade guard: %v", err)
	}

	// Upgrade (more cores than the baseline), other requested workers or
	// another Go version: the numbers would not be comparable either.
	for _, cur := range []BenchProvenance{benchProvenance(0, 16), benchProvenance(2, 8)} {
		if err := checkOverwrite(path, cur, false); err == nil {
			t.Fatalf("provenance %v accepted without -force", cur)
		}
	}
	cur := benchProvenance(0, 8)
	cur.GoVersion = "go1.25.0"
	if err := checkOverwrite(path, cur, false); err == nil {
		t.Fatal("Go version change accepted without -force")
	}

	// Unparseable file or the older sectioned schema: only force may
	// replace it.
	for i, content := range []string{"{not json", `{"workers": 0, "gomaxprocs": 4, "fresh": {}}`} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkOverwrite(bad, benchProvenance(0, 4), false); err == nil {
			t.Fatalf("file %d accepted without -force", i)
		}
		if err := checkOverwrite(bad, benchProvenance(0, 4), true); err != nil {
			t.Fatalf("-force did not override the parse guard: %v", err)
		}
	}
}

// benchGated is what the gate checks on a full benchcore report: each
// gated metric's name and class. Every bool must also be true.
var benchGated = map[string]string{
	"fresh.ns_per_round":                            ClassTiming,
	"incremental.ns_per_round":                      ClassTiming,
	"pool_build_ms":                                 ClassTiming,
	"speedup_incremental_vs_fresh":                  ClassRatio,
	"speedup_incremental_4w_vs_1w":                  ClassRatio,
	"instrumentation.overhead_pct":                  ClassBar,
	"instrumentation.blockers_identical":            ClassBool,
	"blockers_identical_across_workers":             ClassBool,
	"mutate_repair[99_edges].repair_bit_identical":  ClassBool,
	"mutate_repair[998_edges].repair_bit_identical": ClassBool,
}

// TestRunBenchCore runs the whole benchmark at a 1ms minimum time and
// checks the report's shape, never a timing: every gated metric present
// under its class, every bool true, the written JSON loading back equal,
// and a diff against the committed BENCH_core.json finding nothing
// missing and comparing all ten gated names.
func TestRunBenchCore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark instance")
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	rep, err := RunBenchCore(Config{Seed: 1}, BenchCoreOptions{MinTime: time.Millisecond, JSONPath: path})
	if err != nil {
		t.Fatalf("RunBenchCore: %v", err)
	}
	got := map[string]string{}
	for _, m := range rep.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Fatalf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m.Class
		if m.Class == ClassBool && m.Value != 1 {
			t.Errorf("%s is false", m.Name)
		}
		if m.Class != ClassInfo && benchGated[m.Name] != m.Class {
			t.Errorf("%s is gated as %s, want %q", m.Name, m.Class, benchGated[m.Name])
		}
	}
	for name, class := range benchGated {
		if got[name] != class {
			t.Errorf("%s: class %q, want %s", name, got[name], class)
		}
	}

	loaded, err := LoadBenchCoreReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, rep) {
		t.Fatal("the written report does not load back equal")
	}

	committed, err := LoadBenchCoreReport(filepath.Join("..", "..", "BENCH_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchDiff(committed, rep, nil)
	if err != nil {
		t.Fatalf("RunBenchDiff against BENCH_core.json: %v", err)
	}
	for _, r := range res.Regressions {
		if strings.Contains(r, "missing") {
			t.Errorf("the fresh report lacks a baseline metric: %s", r)
		}
	}
	gated := 0
	for _, m := range res.Metrics {
		if _, ok := benchGated[m.Name]; ok {
			gated++
		}
	}
	if gated != len(benchGated) {
		t.Fatalf("the diff against BENCH_core.json compared %d of the %d gated names", gated, len(benchGated))
	}
}
