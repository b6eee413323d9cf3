package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/dynamic"
)

// sequence renders the first n ops of a workload as one byte string.
func sequence(t *testing.T, workload string, seed uint64, n int) []byte {
	t.Helper()
	gen, err := newGenerator(workload, seed, generateGraph(2000, seed))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := gen.warmup()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range warm {
		b.Write(o.body)
	}
	for i := 0; i < n; i++ {
		o, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(o.kind.String())
		b.Write(o.body)
	}
	return b.Bytes()
}

func TestSequenceDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, b := sequence(t, w, 3, 60), sequence(t, w, 3, 60)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 3 gave two different op sequences", w)
		}
		if bytes.Equal(a, sequence(t, w, 4, 60)) {
			t.Errorf("%s: seeds 3 and 4 gave the same op sequence", w)
		}
	}
}

func TestMutationsCommit(t *testing.T) {
	g := generateGraph(2000, 5)
	gen, err := newGenerator(wlMutateMix, 5, g)
	if err != nil {
		t.Fatal(err)
	}
	d := dynamic.New(g, dynamic.Config{})
	batches := 0
	for batches < 40 {
		o, err := gen.Next()
		if err != nil {
			t.Fatal(err)
		}
		if o.kind != kindMutate {
			continue
		}
		batches++
		muts, err := decodeMutations(o.body)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(muts, o.muts) || len(muts) != mutateOps {
			t.Fatalf("batch %d: NDJSON body does not round-trip to its %d mutations", batches, mutateOps)
		}
		info, err := d.Commit(muts)
		if err != nil {
			t.Fatalf("batch %d: %v", batches, err)
		}
		if info.Epoch != o.mutSeq || info.Applied != mutateOps {
			t.Fatalf("batch %d committed at epoch %d with %d applied, want epoch %d", batches, info.Epoch, info.Applied, o.mutSeq)
		}
	}
}

func TestAccountingDetectsOverlap(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &opTrace{on: true, spans: []span{
		{name: "op.solve", parent: -1, start: at(0), end: at(10)},
		{name: "core.solve", parent: 0, start: at(1), end: at(6)},
		{name: "core.round", parent: 1, start: at(2), end: at(4)},
		{name: "core.eval", parent: 0, start: at(7), end: at(9)},
	}}
	total, cov, ok := tr.accounting()
	if !ok || total != 10*time.Millisecond || cov != 0.7 {
		t.Fatalf("disjoint spans: total %v coverage %v ok %v, want 10ms 0.7 true", total, cov, ok)
	}
	if self := tr.selfTimes(); self[1] != 3*time.Millisecond {
		t.Fatalf("core.solve self time %v, want 3ms", self[1])
	}
	tr.spans[3].start = at(5) // core.eval now overlaps core.solve
	if _, _, ok := tr.accounting(); ok {
		t.Fatal("overlapping sibling spans passed the accounting check")
	}
}

// TestCheckServedAgainstReplay feeds the checker one solve served at epoch
// 0 with the replay's and the cold answers varied: any disagreement at the
// same epoch is a mismatch, whichever side is wrong.
func TestCheckServedAgainstReplay(t *testing.T) {
	g := generateGraph(2000, 9)
	gen, err := newGenerator(wlHotSolve, 9, g)
	if err != nil {
		t.Fatal(err)
	}
	o, err := gen.Next()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := newChecker(g, nil).reference(context.Background(), 0, o)
	if err != nil {
		t.Fatal(err)
	}
	other := slices.Clone(cold)
	other[len(other)-1] = -1
	for _, tc := range []struct {
		name            string
		served, replay  []int
		wantMismatches  int
		wantFromReplays int
	}{
		{"all agree", cold, cold, 0, 1},
		{"replay wrong", cold, other, 1, 0},
		{"daemon wrong", other, cold, 1, 0},
		{"daemon and replay wrong alike", other, other, 1, 1},
	} {
		served := []result{{op: o, blockers: tc.served}}
		replayed := map[int]result{o.id: {op: o, blockers: tc.replay}}
		rep, _, err := newChecker(g, served).checkServed(context.Background(), served, replayed, 9)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mismatches != tc.wantMismatches || rep.MatchedReplay != tc.wantFromReplays || rep.Checked != 1 {
			t.Errorf("%s: %+v, want %d mismatches and %d solves matching the replay", tc.name, rep, tc.wantMismatches, tc.wantFromReplays)
		}
		if (served[0].err != "") != (tc.wantMismatches > 0) {
			t.Errorf("%s: served op error %q", tc.name, served[0].err)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLayerMapCoversMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		ReportOnly map[string]string `json:"report_only"`
		Map        []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string `json:"moves"`
		} `json:"map"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, e := range lm.Map {
		for _, m := range e.LayerMetrics {
			mapped[m] = true
		}
		for _, m := range e.Moves {
			if _, ok := lm.ReportOnly[m]; !ok && !slices.ContainsFunc(b.EndToEnd, func(x struct{ Name, Unit string }) bool { return x.Name == m }) {
				t.Errorf("layers.json maps onto %q, which is neither an end-to-end metric nor report-only", m)
			}
		}
	}
	for _, m := range b.PerLayer {
		if !mapped[m.Name] {
			t.Errorf("per-layer metric %s is missing from layers.json", m.Name)
		}
		delete(mapped, m.Name)
	}
	for m := range mapped {
		t.Errorf("layers.json names %s, which BENCHMARK.json does not list", m)
	}
}

// TestSmokeRun builds the daemon and drives every workload untraced and
// traced on a small graph for a few ops.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the daemon")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w, seed: 2, duration: time.Minute, trace: traced,
				vertices: 2000, setups: 1, maxOps: 12, workDir: t.TempDir(),
			}
			var out bytes.Buffer
			res, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != cfg.maxOps {
				t.Errorf("%s trace=%v: correct %v, %d of %d ops failed\n%s", w, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s: %+v", w, traced, m.Name, m.Unit, got)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last benchResult
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Attempted != res.Attempted {
				t.Errorf("%s trace=%v: last output line is not the result: %v", w, traced, err)
			}
		}
	}
}
