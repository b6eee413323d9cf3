package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/graph"
)

// fastCfg returns a configuration small enough for unit tests.
func fastCfg() Config {
	return Config{
		Scale:      0.01,
		Theta:      400,
		MCSRounds:  300,
		EvalRounds: 3000,
		NumSeeds:   5,
		Workers:    4,
		Seed:       11,
		Timeout:    5 * time.Second,
	}
}

func TestRunTable3MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Theta = 4000
	cfg.Out = &buf
	rows, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	want := map[[2]interface{}]float64{
		{"Greedy", 1}:        3,
		{"OutNeighbors", 1}:  6.66,
		{"GreedyReplace", 1}: 3,
		{"Greedy", 2}:        2,
		{"OutNeighbors", 2}:  1,
		{"GreedyReplace", 2}: 1,
	}
	for _, r := range rows {
		key := [2]interface{}{r.Algorithm, r.Budget}
		if w, ok := want[key]; ok {
			if math.Abs(r.Spread-w) > 1e-9 {
				t.Errorf("%s b=%d: spread %v, want %v", r.Algorithm, r.Budget, r.Spread, w)
			}
		} else {
			t.Errorf("unexpected row %v", key)
		}
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("output missing table header")
	}
}

func TestRunTable56(t *testing.T) {
	for _, model := range []graph.ProbModel{graph.Trivalency, graph.WeightedCascade} {
		var buf bytes.Buffer
		cfg := fastCfg()
		cfg.Out = &buf
		rows, err := RunTable56(cfg, model, Table56Options{ExtractSize: 18, MaxBudget: 2})
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if len(rows) != 2 {
			t.Fatalf("%v: got %d rows", model, len(rows))
		}
		for _, r := range rows {
			// The exact optimum is a lower bound on any heuristic's spread.
			if r.ExactSpread > r.GRSpread+1e-9 {
				t.Errorf("%v b=%d: exact %v > GR %v", model, r.Budget, r.ExactSpread, r.GRSpread)
			}
			// GR should be near-optimal on these tiny instances (paper: ≥
			// 99.88%; we allow sampling slack).
			if r.Ratio < 0.90 {
				t.Errorf("%v b=%d: ratio %.3f too low", model, r.Budget, r.Ratio)
			}
			if r.ExactRuntime <= 0 || r.GRRuntime <= 0 {
				t.Error("missing runtimes")
			}
		}
		// Monotonicity in budget: larger b yields no larger optimal spread.
		if rows[1].ExactSpread > rows[0].ExactSpread+1e-9 {
			t.Errorf("%v: exact spread rose with budget", model)
		}
	}
}

func TestRunTable7ShapeClaims(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	cfg.Datasets = []string{"EmailCore", "EmailAll"}
	rows, err := RunTable7(cfg, Table7Options{Budgets: []int{3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*2 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	slack := 0.35 // Monte-Carlo evaluation noise allowance
	for _, r := range rows {
		if r.GR <= 0 || r.RA <= 0 {
			t.Fatalf("row %+v has non-positive spread", r)
		}
		// Core effectiveness ordering: GR and AG beat RA.
		if r.GR > r.RA+slack {
			t.Errorf("%s/%v b=%d: GR %v worse than RA %v", r.Dataset, r.Model, r.Budget, r.GR, r.RA)
		}
		if r.AG > r.RA+slack {
			t.Errorf("%s/%v b=%d: AG %v worse than RA %v", r.Dataset, r.Model, r.Budget, r.AG, r.RA)
		}
		// Spread can never drop below the seed count.
		if r.GR < float64(cfg.NumSeeds)-1e-9 {
			t.Errorf("spread %v below |S|", r.GR)
		}
	}
	// Budget monotonicity for the greedy family (same dataset+model).
	for i := 1; i < len(rows); i++ {
		if rows[i].Dataset == rows[i-1].Dataset && rows[i].Model == rows[i-1].Model {
			if rows[i].GR > rows[i-1].GR+slack {
				t.Errorf("%s/%v: GR spread rose with budget: %v -> %v",
					rows[i].Dataset, rows[i].Model, rows[i-1].GR, rows[i].GR)
			}
		}
	}
}

func TestRunFig56(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	cfg.Datasets = []string{"EmailCore"}
	pts, err := RunFig56(cfg, Fig56Options{Thetas: []int{50, 500}, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Theta != 50 || pts[1].Theta != 500 {
		t.Fatal("theta order wrong")
	}
	if pts[0].DecreaseRatioPct != 0 {
		t.Error("first point must have no decrease ratio")
	}
	// More samples should not make results dramatically worse.
	if pts[1].Spread > pts[0].Spread*1.25 {
		t.Errorf("spread at θ=500 (%v) much worse than θ=50 (%v)", pts[1].Spread, pts[0].Spread)
	}
}

func TestRunFig78(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastCfg()
	cfg.Out = &buf
	cfg.Datasets = []string{"EmailCore"}
	rows, err := RunFig78(cfg, graph.Trivalency, Fig78Options{Budget: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if !r.BGTimedOut && r.BG < r.AG {
		t.Errorf("BG (%v) faster than AG (%v) — estimator speedup missing", r.BG, r.AG)
	}
	if r.AG <= 0 || r.GR <= 0 {
		t.Error("AG/GR runtimes missing")
	}
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("output header missing")
	}
}

func TestRunFig78WCModel(t *testing.T) {
	cfg := fastCfg()
	cfg.Datasets = []string{"EmailCore"}
	rows, err := RunFig78(cfg, graph.WeightedCascade, Fig78Options{Budget: 2, SkipBG: true})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].BG != 0 || rows[0].BGTimedOut {
		t.Error("SkipBG must leave BG empty")
	}
}

func TestRunFig9(t *testing.T) {
	cfg := fastCfg()
	pts, err := RunFig9(cfg, Fig9Options{Budgets: []int{1, 3}, Datasets: []string{"EmailCore"}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 models × 1 dataset × 2 budgets.
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !p.BGSkipped {
			t.Error("BG should be skipped by default")
		}
		if p.AG <= 0 || p.GR <= 0 {
			t.Error("missing timings")
		}
	}
}

func TestRunFig9WithBG(t *testing.T) {
	cfg := fastCfg()
	cfg.Timeout = 2 * time.Second
	pts, err := RunFig9(cfg, Fig9Options{Budgets: []int{1}, Datasets: []string{"EmailCore"}, IncludeBG: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.BGSkipped {
			t.Fatal("IncludeBG must not skip BG")
		}
		if !p.BGTimedOut && p.BG <= 0 {
			t.Fatal("BG timing missing")
		}
	}
}

func TestRunFig1011(t *testing.T) {
	cfg := fastCfg()
	cfg.Datasets = []string{"EmailAll"}
	pts, err := RunFig1011(cfg, graph.Trivalency, Fig1011Options{SeedCounts: []int{1, 10, 100}, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.Runtime <= 0 {
			t.Errorf("point %d missing runtime", i)
		}
	}
}

func TestRunFig1011SkipsOversizedSeedCounts(t *testing.T) {
	cfg := fastCfg()
	cfg.Datasets = []string{"EmailCore"} // 50 vertices at this scale
	pts, err := RunFig1011(cfg, graph.Trivalency, Fig1011Options{SeedCounts: []int{1, 1000}, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("oversized seed count not skipped: %d points", len(pts))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 0.02 || c.Theta != 1000 || c.NumSeeds != 10 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestSelectedSpecsErrors(t *testing.T) {
	cfg := fastCfg()
	cfg.Datasets = []string{"not-a-dataset"}
	if _, err := cfg.selectedSpecs(); err == nil {
		t.Fatal("unknown dataset must error")
	}
}
