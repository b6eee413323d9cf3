// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section VI), plus ablation benchmarks for the design
// choices called out in DESIGN.md §6. Each benchmark iteration executes the
// corresponding experiment at a laptop-scale configuration; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or -bench=BenchmarkTable7 for a single experiment.
// cmd/experiments runs the same experiments with printed tables and
// configurable scale.
package imin

import (
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/harness"
	"github.com/imin-dev/imin/internal/rng"
)

// benchCfg is the shared laptop-scale configuration for experiment benches.
func benchCfg() harness.Config {
	return harness.Config{
		Scale:      0.01,
		Theta:      300,
		MCSRounds:  300,
		EvalRounds: 2000,
		NumSeeds:   5,
		Seed:       1,
		Timeout:    2 * time.Second,
	}
}

func BenchmarkTable3_ToyBlockers(b *testing.B) {
	cfg := benchCfg()
	cfg.Theta = 4000
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5_ExactVsGR_TR(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable56(cfg, graph.Trivalency, harness.Table56Options{ExtractSize: 20, MaxBudget: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6_ExactVsGR_WC(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable56(cfg, graph.WeightedCascade, harness.Table56Options{ExtractSize: 20, MaxBudget: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7_Heuristics(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailCore", "EmailAll"}
	opts := harness.Table7Options{Budgets: []int{4, 8}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTable7(cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_SpreadVsTheta(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailCore", "Wiki-Vote"}
	opts := harness.Fig56Options{Thetas: []int{100, 1000}, Budget: 5}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig56(cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_TimeVsTheta(b *testing.B) {
	// Figure 6 shares Figure 5's runner; this target sweeps a wider θ range
	// so the (near-linear) time growth is visible in the benchmark output.
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailCore"}
	opts := harness.Fig56Options{Thetas: []int{100, 1000, 5000}, Budget: 5}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig56(cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_AlgTimes_TR(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailCore", "Wiki-Vote"}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig78(cfg, graph.Trivalency, harness.Fig78Options{Budget: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_AlgTimes_WC(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailCore", "Wiki-Vote"}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig78(cfg, graph.WeightedCascade, harness.Fig78Options{Budget: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_TimeVsBudget(b *testing.B) {
	cfg := benchCfg()
	opts := harness.Fig9Options{Budgets: []int{1, 5, 10}, Datasets: []string{"Facebook"}}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig9(cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_TimeVsSeeds_TR(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailAll"}
	opts := harness.Fig1011Options{SeedCounts: []int{1, 10, 100}, Budget: 5}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig1011(cfg, graph.Trivalency, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_TimeVsSeeds_WC(b *testing.B) {
	cfg := benchCfg()
	cfg.Datasets = []string{"EmailAll"}
	opts := harness.Fig1011Options{SeedCounts: []int{1, 10, 100}, Budget: 5}
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunFig1011(cfg, graph.WeightedCascade, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §6) ---

// benchInstance builds a mid-size TR instance shared by the ablations.
func benchInstance(b *testing.B) (*graph.Graph, graph.V) {
	b.Helper()
	g, err := GenerateDataset("Wiki-Vote", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	return AssignProbabilities(g, Trivalency, 2), 0
}

// BenchmarkAblation_ReachablePruning quantifies the sampler's key
// optimization: materializing only the region reachable from the seed
// versus flipping every edge of G as a literal reading of Algorithm 2
// would. Both produce identical estimates.
func BenchmarkAblation_ReachablePruning(b *testing.B) {
	g, src := benchInstance(b)
	b.Run("reachable-only", func(b *testing.B) {
		ic := cascade.NewIC(g)
		ws := ic.NewWorkspace()
		r := rng.New(4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ic.Sample(src, nil, r, ws)
		}
	})
	b.Run("full-graph", func(b *testing.B) {
		r := rng.New(4)
		n := g.N()
		var fg dominator.FlowGraph
		eFrom := make([]int32, 0, g.M())
		eTo := make([]int32, 0, g.M())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Flip every edge in G (no pruning), then build the CSR, as a
			// whole-graph sampler must.
			eFrom, eTo = eFrom[:0], eTo[:0]
			for u := graph.V(0); int(u) < n; u++ {
				ps := g.OutProbs(u)
				to := g.OutNeighbors(u)
				for j := range to {
					if r.Bernoulli(ps[j]) {
						eFrom = append(eFrom, int32(u))
						eTo = append(eTo, int32(to[j]))
					}
				}
			}
			fg.Build(n, eFrom, eTo)
		}
	})
}

// BenchmarkAblation_SampleReuse compares AdvancedGreedy with fresh samples
// per round (the paper's Algorithm 2 usage) against the pooled variant
// that draws the θ samples once and filters them per round
// (Options.ReuseSamples; see core.IncrementalPooledEstimator). Same
// blocker quality, different cost profile.
func BenchmarkAblation_SampleReuse(b *testing.B) {
	g, src := benchInstance(b)
	for _, reuse := range []bool{false, true} {
		name := "fresh-per-round"
		if reuse {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.Options{Theta: 1000, Workers: 0, Seed: 7, ReuseSamples: reuse}
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(g, []graph.V{src}, 10, core.AdvancedGreedy, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MCSParallelism sweeps the Monte-Carlo worker count.
func BenchmarkAblation_MCSParallelism(b *testing.B) {
	g, src := benchInstance(b)
	ic := cascade.NewIC(g)
	for _, workers := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "workers-1", 4: "workers-4", 16: "workers-16"}[workers], func(b *testing.B) {
			base := rng.New(5)
			var scratch cascade.Workspaces
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cascade.EstimateSpreadParallel(ic, src, nil, 20000, workers, base, &scratch)
			}
		})
	}
}

// BenchmarkAblation_EstimatorVsMCS is the headline speedup in microcosm:
// scoring every candidate blocker once via Algorithm 2 versus via one MCS
// evaluation per candidate (what BaselineGreedy does each round).
func BenchmarkAblation_EstimatorVsMCS(b *testing.B) {
	g, src := benchInstance(b)
	ic := cascade.NewIC(g)
	b.Run("algorithm2-all-candidates", func(b *testing.B) {
		est := core.NewEstimator(ic, 0)
		delta := make([]float64, g.N())
		r := rng.New(6)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			est.DecreaseES(delta, src, nil, 1000, r)
		}
	})
	b.Run("mcs-per-candidate", func(b *testing.B) {
		// One MCS spread estimate per candidate; even with r=1000 rounds
		// this is ~n times the estimator's cost.
		r := rng.New(6)
		blocked := make([]bool, g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for u := graph.V(1); int(u) < g.N(); u++ {
				blocked[u] = true
				cascade.EstimateSpread(ic, src, blocked, 1000, r)
				blocked[u] = false
			}
		}
	})
}
