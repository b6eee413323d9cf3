package service

import (
	"context"
	"testing"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// The session-cache claim, measured: on a ~100k-edge graph, a cold solve
// pays graph unification (UnifySeeds copies all m edges for a multi-seed
// instance), sampler construction and estimator scratch allocation on
// every call, while a warm session pays them once. Run with
//
//	go test ./internal/service -bench=BenchmarkSolve -benchmem
//
// and compare the Cold and Warm variants.

const (
	benchN     = 20_000 // preferential attachment with ~5 edges/vertex → ~100k edges
	benchEPV   = 5
	benchTheta = 64
	benchB     = 4
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g := datasets.PreferentialAttachment(benchN, benchEPV, true, rng.New(1))
	return graph.Trivalency.Assign(g, rng.New(2))
}

func benchSeeds(b *testing.B, g *graph.Graph) []graph.V {
	b.Helper()
	seeds, err := datasets.RandomSeeds(g, 10, true, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	return seeds
}

func BenchmarkSolveColdSession(b *testing.B) {
	g := benchGraph(b)
	seeds := benchSeeds(b, g)
	opt := core.Options{Theta: benchTheta, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(g, seeds, benchB, core.AdvancedGreedy, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWarmSession(b *testing.B) {
	g := benchGraph(b)
	seeds := benchSeeds(b, g)
	opt := core.Options{Theta: benchTheta, Seed: 7}
	sess := core.NewSession(g, core.DiffusionIC, 0)
	// Prime the session so every timed iteration is warm.
	if _, err := sess.Solve(context.Background(), seeds, benchB, core.AdvancedGreedy, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Solve(context.Background(), seeds, benchB, core.AdvancedGreedy, opt); err != nil {
			b.Fatal(err)
		}
	}
}
