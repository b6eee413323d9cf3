package core

import (
	"context"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// The DecreaseES trajectory benchmarks measure the per-round estimator cost
// of one b-round AdvancedGreedy selection on the ~100k-edge serving
// benchmark graph (the same generator internal/service/bench_test.go uses),
// the dominant term of solve latency under serving traffic:
//
//	Fresh        resamples θ live-edge graphs every round (the paper's
//	             Algorithm 2).
//	Pooled       draws the pool once, re-scans all θ stored samples per
//	             round: the PooledEstimator test oracle.
//	Incremental  draws the pool once, primes the estimator outside the
//	             timed loop (reported as prime-ns), then re-processes only
//	             the samples containing the vertices flipped since the
//	             previous round: the warm-session steady state.
//	FreshWikiVote is Fresh on the Wiki-Vote stand-in (7,115 vertices,
//	             ~103k edges under trivalency): the serving graph's edge
//	             count, but samples of ~168 vertices, 61% of them trees.
//	IncrementalWikiVote is Incremental on the same stand-in: every later
//	             round's dirty samples that are not trees run masked SNCA,
//	             a path the serving graph's samples (nearly all trees)
//	             rarely take.
//
// Run with:
//
//	go test ./internal/core -run '^$' -bench '^BenchmarkDecreaseES_' -benchmem
//
// cmd/experiments -exp benchcore runs the same workload standalone and
// writes BENCH_core.json for the committed baseline.
const (
	estBenchN      = 20_000 // preferential attachment, ~5 edges/vertex → ~100k edges
	estBenchEPV    = 5
	estBenchSeeds  = 10
	estBenchTheta  = 1000
	estBenchRounds = 10 // the budget b: one DecreaseES call per greedy round
)

// estBenchGraph returns the serving-size graph and its seed set.
func estBenchGraph(b *testing.B) (*graph.Graph, []graph.V) {
	b.Helper()
	g := datasets.PreferentialAttachment(estBenchN, estBenchEPV, true, rng.New(1))
	g = graph.Trivalency.Assign(g, rng.New(2))
	seeds, err := datasets.RandomSeeds(g, estBenchSeeds, true, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	return g, seeds
}

func estBenchInstance(b *testing.B) *instance {
	b.Helper()
	in, err := newInstance(estBenchGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchTrajectory runs one b-round AdvancedGreedy selection over the pool
// and records the blocker picked each round. The timed loops replay this
// fixed trajectory so the measurement isolates the DecreaseES call — the
// argmax scan is the same for every estimator and is benchmarked at the
// solve level. Pooled and incremental are bit-identical, so the trajectory
// is exactly what both would pick live.
func benchTrajectory(b *testing.B, in *instance, pool *SamplePool) []graph.V {
	b.Helper()
	est := NewPooledEstimatorFromPool(pool, 0)
	blocked := in.newBlocked()
	delta := make([]float64, in.n())
	traj := make([]graph.V, 0, estBenchRounds)
	for round := 0; round < estBenchRounds; round++ {
		est.DecreaseES(delta, blocked)
		best := pickMax(in, blocked, delta)
		if best == -1 {
			b.Fatal("ran out of candidates")
		}
		blocked[best] = true
		traj = append(traj, best)
	}
	return traj
}

// greedyRounds replays the recorded trajectory through the backend: one
// DecreaseES call per round, then the round's blocker is applied — the
// per-round estimator work of solveAdvancedGreedy. The blocker set is
// cleared (with flips reported) at the end, so a persistent estimator sees
// the repeated-solve pattern a warm session serves.
func greedyRounds(in *instance, est *estBackend, traj []graph.V, blocked []bool) {
	for round, v := range traj {
		est.decreaseES(in.src, blocked, uint64(round))
		blocked[v] = true
		est.noteFlip(v)
	}
	for _, v := range traj {
		blocked[v] = false
		est.noteFlip(v)
	}
}

func reportPerRound(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*estBenchRounds), "ns/round")
}

func BenchmarkDecreaseES_Fresh(b *testing.B) {
	benchFresh(b, estBenchInstance(b))
}

func BenchmarkDecreaseES_FreshWikiVote(b *testing.B) {
	benchFresh(b, wikiVoteInstance(b))
}

// wikiVoteInstance returns the Wiki-Vote stand-in under trivalency with ten
// seeds.
func wikiVoteInstance(b *testing.B) *instance {
	b.Helper()
	spec, _ := datasets.ByName("Wiki-Vote")
	g := graph.Trivalency.Assign(spec.Generate(1, 1), rng.New(7))
	seeds, err := datasets.RandomSeeds(g, estBenchSeeds, true, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	in, err := newInstance(g, seeds)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// benchFresh times the fresh estimator's rounds along the pooled
// trajectory of in.
func benchFresh(b *testing.B, in *instance) {
	pool := NewSamplePool(in.sampler(DiffusionIC), in.src, estBenchTheta, 0, rng.New(7))
	traj := benchTrajectory(b, in, pool)
	blocked := in.newBlocked()
	base := rng.New(7)
	est := &estBackend{fresh: NewEstimator(in.sampler(DiffusionIC), 0), theta: estBenchTheta, base: base}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedyRounds(in, est, traj, blocked)
	}
	reportPerRound(b)
}

func BenchmarkDecreaseES_Pooled(b *testing.B) {
	in := estBenchInstance(b)
	pool := NewSamplePool(in.sampler(DiffusionIC), in.src, estBenchTheta, 0, rng.New(7))
	traj := benchTrajectory(b, in, pool)
	blocked := in.newBlocked()
	delta := make([]float64, in.n())
	est := NewPooledEstimatorFromPool(pool, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range traj {
			est.DecreaseES(delta, blocked)
			blocked[v] = true
		}
		clear(blocked)
	}
	reportPerRound(b)
}

func BenchmarkDecreaseES_Incremental(b *testing.B) {
	benchIncremental(b, estBenchInstance(b))
}

func BenchmarkDecreaseES_IncrementalWikiVote(b *testing.B) {
	benchIncremental(b, wikiVoteInstance(b))
}

// benchIncremental times the incremental estimator's rounds along the
// pooled trajectory of in.
func benchIncremental(b *testing.B, in *instance) {
	pool := NewSamplePool(in.sampler(DiffusionIC), in.src, estBenchTheta, 0, rng.New(7))
	traj := benchTrajectory(b, in, pool)
	blocked := in.newBlocked()
	// One persistent estimator, like a warm session: every iteration's
	// round 0 diffs away the previous iteration's blockers — the
	// repeated-solve pattern the serving layer runs. The priming scan and
	// one pass that leaves such blockers behind run before the timer
	// starts, so every timed iteration does the same work and ns/round
	// does not depend on b.N.
	incr := NewIncrementalPooledEstimatorFromPool(pool, 0)
	est := &estBackend{incr: incr, theta: estBenchTheta}
	t0 := time.Now()
	est.decreaseES(in.src, blocked, 0)
	primeNs := time.Since(t0)
	greedyRounds(in, est, traj, blocked)
	st0 := incr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedyRounds(in, est, traj, blocked)
	}
	reportPerRound(b)
	b.ReportMetric(float64(primeNs.Nanoseconds()), "prime-ns")
	st := incr.Stats()
	b.ReportMetric(float64(st.SamplesReprocessed-st0.SamplesReprocessed)/float64(st.Rounds-st0.Rounds), "dirty-samples/round")
}

// BenchmarkSessionPrepare times a cold LockedSession.Prepare of a 10-seed
// set on the serving-size graph: the seed view, candidate fences and
// estimator a session builds on first sight of a seed set. Compare its
// B/op with BenchmarkUnifySeeds (internal/graph), the copy the view
// replaces.
func BenchmarkSessionPrepare(b *testing.B) {
	g, seeds := estBenchGraph(b)
	b.ReportAllocs()
	for b.Loop() {
		h, err := NewSession(g, DiffusionIC, 1).Acquire(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Prepare(seeds); err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}
