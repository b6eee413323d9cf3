package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// denseTestGraph builds a graph whose live-edge samples reach a sizable
// fraction of the vertices, so single-vertex flips dirty well over the
// inline threshold and the sharded parallel path actually runs.
func denseTestGraph(n int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	bld := graph.NewBuilder(n)
	for i := 0; i < 6*n; i++ {
		bld.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(3))*0.2+0.2)
	}
	return bld.Build()
}

// TestReuseSamplesDeterministicAcrossWorkerCounts is the sharded
// reduction's headline guarantee: the same ReuseSamples instance solved at
// workers = 1, 2, 4, 8 returns byte-identical blocker sequences for both
// greedy algorithms. Pool content is worker-independent (per-sample rng
// streams) and the shard accumulators sum exactly, so the worker count
// must be invisible in the output.
func TestReuseSamplesDeterministicAcrossWorkerCounts(t *testing.T) {
	g := denseTestGraph(120, 9)
	seeds := []graph.V{3, 11}
	for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
		var want []graph.V
		for _, workers := range []int{1, 2, 4, 8} {
			opt := Options{Theta: 400, Seed: 5, Workers: workers, ReuseSamples: true}
			res, err := Solve(g, seeds, 6, alg, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, workers, err)
			}
			if want == nil {
				want = res.Blockers
				continue
			}
			if !reflect.DeepEqual(res.Blockers, want) {
				t.Errorf("%s workers=%d: blockers %v != workers=1 blockers %v", alg, workers, res.Blockers, want)
			}
		}
	}
}

// TestSessionWorkerCountChangeKeepsPool asserts the warm-session half of
// the guarantee: requests at different Options.Workers on one session
// reuse the same cached pool (SetWorkers reshards instead of rebuilding)
// and still return the cold-solve blockers.
func TestSessionWorkerCountChangeKeepsPool(t *testing.T) {
	g := denseTestGraph(120, 10)
	seeds := []graph.V{2, 7}
	base := Options{Theta: 300, Seed: 4, ReuseSamples: true}
	ctx := context.Background()

	optCold := base
	optCold.Workers = 1
	cold, err := Solve(g, seeds, 5, AdvancedGreedy, optCold)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(g, DiffusionIC, 2)
	for _, workers := range []int{1, 4, 2, 8, 1} {
		opt := base
		opt.Workers = workers
		res, err := sess.Solve(ctx, seeds, 5, AdvancedGreedy, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Blockers, cold.Blockers) {
			t.Errorf("workers=%d: warm blockers %v != cold %v", workers, res.Blockers, cold.Blockers)
		}
	}
	st := sess.Stats()
	if st.PoolBuilds != 1 {
		t.Errorf("PoolBuilds = %d, want 1: changing the worker count must not invalidate the cached pool", st.PoolBuilds)
	}
	if st.PoolReuses != 4 {
		t.Errorf("PoolReuses = %d, want 4", st.PoolReuses)
	}
}

// TestWorkersExceedTheta pins the clamp: worker counts far above θ (and
// above the dirty count of every round) must behave exactly like a sane
// worker count, not panic or spawn empty shards with out-of-range sample
// slices.
func TestWorkersExceedTheta(t *testing.T) {
	g := denseTestGraph(60, 11)
	const theta = 5

	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 64, rng.New(2))
	if pool.Theta() != theta {
		t.Fatalf("Theta = %d, want %d", pool.Theta(), theta)
	}
	ref := NewSamplePool(cascade.NewIC(g), 0, theta, 1, rng.New(2))
	if !reflect.DeepEqual(pool.vertOrig, ref.vertOrig) || !reflect.DeepEqual(pool.edgeTo, ref.edgeTo) {
		t.Fatal("pool content differs between workers=64 and workers=1")
	}

	incr := NewIncrementalPooledEstimatorFromPool(pool, 64)
	if got := len(incr.shards); got != theta {
		t.Fatalf("shard count = %d, want clamp to θ = %d", got, theta)
	}
	pooled := NewPooledEstimatorFromPool(pool, 64)
	n := g.N()
	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	for round := 0; round < 4; round++ {
		copy(dI, incr.DecreaseES(blocked))
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d: incremental != pooled under θ < workers", round)
		}
		blocked[round+1] = true
	}

	opt := Options{Theta: theta, Workers: 16, Seed: 3, ReuseSamples: true}
	if _, err := Solve(g, []graph.V{0}, 2, AdvancedGreedy, opt); err != nil {
		t.Fatalf("Solve with workers > theta: %v", err)
	}
}

// TestParallelDecreaseESFlipsMatchesPooled drives the sharded parallel
// path (dirty counts far above the inline threshold) through a trajectory
// of blocks and unblocks and requires bit-identical output against the
// serial full re-scan at every step. Run under -race this is also the
// concurrency exercise for the shard fan-out and the parallel reduction.
func TestParallelDecreaseESFlipsMatchesPooled(t *testing.T) {
	g := denseTestGraph(150, 12)
	n := g.N()
	pool := NewSamplePool(cascade.NewIC(g), 0, 600, 4, rng.New(7))
	incr := NewIncrementalPooledEstimatorFromPool(pool, 4)
	pooled := NewPooledEstimatorFromPool(pool, 1)

	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	var flips []graph.V
	var trajectory []graph.V
	dirtyBefore := int64(0)
	sawParallelRound := false
	for round := 0; round < 16; round++ {
		copy(dI, incr.DecreaseESFlips(blocked, flips))
		st := incr.Stats()
		if st.SamplesReprocessed-dirtyBefore > smallRoundInline {
			sawParallelRound = true
		}
		dirtyBefore = st.SamplesReprocessed
		flips = flips[:0]
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d: incremental != pooled", round)
		}
		if round%5 == 4 && len(trajectory) > 0 {
			u := trajectory[len(trajectory)-1]
			trajectory = trajectory[:len(trajectory)-1]
			blocked[u] = false
			flips = append(flips, u)
			continue
		}
		best := graph.V(-1)
		for v := graph.V(1); int(v) < n; v++ {
			if !blocked[v] && (best == -1 || dP[v] > dP[best]) {
				best = v
			}
		}
		blocked[best] = true
		flips = append(flips, best)
		trajectory = append(trajectory, best)
	}
	if !sawParallelRound {
		t.Error("no round exceeded the inline threshold; the parallel path was never exercised")
	}
}

// TestSetWorkersMidTrajectory reshards a primed estimator between rounds —
// the warm-session pattern when consecutive requests ask for different
// worker counts — and requires the maintained state to survive exactly:
// every subsequent round must still match the full re-scan bit for bit.
func TestSetWorkersMidTrajectory(t *testing.T) {
	g := denseTestGraph(100, 13)
	n := g.N()
	pool := NewSamplePool(cascade.NewIC(g), 0, 350, 2, rng.New(5))
	incr := NewIncrementalPooledEstimatorFromPool(pool, 1)
	pooled := NewPooledEstimatorFromPool(pool, 3)

	blocked := make([]bool, n)
	dI := make([]float64, n)
	dP := make([]float64, n)
	schedule := []int{1, 4, 4, 2, 8, 1, 3}
	for round, workers := range schedule {
		incr.SetWorkers(workers)
		copy(dI, incr.DecreaseES(blocked))
		pooled.DecreaseES(dP, blocked)
		if !reflect.DeepEqual(dI, dP) {
			t.Fatalf("round %d (workers=%d): incremental != pooled after reshard", round, workers)
		}
		v := (round*13)%(n-1) + 1 // never flip the source
		blocked[v] = !blocked[v]
	}
}
