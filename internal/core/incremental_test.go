package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// TestSamplePoolInvertedIndexHandBuilt pins the index down on a pool whose
// content is fully determined: certain edges sample identically every time,
// so every sample of the chain 0→1→2 is exactly {0,1,2} and the p=0 spur
// never appears.
func TestSamplePoolInvertedIndexHandBuilt(t *testing.T) {
	bld := graph.NewBuilder(5)
	bld.AddEdge(0, 1, 1)
	bld.AddEdge(1, 2, 1)
	bld.AddEdge(1, 3, 0) // never live
	// vertex 4 is isolated
	g := bld.Build()

	const theta = 6
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 3, rng.New(1))
	if pool.Theta() != theta {
		t.Fatalf("Theta = %d, want %d", pool.Theta(), theta)
	}
	for v, want := range [][]int32{
		0: {0, 1, 2, 3, 4, 5},
		1: {0, 1, 2, 3, 4, 5},
		2: {0, 1, 2, 3, 4, 5},
		3: {},
		4: {},
	} {
		got := pool.SamplesContaining(graph.V(v))
		if len(got) != len(want) {
			t.Fatalf("SamplesContaining(%d) = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SamplesContaining(%d) = %v, want %v", v, got, want)
			}
		}
	}
	var s sampleView
	for i := 0; i < theta; i++ {
		pool.view(i, &s)
		if !reflect.DeepEqual(s.orig, []graph.V{0, 1, 2}) {
			t.Fatalf("sample %d orig = %v, want [0 1 2]", i, s.orig)
		}
		if !reflect.DeepEqual(s.outStart, []int32{0, 1, 2, 2}) || !reflect.DeepEqual(s.outTo, []int32{1, 2}) {
			t.Fatalf("sample %d CSR = %v/%v, want [0 1 2 2]/[1 2]", i, s.outStart, s.outTo)
		}
	}
	if pool.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

// TestSamplePoolIndexConsistency checks, on a random pool, that the
// inverted index is exactly the transpose of the sample→vertex relation:
// every (sample, vertex) pair appears on both sides and nowhere else.
func TestSamplePoolIndexConsistency(t *testing.T) {
	g := fixture.Toy()
	pool := NewSamplePool(cascade.NewIC(g), fixture.Seed, 500, 4, rng.New(3))

	inSample := make([]map[graph.V]bool, pool.Theta())
	total := 0
	var s sampleView
	for i := 0; i < pool.Theta(); i++ {
		pool.view(i, &s)
		inSample[i] = make(map[graph.V]bool, len(s.orig))
		for _, v := range s.orig {
			inSample[i][v] = true
		}
		total += len(s.orig)
	}
	indexed := 0
	for v := graph.V(0); int(v) < g.N(); v++ {
		prev := int32(-1)
		for _, i := range pool.SamplesContaining(v) {
			if i <= prev {
				t.Fatalf("index of vertex %d not strictly ascending: %v", v, pool.SamplesContaining(v))
			}
			prev = i
			if !inSample[i][v] {
				t.Fatalf("index says sample %d contains %d, but its view does not", i, v)
			}
			indexed++
		}
	}
	if indexed != total {
		t.Fatalf("index holds %d pairs, samples hold %d", indexed, total)
	}
}

// TestIncrementalMatchesPooledBitIdentical drives the two estimators over
// the same pool through a greedy-like blocker trajectory with both blocks
// and unblocks (the GreedyReplace phase-2 pattern) and requires DecreaseES
// outputs to be bit-identical at every step — the contract that lets the
// incremental path replace the full re-scan with no behavioral change.
func TestIncrementalMatchesPooledBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		r := rng.New(seed)
		n := r.Intn(30) + 20
		// Sparse, low-probability graphs: samples reach a fraction of the
		// vertices, so the savings assertion below has sparsity to exploit.
		bld := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			bld.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(3))*0.15+0.1)
		}
		g := bld.Build()

		pool := NewSamplePool(cascade.NewIC(g), 0, 400, 3, rng.New(seed+100))
		pooled := NewPooledEstimatorFromPool(pool, 3)
		incr := NewIncrementalPooledEstimatorFromPool(pool, 3)

		blocked := make([]bool, n)
		dP := make([]float64, n)
		dI := make([]float64, n)
		var trajectory []graph.V
		for round := 0; round < 12; round++ {
			pooled.DecreaseES(dP, blocked)
			incr.DecreaseES(dI, blocked)
			for v := range dP {
				if dP[v] != dI[v] { // exact float equality, deliberately
					t.Fatalf("seed=%d round=%d v=%d: pooled %v != incremental %v",
						seed, round, v, dP[v], dI[v])
				}
			}
			// Alternate greedy blocks with GR-style unblocks.
			if round%4 == 3 && len(trajectory) > 0 {
				u := trajectory[len(trajectory)-1]
				trajectory = trajectory[:len(trajectory)-1]
				blocked[u] = false
				continue
			}
			best := graph.V(-1)
			for v := graph.V(1); int(v) < n; v++ {
				if blocked[v] {
					continue
				}
				if best == -1 || dP[v] > dP[best] {
					best = v
				}
			}
			if best == -1 {
				break
			}
			blocked[best] = true
			trajectory = append(trajectory, best)
		}

		st := incr.Stats()
		if st.Rounds == 0 || st.SamplesReprocessed >= st.Rounds*int64(pool.Theta()) {
			t.Errorf("seed=%d: reprocessed %d of %d sample-rounds — no incremental savings",
				seed, st.SamplesReprocessed, st.Rounds*int64(pool.Theta()))
		}
	}
}

// TestEstimatorsCrossValidateBlockerSets asserts that the three DecreaseES
// strategies select identical blocker sets for AG and GR at pinned RNG
// streams: pooled and incremental must agree exactly (bit-identical Δ over
// the same pool), and the fresh-sample solver agrees at these θ because the
// estimates are far enough apart on these instances — pinned seeds keep
// that deterministic, matching the crossvalidate_test.go approach.
func TestEstimatorsCrossValidateBlockerSets(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 5, 8} {
		r := rng.New(seed)
		n := r.Intn(8) + 5
		bld := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			bld.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(4))*0.25+0.25)
		}
		g := bld.Build()
		for _, theta := range []int{3000, 8000} {
			opt := Options{Theta: theta, Workers: 2, Seed: seed}
			for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
				fresh, err := Solve(g, []graph.V{0}, 2, alg, opt)
				if err != nil {
					t.Fatalf("seed=%d θ=%d %s fresh: %v", seed, theta, alg, err)
				}

				optPool := opt
				optPool.ReuseSamples = true
				incr, err := Solve(g, []graph.V{0}, 2, alg, optPool)
				if err != nil {
					t.Fatalf("seed=%d θ=%d %s incremental: %v", seed, theta, alg, err)
				}

				// The non-incremental pooled estimator over the pool a cold
				// ReuseSamples run draws (same split chain).
				in, err := newInstance(g, []graph.V{0})
				if err != nil {
					t.Fatal(err)
				}
				base := rng.New(opt.Seed)
				pooledEst := NewPooledEstimator(
					in.sampler(opt.Diffusion), in.src, theta, opt.Workers, base.Split(^uint64(0)))
				back := &estBackend{pooled: pooledEst, theta: theta, base: base}
				var pooled Result
				if alg == AdvancedGreedy {
					pooled = solveAdvancedGreedy(stopper{}, in, back, 2, opt)
				} else {
					pooled = solveGreedyReplace(stopper{}, in, back, 2, opt)
				}

				if !reflect.DeepEqual(pooled.Blockers, incr.Blockers) {
					t.Errorf("seed=%d θ=%d %s: pooled %v != incremental %v (must be exact)",
						seed, theta, alg, pooled.Blockers, incr.Blockers)
				}
				if !reflect.DeepEqual(fresh.Blockers, incr.Blockers) {
					t.Errorf("seed=%d θ=%d %s: fresh %v != pooled/incremental %v",
						seed, theta, alg, fresh.Blockers, incr.Blockers)
				}
			}
		}
	}
}

// TestIncrementalEstimatorMatchesExample2 anchors the incremental path to
// the paper's worked example, mirroring TestPooledEstimatorMatchesExample2.
func TestIncrementalEstimatorMatchesExample2(t *testing.T) {
	g := fixture.Toy()
	e := NewIncrementalPooledEstimator(cascade.NewIC(g), fixture.Seed, 200000, 4, rng.New(1))
	delta := make([]float64, g.N())
	e.DecreaseES(delta, nil)
	want := fixture.Delta()
	for v := range want {
		if math.Abs(delta[v]-want[v]) > 0.02 {
			t.Errorf("Δ[v%d] = %v, want %v", v+1, delta[v], want[v])
		}
	}
}

// TestSessionWarmPoolReuse is the warm-session fix: repeated ReuseSamples
// solves with the same (seeds, Seed, Theta) must stop paying pool
// construction — and still return exactly the cold-solve blockers.
func TestSessionWarmPoolReuse(t *testing.T) {
	g := sessionTestGraph(300)
	seeds := []graph.V{1, 4, 7}
	opt := Options{Theta: 300, Seed: 5, Workers: 2, ReuseSamples: true}
	ctx := context.Background()

	cold, err := Solve(g, seeds, 5, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SampledGraphs != int64(opt.Theta) {
		t.Fatalf("cold SampledGraphs = %d, want %d", cold.SampledGraphs, opt.Theta)
	}

	sess := NewSession(g, DiffusionIC, 2)
	for call := 0; call < 3; call++ {
		res, err := sess.Solve(ctx, seeds, 5, AdvancedGreedy, opt)
		if err != nil {
			t.Fatalf("session solve %d: %v", call, err)
		}
		if !reflect.DeepEqual(res.Blockers, cold.Blockers) {
			t.Fatalf("call %d: warm blockers %v != cold %v", call, res.Blockers, cold.Blockers)
		}
		wantDrawn := int64(0)
		if call == 0 {
			wantDrawn = int64(opt.Theta)
		}
		if res.SampledGraphs != wantDrawn {
			t.Errorf("call %d: SampledGraphs = %d, want %d", call, res.SampledGraphs, wantDrawn)
		}
	}

	// GreedyReplace on the same pool key must also reuse it.
	if _, err := sess.Solve(ctx, seeds, 3, GreedyReplace, opt); err != nil {
		t.Fatal(err)
	}

	st := sess.Stats()
	if st.PoolBuilds != 1 {
		t.Errorf("PoolBuilds = %d, want 1", st.PoolBuilds)
	}
	if st.PoolReuses != 3 {
		t.Errorf("PoolReuses = %d, want 3", st.PoolReuses)
	}
	if st.PoolBytes <= 0 {
		t.Errorf("PoolBytes = %d, want > 0", st.PoolBytes)
	}

	// A different Options.Seed is a different pool.
	opt2 := opt
	opt2.Seed = 6
	if _, err := sess.Solve(ctx, seeds, 2, AdvancedGreedy, opt2); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.PoolBuilds != 2 {
		t.Errorf("PoolBuilds after new seed = %d, want 2", st.PoolBuilds)
	}
}

// TestSessionPoolLRUBound keeps the per-instance pool cache bounded: a
// third distinct (Seed, Theta) evicts the least recently used pool, and
// pool bytes never track more than maxSessionPools pools.
func TestSessionPoolLRUBound(t *testing.T) {
	g := sessionTestGraph(200)
	seeds := []graph.V{2, 3}
	ctx := context.Background()
	sess := NewSession(g, DiffusionIC, 2)

	for i := 0; i < 2*maxSessionPools; i++ {
		opt := Options{Theta: 100, Seed: uint64(i + 1), Workers: 2, ReuseSamples: true}
		if _, err := sess.Solve(ctx, seeds, 2, AdvancedGreedy, opt); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.PoolBuilds != int64(2*maxSessionPools) {
		t.Errorf("PoolBuilds = %d, want %d (every seed distinct)", st.PoolBuilds, 2*maxSessionPools)
	}
	// Re-solving the most recent seed must hit; the oldest must rebuild.
	optRecent := Options{Theta: 100, Seed: uint64(2 * maxSessionPools), Workers: 2, ReuseSamples: true}
	if _, err := sess.Solve(ctx, seeds, 2, AdvancedGreedy, optRecent); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats(); got.PoolReuses != st.PoolReuses+1 {
		t.Errorf("recent pool did not hit: reuses %d -> %d", st.PoolReuses, got.PoolReuses)
	}
	optOld := Options{Theta: 100, Seed: 1, Workers: 2, ReuseSamples: true}
	if _, err := sess.Solve(ctx, seeds, 2, AdvancedGreedy, optOld); err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats(); got.PoolBuilds != st.PoolBuilds+1 {
		t.Errorf("evicted pool was not rebuilt: builds %d -> %d", st.PoolBuilds, got.PoolBuilds)
	}
}
