package core

import (
	"math"
	"sync"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// PooledEstimator is the straight-line reference for the pool-backed
// estimator: every DecreaseES call re-scans all θ stored samples through
// the filter reference (filterRef), which shares no masking or tree code
// with the kernel, and carries no state between calls.
// IncrementalPooledEstimator must match it bit for bit over the same pool,
// for every blocker sequence and worker count.
type PooledEstimator struct {
	pool    *SamplePool
	workers int
	scratch []*pooledWorker
}

// NewPooledEstimator draws theta samples from the sampler into a fresh pool
// and wraps it. workers <= 0 selects GOMAXPROCS.
func NewPooledEstimator(sampler cascade.LiveSampler, src graph.V, theta, workers int, base *rng.Source) *PooledEstimator {
	return NewPooledEstimatorFromPool(NewSamplePool(sampler, src, theta, workers, base), workers)
}

// NewPooledEstimatorFromPool wraps an existing pool without copying it; the
// pool may be shared with other estimators.
func NewPooledEstimatorFromPool(pool *SamplePool, workers int) *PooledEstimator {
	return &PooledEstimator{
		pool:    pool,
		workers: poolWorkers(workers, pool.Theta()),
	}
}

// Theta returns the stored sample count.
func (p *PooledEstimator) Theta() int { return p.pool.Theta() }

type pooledWorker struct {
	ref   *filterRef
	sview cascade.SampledGraph
	acc   []int64
}

func (p *PooledEstimator) worker(w int) *pooledWorker {
	for len(p.scratch) <= w {
		p.scratch = append(p.scratch, &pooledWorker{
			ref: newFilterRef(),
			acc: make([]int64, p.pool.n),
		})
	}
	return p.scratch[w]
}

// DecreaseES estimates Δ[u] on G[V\B] for every vertex from the stored
// pool, writing into dst (length ≥ n). Deterministic given the pool.
func (p *PooledEstimator) DecreaseES(dst []float64, blocked []bool) {
	n := p.pool.n
	var wg sync.WaitGroup
	theta := p.pool.Theta()
	for w := 0; w < p.workers; w++ {
		lo := w * theta / p.workers
		hi := (w + 1) * theta / p.workers
		st := p.worker(w)
		wg.Add(1)
		go func(st *pooledWorker, lo, hi int) {
			defer wg.Done()
			for i := range st.acc[:n] {
				st.acc[i] = 0
			}
			for i := lo; i < hi; i++ {
				p.pool.view(i, &st.sview)
				sizes := st.ref.dominate(&st.sview, blocked)
				for l := 1; l < len(sizes); l++ {
					st.acc[st.sview.Orig[l]] += int64(sizes[l])
				}
			}
		}(st, lo, hi)
	}
	wg.Wait()
	inv := 1 / float64(theta)
	for u := 0; u < n; u++ {
		total := int64(0)
		for w := 0; w < p.workers; w++ {
			total += p.scratch[w].acc[u]
		}
		dst[u] = float64(total) * inv
	}
	dst[p.pool.src] = 0
}

func TestPooledEstimatorMatchesExample2(t *testing.T) {
	g := fixture.Toy()
	p := NewPooledEstimator(cascade.NewIC(g), fixture.Seed, 200000, 4, rng.New(1))
	delta := make([]float64, g.N())
	p.DecreaseES(delta, nil)
	want := fixture.Delta()
	for v := range want {
		if math.Abs(delta[v]-want[v]) > 0.02 {
			t.Errorf("Δ[v%d] = %v, want %v", v+1, delta[v], want[v])
		}
	}
	if p.Theta() != 200000 {
		t.Errorf("Theta = %d", p.Theta())
	}
}

func TestPooledEstimatorWithBlockedMatchesFresh(t *testing.T) {
	// Filtering blocked vertices out of stored samples must estimate the
	// blocked graph: compare against the fresh estimator at high θ.
	g := fixture.Toy()
	blocked := make([]bool, g.N())
	blocked[fixture.V5] = true

	p := NewPooledEstimator(cascade.NewIC(g), fixture.Seed, 100000, 4, rng.New(2))
	dPool := make([]float64, g.N())
	p.DecreaseES(dPool, blocked)

	fresh := NewEstimator(cascade.NewIC(g), 4)
	dFresh := make([]float64, g.N())
	fresh.DecreaseES(dFresh, fixture.Seed, blocked, 100000, rng.New(3))

	for v := range dPool {
		if math.Abs(dPool[v]-dFresh[v]) > 0.02 {
			t.Errorf("v%d: pooled %v vs fresh %v", v+1, dPool[v], dFresh[v])
		}
	}
	if dPool[fixture.V5] != 0 {
		t.Error("blocked vertex must have Δ = 0")
	}
}

func TestReuseSamplesSolvesToyIdentically(t *testing.T) {
	g := fixture.Toy()
	for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
		opt := testOpt()
		opt.ReuseSamples = true
		res, err := Solve(g, []graph.V{fixture.Seed}, 2, alg, opt)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Same blocker quality as the fresh-sample runs (Table III).
		blocked := make([]bool, g.N())
		for _, v := range res.Blockers {
			blocked[v] = true
		}
		spread := 0.0
		switch alg {
		case AdvancedGreedy:
			spread = 2
		case GreedyReplace:
			spread = 1
		}
		got := exactToySpread(t, blocked)
		if math.Abs(got-spread) > 1e-9 {
			t.Errorf("%s with ReuseSamples: spread %v, want %v (blockers %v)", alg, got, spread, res.Blockers)
		}
		// Pool accounting: exactly θ samples drawn regardless of rounds.
		if res.SampledGraphs != int64(opt.Theta) {
			t.Errorf("%s: SampledGraphs = %d, want %d (one pool)", alg, res.SampledGraphs, opt.Theta)
		}
	}
}

// TestPoolMemoryBytesAccountsEverything guards the /stats honesty contract:
// a pool's MemoryBytes covers every backing array it holds, and an
// estimator's covers the per-worker scratch its first rounds grow.
func TestPoolMemoryBytesAccountsEverything(t *testing.T) {
	g := denseTestGraph(100, 21)
	const theta = 200
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 2, rng.New(4))

	want := int64(len(pool.vertStart))*8 + int64(len(pool.edgeStart))*8 +
		int64(len(pool.vertOrig))*4 + int64(len(pool.csrStart))*4 + int64(len(pool.edgeTo))*4 +
		int64(len(pool.csrInStart))*4 + int64(len(pool.inFrom))*4 +
		int64(len(pool.idxStart))*8 + int64(len(pool.idxSample))*4
	if got := pool.MemoryBytes(); got < want {
		t.Errorf("MemoryBytes = %d, below the %d bytes of its own backing arrays", got, want)
	}

	est := NewIncrementalPooledEstimatorFromPool(pool, 2)
	before := est.MemoryBytes()
	blocked := make([]bool, g.N())
	dst := make([]float64, g.N())
	copy(dst, est.DecreaseES(blocked))
	if after := est.MemoryBytes(); after <= before {
		t.Errorf("estimator MemoryBytes did not grow after priming (%d -> %d); worker scratch unaccounted", before, after)
	}
}

// exactToySpread scores a blocker mask on the toy graph with the closed-form
// spread (avoids an import cycle with package exact in this white-box test).
func exactToySpread(t *testing.T, blocked []bool) float64 {
	t.Helper()
	// Activation probabilities on the toy graph, given structural blocks,
	// computed by conditional reachability: certain edges except
	// (v5,v8)=0.5, (v9,v8)=0.2, (v8,v7)=0.1.
	reach := func(v5Edge, v9Edge, v8Edge bool) float64 {
		adj := map[graph.V][]graph.V{
			fixture.V1: {fixture.V2, fixture.V4},
			fixture.V2: {fixture.V5},
			fixture.V4: {fixture.V5},
			fixture.V5: {fixture.V3, fixture.V6, fixture.V9},
		}
		if v5Edge {
			adj[fixture.V5] = append(adj[fixture.V5], fixture.V8)
		}
		if v9Edge {
			adj[fixture.V9] = append(adj[fixture.V9], fixture.V8)
		}
		if v8Edge {
			adj[fixture.V8] = append(adj[fixture.V8], fixture.V7)
		}
		seen := map[graph.V]bool{}
		var dfs func(v graph.V)
		dfs = func(v graph.V) {
			if seen[v] || blocked[v] {
				return
			}
			seen[v] = true
			for _, w := range adj[v] {
				dfs(w)
			}
		}
		dfs(fixture.Seed)
		return float64(len(seen))
	}
	total := 0.0
	for _, c := range []struct {
		v5e, v9e, v8e bool
		p             float64
	}{
		{true, true, true, 0.5 * 0.2 * 0.1},
		{true, true, false, 0.5 * 0.2 * 0.9},
		{true, false, true, 0.5 * 0.8 * 0.1},
		{true, false, false, 0.5 * 0.8 * 0.9},
		{false, true, true, 0.5 * 0.2 * 0.1},
		{false, true, false, 0.5 * 0.2 * 0.9},
		{false, false, true, 0.5 * 0.8 * 0.1},
		{false, false, false, 0.5 * 0.8 * 0.9},
	} {
		total += c.p * reach(c.v5e, c.v9e, c.v8e)
	}
	return total
}

func BenchmarkPooledVsFreshRounds(b *testing.B) {
	// Ten greedy-style DecreaseES rounds with growing blocker sets:
	// the pooled variant pays sampling once.
	g := graph.Trivalency.Assign(
		mustGen(b), rng.New(7))
	const theta = 2000
	b.Run("fresh", func(b *testing.B) {
		est := NewEstimator(cascade.NewIC(g), 0)
		delta := make([]float64, g.N())
		blocked := make([]bool, g.N())
		base := rng.New(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for round := 0; round < 10; round++ {
				est.DecreaseES(delta, 0, blocked, theta, base.Split(uint64(round)))
				blocked[round+1] = true
			}
			for round := 0; round < 10; round++ {
				blocked[round+1] = false
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		p := NewPooledEstimator(cascade.NewIC(g), 0, theta, 0, rng.New(8))
		delta := make([]float64, g.N())
		blocked := make([]bool, g.N())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for round := 0; round < 10; round++ {
				p.DecreaseES(delta, blocked)
				blocked[round+1] = true
			}
			for round := 0; round < 10; round++ {
				blocked[round+1] = false
			}
		}
	})
}

// mustGen builds a mid-size structural graph for benches.
func mustGen(b *testing.B) *graph.Graph {
	b.Helper()
	bld := graph.NewBuilder(3000)
	r := rng.New(9)
	for i := 0; i < 12000; i++ {
		bld.AddEdge(graph.V(r.Intn(3000)), graph.V(r.Intn(3000)), 1)
	}
	return bld.Build()
}
