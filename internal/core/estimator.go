// Package core implements the paper's contribution: the sampled-graph +
// dominator-tree estimator of per-vertex spread decrease (Algorithm 2) and
// the blocker-selection algorithms built on it — AdvancedGreedy
// (Algorithm 3) and GreedyReplace (Algorithm 4) — together with the
// baselines they are evaluated against: BaselineGreedy (Algorithm 1, the
// prior state of the art), Rand, and OutDegree.
//
// All algorithms operate on a single-source instance; a multi-seed problem
// is reduced to one with a super-seed (Section V), held as a
// graph.SeedView of the caller's graph rather than a copy (solve.go).
package core

import (
	"runtime"
	"sync"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Estimator implements DecreaseESComputation (Algorithm 2): it estimates,
// for every candidate vertex u at once, the decrease of expected spread
// Δ[u] = E({s},G) − E({s},G[V\{u}]) by averaging the size of u's dominator
// subtree over θ live-edge sampled graphs (Theorems 4 and 6).
//
// An Estimator is bound to one sampler (hence one graph and diffusion
// model). It is not safe for concurrent DecreaseES calls, but a single call
// parallelizes internally over Workers goroutines. Worker scratch space is
// cached across calls, so the b rounds of a greedy run allocate only once.
type Estimator struct {
	sampler cascade.LiveSampler
	workers int
	scratch []*estWorker
}

type estWorker struct {
	cws *cascade.Workspace
	sampleKernel
	acc []int64 // acc[u] = Σ over samples of subtree size of u
}

// NewEstimator returns an Estimator over the sampler's graph. workers <= 0
// selects GOMAXPROCS.
func NewEstimator(sampler cascade.LiveSampler, workers int) *Estimator {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Estimator{sampler: sampler, workers: workers}
}

// SetWorkers changes the fan-out of later DecreaseES calls; workers <= 0
// selects GOMAXPROCS. Scratch for new workers is allocated lazily, scratch
// beyond the new count is kept (sessions bounce between worker counts).
// Unlike the pooled estimators, the fresh estimator's output depends on the
// worker count: each worker draws from its own rng stream, so w workers
// partition θ differently than w′ would. Equal (Seed, Theta, workers)
// still reproduce exactly. Must not be called during a DecreaseES call.
func (e *Estimator) SetWorkers(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e.workers = workers
}

// worker returns the cached scratch state for worker w, allocating on first
// use.
func (e *Estimator) worker(w int) *estWorker {
	for len(e.scratch) <= w {
		n := e.sampler.N()
		e.scratch = append(e.scratch, &estWorker{
			cws:          e.sampler.NewWorkspace(),
			sampleKernel: newSampleKernel(),
			acc:          make([]int64, n),
		})
	}
	return e.scratch[w]
}

// DecreaseES estimates Δ[u] for every vertex u of the sampler's id space
// with θ sampled graphs, treating blocked vertices as removed (so it
// estimates on G[V\B]); on a seed view blocked marks the seeds too (see
// cascade.LiveSampler). The result is written into dst, which must have
// length ≥ n, the sampler's N; dst[src] and
// dst of blocked vertices are 0. The estimate is deterministic for a fixed
// (base seed, workers) pair.
//
// Cost: per sample, one Semi-NCA dominator-tree run over the m' live edges
// of the sampled reachable region (near-linear in m' in practice) plus one
// tree scan — θ of each per call.
func (e *Estimator) DecreaseES(dst []float64, src graph.V, blocked []bool, theta int, base *rng.Source) {
	if theta <= 0 {
		panic("core: DecreaseES with non-positive theta")
	}
	n := e.sampler.N()
	if len(dst) < n {
		panic("core: DecreaseES dst too short")
	}

	workers := e.workers
	if workers > theta {
		workers = theta
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := theta / workers
		if w < theta%workers {
			share++
		}
		st := e.worker(w)
		r := base.Split(uint64(w))
		wg.Add(1)
		go func(st *estWorker, share int, r *rng.Source) {
			defer wg.Done()
			for i := range st.acc[:n] {
				st.acc[i] = 0
			}
			for i := 0; i < share; i++ {
				e.accumulateOne(st, src, blocked, r)
			}
		}(st, share, r)
	}
	wg.Wait()

	inv := 1 / float64(theta)
	for u := 0; u < n; u++ {
		total := int64(0)
		for w := 0; w < workers; w++ {
			total += e.scratch[w].acc[u]
		}
		dst[u] = float64(total) * inv
	}
	dst[src] = 0
}

// accumulateOne draws one sampled graph, builds its dominator tree, and adds
// every vertex's subtree size into the worker accumulator (one iteration of
// Algorithm 2's outer loop). The sampler already left blocked vertices out.
func (e *Estimator) accumulateOne(st *estWorker, src graph.V, blocked []bool, r *rng.Source) {
	s := e.sampler.Sample(src, blocked, r, st.cws)
	sizes := st.dominate(s, nil)
	// Local id 0 is the source; it is never a candidate blocker.
	for local := 1; local < len(sizes); local++ {
		st.acc[s.Orig[local]] += int64(sizes[local])
	}
}

// Sampler returns the underlying live-edge sampler.
func (e *Estimator) Sampler() cascade.LiveSampler { return e.sampler }
