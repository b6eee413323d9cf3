package core

import (
	"sync"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// PooledEstimator is the sample-reuse variant of Algorithm 2 (the
// DESIGN.md §6 "sampling reuse" ablation): it draws the θ live-edge
// samples once into a SamplePool and answers every subsequent DecreaseES
// call — one per greedy round — by re-scanning every stored sample with the
// current blocker set filtered out.
//
// Trade-offs versus the paper's fresh-samples-per-round scheme:
//
//   - no resampling cost after round one (the coin flips and the
//     original-graph adjacency walks are paid once);
//   - common random numbers across rounds: consecutive rounds rank
//     candidates on the same randomness, removing round-to-round sampling
//     noise from the greedy trajectory;
//   - memory proportional to θ × (average sample size);
//   - estimates across rounds are correlated — each round's estimate is
//     still unbiased for G[V\B] because filtering a live-edge sample of G
//     by removing B yields exactly a live-edge sample of G[V\B].
//
// Every round still costs O(θ·m̄) regardless of how little the blocker set
// changed; IncrementalPooledEstimator removes that with delta maintenance
// and is what Options.ReuseSamples actually runs. PooledEstimator remains
// the straight-line reference the incremental path is verified against
// (bit-identical Δ for the same pool) and the ablation baseline in the
// benchmarks.
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

// Pool returns the backing sample pool.
func (p *PooledEstimator) Pool() *SamplePool { return p.pool }

// filterScratch is the reusable per-worker state for restricting a stored
// sample to its non-blocked reachable region and running the dominator
// computation on the result. It is shared by the pooled and incremental
// estimators.
type filterScratch struct {
	dws *dominator.Workspace
	// filtered-sample scratch, stamped per sample
	stamp    []int32
	flocal   []int32
	stampGen int32
	queue    []int32 // stored-local ids
	forig    []graph.V
	eFrom    []int32
	eTo      []int32
	outStart []int32
	outTo    []int32
	inStart  []int32
	inTo     []int32
	fill     []int32
	sizes    []int32
}

func newFilterScratch() filterScratch {
	return filterScratch{dws: dominator.NewWorkspace(0)}
}

// memoryBytes reports the scratch's resident footprint: the filter/CSR
// arrays (grown to the largest sample processed so far) plus the dominator
// workspace. graph.V is int32, so every slice here is 4 bytes per entry.
func (st *filterScratch) memoryBytes() int64 {
	total := st.dws.MemoryBytes() + int64(cap(st.forig))*4
	for _, s := range [][]int32{st.stamp, st.flocal, st.queue, st.eFrom, st.eTo,
		st.outStart, st.outTo, st.inStart, st.inTo, st.fill, st.sizes} {
		total += int64(cap(s)) * 4
	}
	return total
}

type pooledWorker struct {
	filterScratch
	sview sampleView
	acc   []int64
}

func (p *PooledEstimator) worker(w int) *pooledWorker {
	for len(p.scratch) <= w {
		p.scratch = append(p.scratch, &pooledWorker{
			filterScratch: newFilterScratch(),
			acc:           make([]int64, p.pool.g.N()),
		})
	}
	return p.scratch[w]
}

// DecreaseES estimates Δ[u] on G[V\B] for every vertex from the stored
// pool, writing into dst (length ≥ n). Deterministic given the pool.
func (p *PooledEstimator) DecreaseES(dst []float64, blocked []bool) {
	n := p.pool.g.N()
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
				forig, sizes := st.filterAndDominate(&st.sview, blocked)
				for fl := 1; fl < len(forig); fl++ {
					st.acc[forig[fl]] += int64(sizes[fl])
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

// filterAndDominate restricts one stored sample to the non-blocked region
// reachable from the source, runs the dominator computation on it, and
// returns the filtered vertex list (original ids; index 0 = the source)
// together with each vertex's dominator-subtree size. Removing blocked
// vertices from a live-edge sample of G produces a live-edge sample of
// G[V\B], so estimates built on the result stay unbiased for the blocked
// graph. The returned slices alias scratch and are valid until the next
// call.
func (st *filterScratch) filterAndDominate(s *sampleView, blocked []bool) ([]graph.V, []int32) {
	k := len(s.orig)
	st.stamp = growI32(st.stamp, k)
	st.flocal = growI32(st.flocal, k)
	st.stampGen++
	if st.stampGen == 0 {
		for i := range st.stamp {
			st.stamp[i] = -1
		}
		st.stampGen = 1
	}
	st.queue = st.queue[:0]
	st.forig = st.forig[:0]
	st.eFrom = st.eFrom[:0]
	st.eTo = st.eTo[:0]

	// BFS over stored live edges, skipping blocked vertices.
	st.stamp[0] = st.stampGen
	st.flocal[0] = 0
	st.forig = append(st.forig, s.orig[0])
	st.queue = append(st.queue, 0)
	for qi := 0; qi < len(st.queue); qi++ {
		u := st.queue[qi]
		fu := st.flocal[u]
		for j := s.outStart[u]; j < s.outStart[u+1]; j++ {
			v := s.outTo[j]
			if blocked != nil && blocked[s.orig[v]] {
				continue
			}
			var fv int32
			if st.stamp[v] == st.stampGen {
				fv = st.flocal[v]
			} else {
				st.stamp[v] = st.stampGen
				fv = int32(len(st.forig))
				st.flocal[v] = fv
				st.forig = append(st.forig, s.orig[v])
				st.queue = append(st.queue, v)
			}
			st.eFrom = append(st.eFrom, fu)
			st.eTo = append(st.eTo, fv)
		}
	}

	fk := len(st.forig)
	fe := len(st.eFrom)
	st.outStart = growI32(st.outStart, fk+1)
	st.inStart = growI32(st.inStart, fk+1)
	st.outTo = growI32(st.outTo, fe)
	st.inTo = growI32(st.inTo, fe)
	st.fill = growI32(st.fill, fk)
	outStart, inStart := st.outStart[:fk+1], st.inStart[:fk+1]
	outTo, inTo := st.outTo[:fe], st.inTo[:fe]
	fill := st.fill[:fk]
	for i := range outStart {
		outStart[i] = 0
	}
	for i := range inStart {
		inStart[i] = 0
	}
	for i := 0; i < fe; i++ {
		outStart[st.eFrom[i]+1]++
		inStart[st.eTo[i]+1]++
	}
	for i := 0; i < fk; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
	}
	for i := range fill {
		fill[i] = 0
	}
	for i := 0; i < fe; i++ {
		u := st.eFrom[i]
		outTo[outStart[u]+fill[u]] = st.eTo[i]
		fill[u]++
	}
	for i := range fill {
		fill[i] = 0
	}
	for i := 0; i < fe; i++ {
		v := st.eTo[i]
		inTo[inStart[v]+fill[v]] = st.eFrom[i]
		fill[v]++
	}

	fg := dominator.FlowGraph{N: fk, OutStart: outStart, OutTo: outTo, InStart: inStart, InTo: inTo}
	return st.forig, st.runDominators(&fg)
}

// runDominators computes the dominator tree of fg rooted at local 0 and
// returns every vertex's dominator-subtree size (aliasing scratch, valid
// until the next call).
func (st *filterScratch) runDominators(fg *dominator.FlowGraph) []int32 {
	tree := st.dws.SNCA(fg, 0)
	st.sizes = growI32(st.sizes, fg.N)
	sizes := st.sizes[:fg.N]
	st.dws.SubtreeSizes(tree, sizes)
	return sizes
}
