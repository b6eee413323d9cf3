package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Edge blocking: the alternative containment strategy the paper surveys
// (Kimura et al. [13] block links instead of accounts) and a natural
// adaptation target for the dominator-tree estimator. Everything carries
// over through one transform: splitting each live edge e = (u,v) into an
// auxiliary vertex x_e with u→x_e→v turns edge dominators into vertex
// dominators, so the spread decrease of removing e is the weighted size of
// x_e's dominator subtree, counting only real vertices. One sampled graph
// again scores every candidate edge at once.

// EdgeResult reports an edge-blocking run.
type EdgeResult struct {
	// Edges is the selected blocker set (original endpoints and
	// probabilities), in selection order.
	Edges []graph.Edge
	// Runtime is the wall-clock selection time.
	Runtime time.Duration
	// SampledGraphs counts live-edge samples drawn.
	SampledGraphs int64
}

// SolveEdges selects at most b edges whose removal minimizes the expected
// spread from the seed set, using the AdvancedGreedy framework with the
// edge-split estimator. Multi-seed instances are handled with a virtual
// super-source (all original edges stay intact as candidates).
func SolveEdges(g *graph.Graph, seeds []graph.V, b int, opt Options) (EdgeResult, error) {
	opt = opt.withDefaults()
	if b < 0 {
		return EdgeResult{}, fmt.Errorf("core: negative budget %d", b)
	}
	if len(seeds) == 0 {
		return EdgeResult{}, fmt.Errorf("core: empty seed set")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= g.N() {
			return EdgeResult{}, fmt.Errorf("core: seed %d out of range [0,%d)", s, g.N())
		}
	}
	start := time.Now()
	dl := opt.deadline(start)
	base := rng.New(opt.Seed)

	work, super := g.AugmentSuperSource(seeds)
	var chosen []graph.Edge
	var removed [][2]graph.V
	var samples int64

	for round := 0; round < b; round++ {
		if pastDeadline(dl) {
			break
		}
		est := newEdgeEstimator(work, super, opt)
		delta := make([]float64, work.M())
		est.decreaseES(delta, opt.Theta, base.Split(uint64(round)))
		samples += int64(opt.Theta)

		bestIdx := -1
		for idx := range delta {
			e := work.EdgeAt(idx)
			if e.From == super {
				continue // synthetic seed edges are not blockable
			}
			if bestIdx == -1 || delta[idx] > delta[bestIdx] {
				bestIdx = idx
			}
		}
		if bestIdx == -1 {
			break
		}
		e := work.EdgeAt(bestIdx)
		chosen = append(chosen, graph.Edge{From: e.From, To: e.To, P: e.P})
		removed = append(removed, [2]graph.V{e.From, e.To})
		work = work.RemoveEdges(removed[len(removed)-1:])
	}
	return EdgeResult{Edges: chosen, Runtime: time.Since(start), SampledGraphs: samples}, nil
}

// edgeEstimator scores every edge of one working graph; it is rebuilt per
// greedy round because edge removal changes the graph.
type edgeEstimator struct {
	g       *graph.Graph
	src     graph.V
	sampler cascade.LiveSampler
	workers int
}

func newEdgeEstimator(g *graph.Graph, src graph.V, opt Options) *edgeEstimator {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var sampler cascade.LiveSampler
	if opt.Diffusion == DiffusionLT {
		sampler = cascade.NewLT(g)
	} else {
		sampler = cascade.NewIC(g)
	}
	return &edgeEstimator{g: g, src: src, sampler: sampler, workers: workers}
}

// decreaseES fills dst[i] (global out-CSR edge index) with the estimated
// spread decrease from removing edge i, averaged over theta samples.
func (e *edgeEstimator) decreaseES(dst []float64, theta int, base *rng.Source) {
	workers := e.workers
	if workers > theta {
		workers = theta
	}
	m := e.g.M()
	accs := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := theta / workers
		if w < theta%workers {
			share++
		}
		r := base.Split(uint64(w))
		acc := make([]int64, m)
		accs[w] = acc
		wg.Add(1)
		go func(share int, r *rng.Source, acc []int64) {
			defer wg.Done()
			cws := e.sampler.NewWorkspace()
			k := newSampleKernel()
			for i := 0; i < share; i++ {
				e.accumulateOne(cws, &k, r, acc)
			}
		}(share, r, acc)
	}
	wg.Wait()
	inv := 1 / float64(theta)
	for i := 0; i < m; i++ {
		total := int64(0)
		for w := 0; w < workers; w++ {
			total += accs[w][i]
		}
		dst[i] = float64(total) * inv
	}
}

// accumulateOne draws one sample, edge-splits it, and accumulates weighted
// dominator-subtree sizes per original edge.
func (e *edgeEstimator) accumulateOne(cws *cascade.Workspace, k *sampleKernel, r *rng.Source, acc []int64) {
	sg := e.sampler.Sample(e.src, nil, r, cws)
	sizes := k.dominateSplit(sg)
	// Live edge j runs from local u to sg.OutTo[j]; its edge-vertex is N+j.
	for u := 0; u < sg.N; u++ {
		origU := sg.Orig[u]
		for j := sg.OutStart[u]; j < sg.OutStart[u+1]; j++ {
			idx := e.g.OutEdgeIndex(origU, sg.Orig[sg.OutTo[j]])
			if idx >= 0 {
				acc[idx] += int64(sizes[int32(sg.N)+j])
			}
		}
	}
}
