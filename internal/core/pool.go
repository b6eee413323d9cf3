package core

import (
	"context"
	"runtime"
	"sync"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// SamplePool holds θ live-edge samples of one (graph, source, diffusion)
// triple in a single contiguous arena, plus a per-vertex inverted index.
//
// The arena replaces the ~3θ separate heap slices of the original pooled
// storage with five flat backing arrays and per-sample offsets: sample
// construction stops paying one allocation trio per sample, the garbage
// collector sees O(1) pointers instead of O(θ), and the incremental
// estimator's per-round scans walk memory sequentially.
//
// The inverted index answers "which samples contain vertex v" in O(1) + the
// answer size — the sparsity that IncrementalPooledEstimator exploits:
// blocking v can only change the dominator computation of samples whose
// reachable region contains v.
//
// A pool is immutable after construction and safe for concurrent readers;
// it can back any number of estimators (each estimator carries its own
// mutable state).
type SamplePool struct {
	n   int // the sampler's id-space size: every vertex id is below it
	src graph.V

	// base is a copy of the rng source the pool was drawn from: sample i is
	// the stream base.Split(i). Split never advances the parent, so the copy
	// stays forever at the construction-time state — which is what lets
	// Repair redraw any single sample bit-identically to a from-scratch pool
	// at the same seed.
	base rng.Source

	// Arena layout: sample i's vertex list (local id 0 = source, values are
	// original-graph ids) is vertOrig[vertStart[i]:vertStart[i+1]]; its
	// out-CSR offsets (relative to the sample's own edge slice) are the
	// K_i+1 entries of csrStart beginning at vertStart[i]+i; its live-edge
	// targets, in sample-local ids, are edgeTo[edgeStart[i]:edgeStart[i+1]].
	// The predecessor CSR (csrInStart/inFrom, same layout) is kept too, so
	// every sample feeds the dominator computation directly from the arena
	// (SNCA masks the blocked vertices) with no CSR rebuild.
	vertStart  []int64
	edgeStart  []int64
	vertOrig   []graph.V
	csrStart   []int32
	edgeTo     []int32
	csrInStart []int32
	inFrom     []int32

	// Inverted index in CSR form: the ids of the samples whose vertex set
	// contains v are idxSample[idxStart[v]:idxStart[v+1]], ascending. Every
	// sample contains the source, so idxSample holds one entry per
	// (sample, reached vertex) pair — exactly len(vertOrig) entries.
	idxStart  []int64
	idxSample []int32
}

// poolWorkers resolves the worker count for pool construction and scans the
// same way the estimators do, so a pool built with Options.Workers w is
// bit-identical to the pre-arena pooled storage with the same w.
func poolWorkers(workers, theta int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > theta {
		workers = theta
	}
	return workers
}

// drawShard is one worker's private contiguous buffer of drawn samples.
// NewSamplePool and Repair both stitch their arenas out of these, through
// the single appendSample body — the append order defines the arena byte
// layout, so sharing it is what keeps the two construction paths
// bit-identical by construction.
type drawShard struct {
	orig  []graph.V
	csr   []int32
	to    []int32
	inCSR []int32
	from  []int32
	ks    []int32 // per-sample vertex counts
	es    []int32 // per-sample edge counts
}

// appendSample copies one sampled graph into the shard buffers.
func (sh *drawShard) appendSample(sg *cascade.SampledGraph) {
	sh.orig = append(sh.orig, sg.Orig...)
	sh.csr = append(sh.csr, sg.OutStart...)
	sh.to = append(sh.to, sg.OutTo...)
	sh.inCSR = append(sh.inCSR, sg.InStart...)
	sh.from = append(sh.from, sg.InTo...)
	sh.ks = append(sh.ks, int32(sg.N))
	sh.es = append(sh.es, int32(len(sg.OutTo)))
}

// NewSamplePool draws theta live-edge samples from the sampler into a fresh
// arena and builds the inverted index. workers <= 0 selects GOMAXPROCS. The
// pool content is deterministic in base alone: sample i is always drawn
// from the stream base.Split(i), regardless of the worker count, so pools
// built at different parallelism are byte-identical — the property that
// lets a warm session keep its cached pools when a request asks for a
// different worker count, and that makes ReuseSamples solves reproducible
// across machines with different core counts.
func NewSamplePool(sampler cascade.LiveSampler, src graph.V, theta, workers int, base *rng.Source) *SamplePool {
	p, _ := drawSamplePool(context.Background(), sampler, src, theta, workers, base)
	return p
}

// drawCheckEvery is the most samples a drawing worker takes between two
// looks at the context.
const drawCheckEvery = 2000

// drawSamplePool is NewSamplePool that gives up when ctx is canceled: each
// worker checks ctx before every drawCheckEvery-th sample of its range, and
// a canceled draw returns ctx.Err() and no pool.
func drawSamplePool(ctx context.Context, sampler cascade.LiveSampler, src graph.V, theta, workers int, base *rng.Source) (*SamplePool, error) {
	workers = poolWorkers(workers, theta)

	// Each worker appends its range of samples into private contiguous
	// shards; the shards are then stitched into the final arena with one
	// parallel copy. Sampling dominates, the copy is one sequential pass.
	shards := make([]drawShard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * theta / workers
		hi := (w + 1) * theta / workers
		wg.Add(1)
		go func(sh *drawShard, lo, hi int) {
			defer wg.Done()
			ws := sampler.NewWorkspace()
			for i := lo; i < hi; i++ {
				if (i-lo)%drawCheckEvery == 0 && ctx.Err() != nil {
					return
				}
				// Split reads the parent state without mutating it, so
				// concurrent per-sample derivation is race-free.
				sh.appendSample(sampler.Sample(src, nil, base.Split(uint64(i)), ws))
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	p := &SamplePool{
		n:         sampler.N(),
		src:       src,
		base:      *base,
		vertStart: make([]int64, theta+1),
		edgeStart: make([]int64, theta+1),
	}
	var tv, te int64
	i := 0
	for w := range shards {
		for j := range shards[w].ks {
			p.vertStart[i] = tv
			p.edgeStart[i] = te
			tv += int64(shards[w].ks[j])
			te += int64(shards[w].es[j])
			i++
		}
	}
	p.vertStart[theta] = tv
	p.edgeStart[theta] = te
	p.vertOrig = make([]graph.V, tv)
	p.csrStart = make([]int32, tv+int64(theta))
	p.edgeTo = make([]int32, te)
	p.csrInStart = make([]int32, tv+int64(theta))
	p.inFrom = make([]int32, te)
	for w := range shards {
		lo := w * theta / workers
		sh := &shards[w]
		wg.Add(1)
		go func(sh *drawShard, lo int) {
			defer wg.Done()
			vs, es := p.vertStart[lo], p.edgeStart[lo]
			copy(p.vertOrig[vs:], sh.orig)
			copy(p.csrStart[vs+int64(lo):], sh.csr)
			copy(p.edgeTo[es:], sh.to)
			copy(p.csrInStart[vs+int64(lo):], sh.inCSR)
			copy(p.inFrom[es:], sh.from)
		}(sh, lo)
	}
	wg.Wait()

	p.buildIndex(workers)
	return p, nil
}

// buildIndex fills the vertex → sample-ids CSR by counting sort over the
// vertex arena. Sample ids come out ascending per vertex. The sort runs on
// the same worker ranges as sampling: worker w counts and fills the entries
// of its own sample range, offset by the counts of earlier workers, so the
// per-vertex ordering — ascending sample ids — is identical to the serial
// sort for every worker count.
func (p *SamplePool) buildIndex(workers int) {
	n := p.n
	theta := p.Theta()
	if workers > theta {
		workers = theta
	}
	if workers < 1 {
		workers = 1
	}

	// Count per (worker, vertex): each worker scans only its sample range.
	counts := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*theta/workers, (w+1)*theta/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			c := make([]int64, n)
			for _, v := range p.vertOrig[p.vertStart[lo]:p.vertStart[hi]] {
				c[v]++
			}
			counts[w] = c
		}(w, lo, hi)
	}
	wg.Wait()

	// Prefix over vertices (and, inside each vertex, over workers): after
	// this pass counts[w][v] is the absolute write offset of worker w's
	// first entry for vertex v.
	p.idxStart = make([]int64, n+1)
	for v := 0; v < n; v++ {
		at := p.idxStart[v]
		for w := 0; w < workers; w++ {
			c := counts[w][v]
			counts[w][v] = at
			at += c
		}
		p.idxStart[v+1] = at
	}

	p.idxSample = make([]int32, len(p.vertOrig))
	for w := 0; w < workers; w++ {
		lo, hi := w*theta/workers, (w+1)*theta/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			next := counts[w]
			for i := lo; i < hi; i++ {
				for _, v := range p.vertOrig[p.vertStart[i]:p.vertStart[i+1]] {
					p.idxSample[next[v]] = int32(i)
					next[v]++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
}

// Theta returns the number of stored samples.
func (p *SamplePool) Theta() int { return len(p.vertStart) - 1 }

// Source returns the source vertex the samples were drawn from.
func (p *SamplePool) Source() graph.V { return p.src }

// view fills sg with sample i as borrowed arena slices, in the form the
// sampler produced it (local 0 = source). sg must not be built into: its
// arrays are the pool's.
func (p *SamplePool) view(i int, sg *cascade.SampledGraph) {
	vs, ve := p.vertStart[i], p.vertStart[i+1]
	cs := vs + int64(i)
	es, ee := p.edgeStart[i], p.edgeStart[i+1]
	sg.Orig = p.vertOrig[vs:ve]
	sg.N = int(ve - vs)
	sg.OutStart = p.csrStart[cs : cs+(ve-vs)+1]
	sg.OutTo = p.edgeTo[es:ee]
	sg.InStart = p.csrInStart[cs : cs+(ve-vs)+1]
	sg.InTo = p.inFrom[es:ee]
}

// SamplesContaining returns the ascending ids of the samples whose reachable
// region contains v. The slice aliases pool storage: do not modify it.
func (p *SamplePool) SamplesContaining(v graph.V) []int32 {
	return p.idxSample[p.idxStart[v]:p.idxStart[v+1]]
}

// reachScratch is reached's scratch, kept across calls.
type reachScratch struct {
	walked []bool  // per sample: walked in this call already
	ids    []int32 // the samples marked in walked, to unmark them
	seen   []bool  // per local id of the sample being walked
	queue  []int32
}

// reached sums, over the pool's first rounds samples, the vertices that
// stay reachable from the source once the vertices marked in blocked are
// deleted; blockers lists the marked vertices. Deleting B from a live-edge
// sample of G leaves a live-edge sample of G[V\B], so the sum divided by
// rounds estimates the spread on G[V\B] (Lemma 1). Only the samples that
// contain a blocker are walked; every other sample keeps all its vertices.
func (p *SamplePool) reached(rounds int, blockers []graph.V, blocked []bool, sc *reachScratch) int64 {
	total := p.vertStart[rounds]
	if cap(sc.walked) < rounds {
		sc.walked = make([]bool, rounds)
	}
	walked := sc.walked[:rounds]
	sc.ids = sc.ids[:0]
	for _, b := range blockers {
		for _, i := range p.SamplesContaining(b) {
			if int(i) >= rounds {
				break // ids ascend
			}
			if walked[i] {
				continue
			}
			walked[i] = true
			sc.ids = append(sc.ids, i)
			total -= p.vertStart[i+1] - p.vertStart[i] - p.unblockedReach(int(i), blocked, sc)
		}
	}
	for _, i := range sc.ids {
		walked[i] = false
	}
	return total
}

// unblockedReach counts the vertices of sample i that a BFS from local 0
// reaches without entering a vertex marked in blocked.
func (p *SamplePool) unblockedReach(i int, blocked []bool, sc *reachScratch) int64 {
	var sg cascade.SampledGraph
	p.view(i, &sg)
	if cap(sc.seen) < sg.N {
		sc.seen = make([]bool, sg.N)
	}
	seen := sc.seen[:sg.N]
	clear(seen)
	seen[0] = true
	queue := append(sc.queue[:0], 0)
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, v := range sg.OutTo[sg.OutStart[u]:sg.OutStart[u+1]] {
			if !seen[v] && !blocked[sg.Orig[v]] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	sc.queue = queue
	return int64(len(queue))
}

// MemoryBytes reports the pool's resident footprint — every backing array,
// at capacity — for capacity planning, /stats, and benchcore's pool_bytes.
func (p *SamplePool) MemoryBytes() int64 {
	return int64(cap(p.vertStart))*8 + int64(cap(p.edgeStart))*8 +
		int64(cap(p.vertOrig))*4 + int64(cap(p.csrStart))*4 + int64(cap(p.edgeTo))*4 +
		int64(cap(p.csrInStart))*4 + int64(cap(p.inFrom))*4 +
		int64(cap(p.idxStart))*8 + int64(cap(p.idxSample))*4
}
