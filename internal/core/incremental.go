package core

import (
	"sync"
	"sync/atomic"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
)

// IncrementalPooledEstimator is the sample-reuse variant of Algorithm 2
// (Options.ReuseSamples): it wraps a SamplePool of θ live-edge samples,
// drawn once, and answers every DecreaseES call — one per greedy round —
// from that pool with the current blocker set filtered out. Filtering a
// live-edge sample of G by removing B yields a live-edge sample of G[V\B],
// so each round stays unbiased; rounds share randomness (common random
// numbers), and memory grows with θ × (average sample size).
//
// Rounds are delta-maintained and shard-parallel. Blocking (or
// unblocking) a vertex x can only change the filtered dominator
// computation of samples whose reachable region contains x, so instead of
// re-scanning all θ samples every round it
//
//  1. diffs the requested blocker set against the one the cache reflects,
//  2. collects the dirty samples through the pool's inverted index into a
//     staging list, grouped into one contiguous batch per worker shard,
//  3. has the workers re-run the filtered dominator computation of the
//     dirty samples and fold each vertex's change against its cached
//     subtree-size contribution — each worker into its own
//     cache-line-aligned int64 accumulator, stealing batch chunks from
//     overloaded shards once its own batch is drained,
//  4. refreshes the cached Δ vector at exactly the touched vertices by a
//     range-partitioned parallel reduction over the worker accumulators.
//
// A round therefore costs O(θ_x·m̄/P + t) where θ_x is the number of
// samples containing the flipped vertices — on real graphs a small
// fraction of θ — P the worker count, and t the number of touched
// vertices, against O(θ·m̄) for re-scanning the pool.
//
// Sharding and stealing: the θ samples are partitioned into P contiguous
// ranges; shard s is handed the batch of dirty samples it owns at the start
// of each round. Worker s drains its own batch first (cache locality: a
// shard's samples are adjacent in the arena), then claims fixed-size chunks
// from the fullest remaining batch through that shard's atomic cursor — the
// only cross-worker write target of the phase, padded onto its own cache
// line. A stolen sample's contributions land in the THIEF's accumulator,
// not the owner's: correctness needs only the invariant that
// Σ_s acc_s[u] equals the sum of u's cached contributions over all samples,
// and exact int64 addition makes that sum independent of which accumulator
// holds which part. The contribution arena is sample-disjoint, and each
// claimed chunk has exactly one processor, so the phase is race-free.
//
// Equivalence and P-independence: contributions are exact int64 values and
// Σ_s acc_s[u] is invariant under both the partition and the steal
// schedule, so DecreaseES output is bit-identical to a full re-scan of
// the same pool for every blocker sequence, every worker count, and every
// interleaving — workers=1 and workers=8 return the same bits (the
// cross-validation and determinism tests assert this). The estimator
// carries mutable state and admits one DecreaseES caller at a time, like
// Estimator; the state survives across solves, so a warm session's later
// runs on the same pool only reprocess samples touched by the previous
// run's blockers. SetWorkers reshards without touching the pool or the
// contribution cache.
type IncrementalPooledEstimator struct {
	pool    *SamplePool
	workers int // requested; len(shards) is the clamped effective count

	primed      bool
	prevBlocked []bool    // blocker set the cache reflects
	vals        []float64 // vals[u] = float64(Σ_s acc_s[u])/θ, maintained at touched entries

	// Per-sample contribution cache mirroring the pool's vertex arena:
	// contribSize[pool.vertStart[i]+l] is the subtree size sample i last
	// folded in for its local vertex l, whose original id is
	// pool.vertOrig at the same offset; it is 0 for the source and for a
	// vertex blocked or cut off. Slots of distinct samples are disjoint, so
	// workers recompute dirty samples in parallel. The cache is
	// partition-independent state: resharding reuses it to rebuild the new
	// shard accumulators.
	contribSize []int32

	shards  []*incShard
	ownerOf []int32 // sample id → owning shard index

	// Dirty staging: markDirty appends to dirtyList (deduped by dirtyMark)
	// in encounter order; at the start of each round the list is grouped by
	// owning shard into batchBuf — one contiguous batch per shard, handed
	// over in a single slice assignment instead of per-sample queue
	// appends. The staging list is shard-layout-independent, so pending
	// dirty samples (queued by RepairPool between rounds) survive a
	// SetWorkers reshard in place.
	dirtyMark []bool  // dedup over samples, cleared after each round
	dirtyList []int32 // staged dirty samples for the next round
	batchBuf  []int32 // round scratch: dirtyList grouped by owner
	batchCnt  []int32 // round scratch: per-shard batch boundaries
	batchPos  []int32 // round scratch: per-shard fill cursors

	union      []graph.V   // serial-reduction union scratch
	unionParts [][]graph.V // parallel-reduction per-range segments
	unionMark  []bool

	rounds      int64 // DecreaseES calls answered
	reprocessed int64 // dirty samples recomputed across all rounds
	stolenPast  int64 // steals folded in from shards retired by reshard
}

// incShard is one worker's persistent state: the contiguous sample range it
// owns, its cache-line-aligned accumulator and touched-mark arrays, and the
// scratch for re-running filtered dominator computations. During the
// parallel phase a worker writes only its own fields plus the
// (sample-disjoint) contribution arena — except the claim cursors, which
// are the designed cross-worker handoff point.
type incShard struct {
	lo, hi int // owned sample range [lo, hi)
	sampleKernel
	sview   cascade.SampledGraph // pool view of the sample being processed
	acc     []int64              // acc[u] = Σ of cached subtree sizes this worker folded in; cache-line-aligned
	marked  []bool               // dedup for touched; cache-line-aligned
	touched []graph.V            // vertices whose acc changed this round
	batch   []int32              // this round's owned dirty batch (aliases batchBuf)

	// stolen counts the dirty samples this worker claimed from other
	// shards' batches; only this shard's worker goroutine writes it.
	stolen int64

	// cur is the claim cursor into batch: every worker that takes a chunk
	// (the owner included) bumps it. It is the one word of this struct that
	// other workers write during the parallel phase, so it gets a cache
	// line of its own — without the padding, a steal would invalidate the
	// owner's adjacent hot fields on every claim.
	_   [cacheLine]byte
	cur atomic.Int64
	_   [cacheLine - 8]byte
}

// add folds one contribution delta into the worker accumulator, recording
// the vertex for the reduction phase.
func (sh *incShard) add(v graph.V, d int64) {
	if !sh.marked[v] {
		sh.marked[v] = true
		sh.touched = append(sh.touched, v)
	}
	sh.acc[v] += d
}

// NewIncrementalPooledEstimatorFromPool wraps an existing (possibly shared)
// pool, such as one NewSamplePool draws. workers <= 0 selects GOMAXPROCS.
// The estimator's first DecreaseES call processes every sample to prime
// the accumulators; later calls are incremental.
func NewIncrementalPooledEstimatorFromPool(pool *SamplePool, workers int) *IncrementalPooledEstimator {
	n := pool.n
	tv := pool.vertStart[pool.Theta()]
	e := &IncrementalPooledEstimator{
		pool:        pool,
		prevBlocked: make([]bool, n),
		vals:        make([]float64, n),
		contribSize: make([]int32, tv),
		ownerOf:     make([]int32, pool.Theta()),
		dirtyMark:   make([]bool, pool.Theta()),
		unionMark:   make([]bool, n),
	}
	e.reshard(workers)
	return e
}

// Pool returns the backing sample pool.
func (e *IncrementalPooledEstimator) Pool() *SamplePool { return e.pool }

// Workers returns the requested worker count (0 = GOMAXPROCS at reshard
// time, clamped to θ).
func (e *IncrementalPooledEstimator) Workers() int { return e.workers }

// SetWorkers re-partitions the samples across the new worker count. The
// pool, the contribution cache, and the cached Δ vector are untouched —
// only the shard accumulators are rebuilt (one pass over the cached
// contributions) — so a warm session can serve requests at different
// worker counts without re-drawing or re-priming anything, and the output
// stays bit-identical: Σ_s acc_s is invariant under the partition. No-op
// when the effective shard count is unchanged. Must not be called
// concurrently with DecreaseES.
func (e *IncrementalPooledEstimator) SetWorkers(workers int) {
	if poolWorkers(workers, e.pool.Theta()) == len(e.shards) {
		e.workers = workers
		return
	}
	e.reshard(workers)
}

// reshard builds the shard set for the clamped worker count and, if the
// estimator is primed, re-aggregates the per-sample contribution cache into
// the new owners' accumulators. The staged dirty list is shard-independent
// and survives in place; the touched-vertex marks of contributions
// RepairPool retracted between rounds are carried over, so a worker change
// between a pool repair and the next DecreaseES loses nothing.
func (e *IncrementalPooledEstimator) reshard(workers int) {
	var pendingTouched []graph.V
	for _, sh := range e.shards {
		pendingTouched = append(pendingTouched, sh.touched...)
		e.stolenPast += sh.stolen
	}
	e.workers = workers
	theta := e.pool.Theta()
	n := e.pool.n
	p := poolWorkers(workers, theta)
	e.shards = make([]*incShard, p)
	for s := 0; s < p; s++ {
		sh := &incShard{
			lo:           s * theta / p,
			hi:           (s + 1) * theta / p,
			sampleKernel: newSampleKernel(),
			acc:          alignedInt64(n),
			marked:       alignedBools(n),
		}
		e.shards[s] = sh
		for i := sh.lo; i < sh.hi; i++ {
			e.ownerOf[i] = int32(s)
		}
	}
	// Touched marks exist only to drive the next round's Δ-vector refresh;
	// any shard's list feeds the same union, so they all land on shard 0.
	sh0 := e.shards[0]
	for _, v := range pendingTouched {
		if !sh0.marked[v] {
			sh0.marked[v] = true
			sh0.touched = append(sh0.touched, v)
		}
	}
	if !e.primed {
		return
	}
	for i := 0; i < theta; i++ {
		acc := e.shards[e.ownerOf[i]].acc
		for j := e.pool.vertStart[i]; j < e.pool.vertStart[i+1]; j++ {
			acc[e.pool.vertOrig[j]] += int64(e.contribSize[j])
		}
	}
}

// DecreaseES estimates Δ[u] on G[V\B] for every vertex from the stored
// pool. Output is bit-identical to a full re-scan of the same pool; only
// samples containing a vertex whose blocked state changed since the
// previous call are re-processed. The changed vertices are found by
// diffing blocked against the previous call's set; callers that track
// their own mutations can hand them over through DecreaseESFlips and skip
// the O(n) diff. The returned slice is the estimator's maintained Δ
// vector, read-only and valid until the next call: the greedy argmax scans
// read it in place, so a round pays no O(n) copy.
func (e *IncrementalPooledEstimator) DecreaseES(blocked []bool) []float64 {
	return e.decreaseES(blocked, nil, false)
}

// DecreaseESFlips is DecreaseES with the exact set of vertices whose
// blocked state changed since the previous call, as known by the caller
// (the greedy loops flip one or two vertices per round). flips may contain
// duplicates; a vertex flipped twice (net no-op) only costs wasted
// reprocessing. An incomplete flips list silently corrupts the cache, so
// callers must report every mutation. Ignored (full scan) before priming.
func (e *IncrementalPooledEstimator) DecreaseESFlips(blocked []bool, flips []graph.V) []float64 {
	return e.decreaseES(blocked, flips, true)
}

// smallRoundInline is the dirty-sample count under which the round runs on
// the calling goroutine: spawning and joining shard goroutines costs more
// than a few dozen tiny dominator runs. The serial path walks the batches
// in fixed shard order, so the output bits do not depend on which path
// ran.
const smallRoundInline = 32

// stealChunk is the number of dirty samples a worker claims per cursor
// bump. Large enough to amortize the atomic (and keep stolen samples
// arena-adjacent), small enough that a skewed batch spreads across every
// idle worker.
const stealChunk = 8

// markDirty stages sample i for the next round, once.
func (e *IncrementalPooledEstimator) markDirty(i int32) {
	if !e.dirtyMark[i] {
		e.dirtyMark[i] = true
		e.dirtyList = append(e.dirtyList, i)
	}
}

func (e *IncrementalPooledEstimator) decreaseES(blocked []bool, flips []graph.V, haveFlips bool) []float64 {
	n := e.pool.n
	theta := e.pool.Theta()
	e.rounds++

	// Phase 0 (serial): stage the round's dirty samples.
	switch {
	case !e.primed:
		for i := 0; i < theta; i++ {
			e.dirtyMark[i] = true
			e.dirtyList = append(e.dirtyList, int32(i))
		}
		e.primed = true
		if blocked == nil {
			for v := range e.prevBlocked {
				e.prevBlocked[v] = false
			}
		} else {
			copy(e.prevBlocked, blocked[:n])
		}
	case haveFlips:
		for _, v := range flips {
			nb := blocked != nil && blocked[v]
			if nb == e.prevBlocked[v] {
				continue // duplicate flip, net no-op
			}
			e.prevBlocked[v] = nb
			for _, i := range e.pool.SamplesContaining(v) {
				e.markDirty(i)
			}
		}
	default:
		for v := 0; v < n; v++ {
			nb := blocked != nil && blocked[v]
			if nb == e.prevBlocked[v] {
				continue
			}
			e.prevBlocked[v] = nb
			for _, i := range e.pool.SamplesContaining(graph.V(v)) {
				e.markDirty(i)
			}
		}
	}
	nDirty := len(e.dirtyList)
	if nDirty == 0 {
		return e.vals
	}
	e.reprocessed += int64(nDirty)

	// Batch handoff (serial): group the staged list by owning shard with a
	// stable counting sort — one contiguous batch per shard, assigned in a
	// single slice header write instead of per-sample queue appends that
	// would dirty every shard's slice header cache line from this
	// goroutine.
	p := len(e.shards)
	if cap(e.batchBuf) < nDirty {
		e.batchBuf = make([]int32, nDirty)
	}
	batch := e.batchBuf[:nDirty]
	if cap(e.batchCnt) < p+1 {
		e.batchCnt = make([]int32, p+1)
		e.batchPos = make([]int32, p+1)
	}
	cnt := e.batchCnt[:p+1]
	for s := range cnt {
		cnt[s] = 0
	}
	for _, i := range e.dirtyList {
		cnt[e.ownerOf[i]+1]++
	}
	for s := 1; s <= p; s++ {
		cnt[s] += cnt[s-1]
	}
	pos := e.batchPos[:p+1]
	copy(pos, cnt)
	for _, i := range e.dirtyList {
		s := e.ownerOf[i]
		batch[pos[s]] = i
		pos[s]++
	}
	for s, sh := range e.shards {
		sh.batch = batch[cnt[s]:cnt[s+1]]
		sh.cur.Store(0)
	}

	// Phase 1: workers drain the batches — own shard first, then chunks
	// stolen from the fullest remaining batch. Tiny rounds run inline, in
	// shard order; the result is the same either way because every
	// schedule folds the same exact integers.
	parallel := p > 1 && nDirty > smallRoundInline
	if parallel {
		var wg sync.WaitGroup
		for w := range e.shards {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				e.runWorker(w, blocked)
			}(w)
		}
		wg.Wait()
	} else {
		for _, sh := range e.shards {
			e.processInto(sh, sh.batch, blocked)
		}
	}

	// Phase 2: refresh the cached Δ vector at exactly the touched
	// vertices, clear the marks, and drain the round's staging. vals[u] =
	// float64(Σ_s acc_s[u])·θ⁻¹ — the same expression a full re-scan
	// evaluates, with the shard sum combined pairwise (sumAcc); int64
	// addition is exact, so the association is immaterial to the bits.
	// Large rounds run the reduction range-partitioned in parallel:
	// reducer r owns vertex range [r·n/R, (r+1)·n/R) and is the only
	// goroutine that touches marks, union entries, or vals inside it, so
	// the dedup needs no synchronization and the output cannot depend on
	// scheduling.
	totTouched := 0
	for _, sh := range e.shards {
		totTouched += len(sh.touched)
	}
	inv := 1 / float64(theta)
	if parallel && totTouched > 4*smallRoundInline {
		if cap(e.unionParts) < p {
			e.unionParts = append(e.unionParts, make([][]graph.V, p-len(e.unionParts))...)
		}
		parts := e.unionParts[:p]
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				vlo, vhi := graph.V(r*n/p), graph.V((r+1)*n/p)
				part := parts[r][:0]
				for _, sh := range e.shards {
					for _, v := range sh.touched {
						if v < vlo || v >= vhi {
							continue
						}
						sh.marked[v] = false
						if !e.unionMark[v] {
							e.unionMark[v] = true
							part = append(part, v)
							e.vals[v] = float64(sumAcc(e.shards, v)) * inv
						}
					}
				}
				for _, v := range part {
					e.unionMark[v] = false
				}
				parts[r] = part
			}(r)
		}
		wg.Wait()
	} else {
		union := e.union[:0]
		for _, sh := range e.shards {
			for _, v := range sh.touched {
				sh.marked[v] = false
				if !e.unionMark[v] {
					e.unionMark[v] = true
					union = append(union, v)
					e.vals[v] = float64(sumAcc(e.shards, v)) * inv
				}
			}
		}
		for _, v := range union {
			e.unionMark[v] = false
		}
		e.union = union
	}
	for _, sh := range e.shards {
		sh.touched = sh.touched[:0]
		sh.batch = nil
	}
	for _, i := range e.dirtyList {
		e.dirtyMark[i] = false
	}
	e.dirtyList = e.dirtyList[:0]
	return e.vals
}

// sumAcc returns Σ_s acc_s[v] by pairwise tree reduction. int64 addition
// is exact, so every association yields the same bits as the fixed-order
// serial sum; the tree keeps the dependency chain at ⌈log₂ P⌉ adds for
// wide shard counts and documents that the reduction is order-free.
func sumAcc(shards []*incShard, v graph.V) int64 {
	switch len(shards) {
	case 1:
		return shards[0].acc[v]
	case 2:
		return shards[0].acc[v] + shards[1].acc[v]
	default:
		h := len(shards) / 2
		return sumAcc(shards[:h], v) + sumAcc(shards[h:], v)
	}
}

// runWorker is one goroutine of the parallel phase: drain the own batch,
// then steal from whichever shard has the most work left until everything
// is claimed.
func (e *IncrementalPooledEstimator) runWorker(w int, blocked []bool) {
	me := e.shards[w]
	e.drain(me, me, blocked, false)
	for {
		var victim *incShard
		var most int64
		for _, sh := range e.shards {
			if sh == me {
				continue
			}
			if rem := int64(len(sh.batch)) - sh.cur.Load(); rem > most {
				most, victim = rem, sh
			}
		}
		if victim == nil {
			break
		}
		e.drain(victim, me, blocked, true)
	}
}

// drain claims chunks of from's batch through its cursor and processes
// them into worker to's accumulator and scratch.
func (e *IncrementalPooledEstimator) drain(from, to *incShard, blocked []bool, steal bool) {
	n := int64(len(from.batch))
	for {
		hi := from.cur.Add(stealChunk)
		lo := hi - stealChunk
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		e.processInto(to, from.batch[lo:hi], blocked)
		if steal {
			to.stolen += hi - lo
		}
	}
}

// processInto recomputes each listed sample's dominator subtree sizes under
// the new blocker set and folds each local vertex's change against its
// cached contribution into worker to's own accumulator, touching only
// vertices whose contribution changed. The samples need not be owned by to:
// Σ_s acc_s stays exact wherever the deltas land.
func (e *IncrementalPooledEstimator) processInto(to *incShard, samples []int32, blocked []bool) {
	for _, i := range samples {
		e.pool.view(int(i), &to.sview)
		sizes := to.dominate(&to.sview, blocked)
		cached := e.contribSize[e.pool.vertStart[i]:e.pool.vertStart[i+1]]
		// Local 0 is the source, never a candidate blocker: its slot stays 0.
		for l := 1; l < len(sizes); l++ {
			if d := sizes[l] - cached[l]; d != 0 {
				to.add(to.sview.Orig[l], int64(d))
				cached[l] = sizes[l]
			}
		}
	}
}

// RepairPool swaps in a repaired pool (SamplePool.Repair) while keeping the
// estimator warm: the contribution cache of every clean sample is relocated
// to its new arena offset, while each redrawn sample's cached contributions
// are retracted from its shard accumulator and the sample is staged dirty,
// so the next DecreaseES call recomputes exactly the redrawn samples under
// the new topology. The maintained state then equals — bit for bit — that of
// an estimator built fresh on the repaired pool and primed with the same
// blocker history, which is what keeps warm solves warm across mutations.
//
// newPool must come from a Repair of the estimator's current pool (same θ,
// same streams) with dirty as the returned redrawn-sample
// list; the vertex count may only have grown. Must not be called
// concurrently with DecreaseES; back-to-back repairs without an intervening
// DecreaseES compose correctly.
func (e *IncrementalPooledEstimator) RepairPool(newPool *SamplePool, dirty []int32) {
	old := e.pool
	if newPool.Theta() != old.Theta() {
		panic("core: RepairPool with mismatched theta")
	}
	if n := newPool.n; n > len(e.vals) {
		grow := n - len(e.vals)
		e.vals = append(e.vals, make([]float64, grow)...)
		e.prevBlocked = append(e.prevBlocked, make([]bool, grow)...)
		e.unionMark = append(e.unionMark, make([]bool, grow)...)
		for _, sh := range e.shards {
			// Re-allocate through the aligned constructors: a plain append
			// would land the grown arrays wherever the allocator likes,
			// silently losing the cache-line alignment the shard layout
			// depends on.
			acc := alignedInt64(n)
			copy(acc, sh.acc)
			sh.acc = acc
			marked := alignedBools(n)
			copy(marked, sh.marked)
			sh.marked = marked
		}
	}
	ns := make([]int32, newPool.vertStart[newPool.Theta()])
	if !e.primed {
		// No cached contributions to relocate; the priming round draws
		// everything from the new pool anyway.
		e.pool, e.contribSize = newPool, ns
		return
	}
	isDirty := make([]bool, old.Theta())
	for _, i := range dirty {
		isDirty[i] = true
	}
	for i := 0; i < old.Theta(); i++ {
		ob, oe := old.vertStart[i], old.vertStart[i+1]
		if isDirty[i] {
			// The redrawn sample's slots in ns stay 0, so processInto does
			// not retract these again when it recomputes the sample.
			sh := e.shards[e.ownerOf[i]]
			for j := ob; j < oe; j++ {
				if sz := e.contribSize[j]; sz != 0 {
					sh.add(old.vertOrig[j], -int64(sz))
				}
			}
			e.markDirty(int32(i))
			continue
		}
		copy(ns[newPool.vertStart[i]:], e.contribSize[ob:oe])
	}
	e.pool, e.contribSize = newPool, ns
}

// IncrementalStats reports the estimator's lifetime work counters.
type IncrementalStats struct {
	// Rounds is the number of DecreaseES calls answered.
	Rounds int64
	// SamplesReprocessed is the total number of dirty samples recomputed;
	// a full re-scan per round would make this Rounds × Theta.
	SamplesReprocessed int64
	// SamplesStolen is how many of those were claimed by a worker other
	// than the shard owner — nonzero only when dirty samples skew across
	// the θ-ranges hard enough for the work-stealing fallback to engage.
	SamplesStolen int64
}

// Stats returns the work counters. Call between DecreaseES calls.
func (e *IncrementalPooledEstimator) Stats() IncrementalStats {
	st := IncrementalStats{Rounds: e.rounds, SamplesReprocessed: e.reprocessed, SamplesStolen: e.stolenPast}
	for _, sh := range e.shards {
		st.SamplesStolen += sh.stolen
	}
	return st
}

// MemoryBytes reports the pool plus the estimator's own resident footprint:
// cached value vector, contribution arena, previous-blocker mask, staging
// and batch buffers, and the per-shard state — the O(n) accumulator and
// mark arrays plus the dominator scratch grown during processing. On large
// graphs at high worker counts the per-shard state dwarfs the arena itself,
// which is why SetWorkers is worth calling downward too.
func (e *IncrementalPooledEstimator) MemoryBytes() int64 {
	total := e.pool.MemoryBytes() +
		int64(len(e.vals))*8 +
		int64(len(e.contribSize))*4 + int64(len(e.ownerOf))*4 +
		int64(len(e.prevBlocked)) + int64(len(e.dirtyMark)) +
		int64(cap(e.dirtyList))*4 + int64(cap(e.batchBuf))*4 +
		int64(cap(e.batchCnt))*4 + int64(cap(e.batchPos))*4 +
		int64(len(e.unionMark)) + int64(cap(e.union))*4
	for _, part := range e.unionParts {
		total += int64(cap(part)) * 4
	}
	for _, sh := range e.shards {
		total += int64(cap(sh.acc))*8 + int64(cap(sh.marked)) +
			int64(cap(sh.touched))*4 +
			sh.memoryBytes()
	}
	return total
}
