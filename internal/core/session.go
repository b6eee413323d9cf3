package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Session keeps the expensive per-problem solver state warm across Solve
// calls on one graph under one diffusion model: the seed set's instance (a
// seed view of the session's graph: a seed mask and the super-seed's
// folded row, never a copy of the graph), the live-edge sampler, the
// Algorithm 2 estimator with its per-worker scratch (several O(n) arrays
// per worker), and the held-out pool EvaluateSpread counts on. A cold
// Solve pays all of that on every call; a warm Session call with the same
// seed set skips straight to the greedy rounds.
//
// A Session is bound to (graph, diffusion model) at construction, plus a
// default worker count: Solve overrides Options.Diffusion with the
// session's own so cached scratch always matches the run, while
// Options.Workers is honored per call (zero falls back to the session
// default). Cached estimators are re-fanned with SetWorkers instead of
// being rebuilt — pool content is worker-independent (see NewSamplePool),
// so a warm session serves requests at any worker count from the same
// cached samples, and ReuseSamples results are bit-identical at every
// worker count. Solve serializes callers internally — the estimator admits
// one DecreaseES stream at a time — so a Session is safe for concurrent
// use, at the price of queueing (the wait is context-aware: a canceled
// caller stops queueing immediately); run independent graphs on
// independent Sessions.
//
// Determinism is preserved: the cached estimator carries no randomness of
// its own (each round's rng is split from the per-call Options.Seed), so a
// warm Solve returns exactly the blockers a cold Solve with equal
// (Seed, Theta) and the session's workers/diffusion would.
type Session struct {
	g         *graph.Graph
	diffusion Diffusion
	workers   int
	epoch     uint64 // graph epoch the cached state reflects; guarded by lk

	lk    chan struct{} // cap-1 context-aware mutex over the fields below
	insts []*sessionInstance
	tick  int64
	stats SessionStats
	// EvaluateSpread's blocked mask and counting scratch, kept across
	// calls; each call clears the mask before use.
	evalBlocked []bool
	evalReach   reachScratch

	// Pool counters are atomic so the serving layer's /stats can read them
	// without queueing behind an in-flight solve on the session lock.
	poolBytes  atomic.Int64
	poolBuilds atomic.Int64
	poolReuses atomic.Int64
	// instanceBytes is the cached instances' footprint (instance.memoryBytes),
	// kept like poolBytes.
	instanceBytes atomic.Int64
}

// maxSessionInstances bounds the per-seed-set cache inside one session, so
// a few clients interleaving different seed sets on one hot graph don't
// evict each other's prepared state on every request. An instance itself
// is small (a seed mask of n+1 bytes and the super row); what keeps the
// bound small is the per-worker estimator scratch and the pools it holds.
const maxSessionInstances = 4

// maxSessionPools bounds the per-instance cache of ReuseSamples pools. A
// pool costs θ × (average sample size) memory — usually the largest object
// a session owns — so the bound is even smaller than the instance bound:
// one hot (seed, θ) pair plus one alternate.
const maxSessionPools = 2

// sessionInstance is the prepared state for one seed set: the instance,
// the estimator bound to its sampler, the ReuseSamples pools drawn for it
// so far, and its held-out eval pool.
type sessionInstance struct {
	key   string
	seeds []graph.V // the exact seed sequence, for re-preparing after Advance
	in    *instance
	est   *Estimator
	used  int64 // LRU tick, guarded by the session lock
	pools []*sessionPool
	// eval is the pool EvaluateSpread counts on, drawn on the reserved
	// stream evalBase at the largest rounds asked so far; nil until the
	// first evaluation.
	eval *SamplePool
}

// poolBytes is the footprint si holds in the session's pool-bytes gauge.
func (si *sessionInstance) poolBytes() int64 {
	var n int64
	for _, sp := range si.pools {
		n += sp.bytes
	}
	if si.eval != nil {
		n += si.eval.MemoryBytes()
	}
	return n
}

// evalBase is the reserved stream of every eval pool: sample i is
// evalBase().Split(i). Selection streams split rng.New(Options.Seed) by
// round or worker index or by ^0, never by ^1, so no selection stream
// shares it, and an eval pool depends on neither the request's seed nor
// its workers.
func evalBase() *rng.Source { return rng.New(0).Split(^uint64(1)) }

// sessionPool is one cached ReuseSamples pool with its incremental
// estimator. The pool content is fully determined by (Options.Seed,
// Options.Theta) plus the session-fixed sampler and worker count, so those
// two form the cache key. The estimator is cached along with the pool:
// its delta-maintained accumulator survives across solves, so a repeat
// solve only reprocesses samples touched by the previous run's blockers.
type sessionPool struct {
	seed  uint64
	theta int
	est   *IncrementalPooledEstimator
	used  int64 // LRU tick, guarded by the session lock
	bytes int64 // est.MemoryBytes() as last folded into the poolBytes gauge
}

// SessionStats counts how often the cached state could be reused.
type SessionStats struct {
	// Solves is the number of Solve calls answered.
	Solves int64
	// Reuses counts Prepare/Solve/EvaluateSpread calls that found their
	// seed set's prepared instance and estimator in the session's cache;
	// Rebuilds counts calls that had to build them (first sight of a seed
	// set, or re-entry after eviction past maxSessionInstances).
	Reuses   int64
	Rebuilds int64
	// PoolBuilds and PoolReuses count ReuseSamples solves that had to draw
	// their θ-sample pool versus ones that found it cached under the same
	// (seed set, Options.Seed, Options.Theta); PoolBytes is the resident
	// footprint of all cached pools — ReuseSamples pools with their
	// estimators, and eval pools.
	PoolBuilds int64
	PoolReuses int64
	PoolBytes  int64
	// InstanceBytes is the cached instances' footprint beyond the graph
	// itself: each seed view's mask and super row, and the candidate
	// fences.
	InstanceBytes int64
	// Advances counts graph-epoch migrations (Advance calls) the session
	// survived with its warm state repaired in place.
	Advances int64
}

// NewSession returns an empty session for g under the given diffusion
// model; state is built lazily on first use. workers <= 0 selects
// GOMAXPROCS, matching Options.Workers semantics. The session starts at
// graph epoch 0; use NewSessionAtEpoch when g is a later snapshot of a
// dynamic graph.
func NewSession(g *graph.Graph, diffusion Diffusion, workers int) *Session {
	return NewSessionAtEpoch(g, diffusion, workers, 0)
}

// NewSessionAtEpoch is NewSession for a graph snapshot at a known epoch of
// an epoch-versioned (dynamic) graph, so the serving layer can later detect
// staleness by comparing Epoch against the graph's current epoch.
func NewSessionAtEpoch(g *graph.Graph, diffusion Diffusion, workers int, epoch uint64) *Session {
	return &Session{g: g, diffusion: diffusion, workers: workers, epoch: epoch, lk: make(chan struct{}, 1)}
}

// lock acquires the session, giving up if ctx is canceled first: a caller
// abandoning a queued solve must not keep waiting (in a server, that wait
// would pin a worker-pool slot behind a long-running solve).
func (s *Session) lock(ctx context.Context) error {
	select {
	case s.lk <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.lk <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) unlock() { <-s.lk }

// Graph returns the session's underlying graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// Diffusion returns the session's diffusion model.
func (s *Session) Diffusion() Diffusion { return s.diffusion }

// prepare returns the cached instance+estimator for seeds, building one on
// a miss (built reports which) and evicting the least recently used entry
// past the bound. Caller holds the session lock.
func (s *Session) prepare(seeds []graph.V) (si *sessionInstance, built bool, err error) {
	key := seedsKey(seeds)
	s.tick++
	for _, c := range s.insts {
		if c.key == key {
			c.used = s.tick
			s.stats.Reuses++
			return c, false, nil
		}
	}
	in, err := newInstance(s.g, seeds)
	if err != nil {
		return nil, false, err
	}
	si = &sessionInstance{
		key:   key,
		seeds: append([]graph.V(nil), seeds...),
		in:    in,
		est:   NewEstimator(in.sampler(s.diffusion), s.workers),
		used:  s.tick,
	}
	if len(s.insts) < maxSessionInstances {
		s.insts = append(s.insts, si)
	} else {
		lru := 0
		for i, c := range s.insts {
			if c.used < s.insts[lru].used {
				lru = i
			}
		}
		s.poolBytes.Add(-s.insts[lru].poolBytes())
		s.instanceBytes.Add(-s.insts[lru].in.memoryBytes())
		s.insts[lru] = si
	}
	s.instanceBytes.Add(in.memoryBytes())
	s.stats.Rebuilds++
	return si, true, nil
}

// warmPool returns si's cached incremental estimator for (opt.Seed,
// opt.Theta), building pool and estimator on a miss and evicting the least
// recently used pool past the bound. The pool is drawn exactly as a cold
// ReuseSamples run would draw it — same rng split chain, per-sample
// streams — so warm and cold solves stay bit-identical. The cache key
// deliberately excludes the worker count: pool content does not depend on
// it, so a hit at a different opt.Workers only re-fans the estimator's
// shards (SetWorkers) and keeps every cached sample and contribution.
// A draw checks ctx like an eval pool's (drawSamplePool); a canceled one
// caches nothing and returns ctx.Err(). Caller holds the session lock and
// has already applied opt.withDefaults and resolved opt.Workers.
func (s *Session) warmPool(ctx context.Context, si *sessionInstance, opt Options) (sp *sessionPool, built bool, err error) {
	s.tick++
	for _, c := range si.pools {
		if c.seed == opt.Seed && c.theta == opt.Theta {
			c.used = s.tick
			c.est.SetWorkers(opt.Workers)
			s.poolReuses.Add(1)
			return c, false, nil
		}
	}
	pool, err := drawSamplePool(ctx, si.est.Sampler(), si.in.src, opt.Theta, opt.Workers, rng.New(opt.Seed).Split(^uint64(0)))
	if err != nil {
		return nil, false, err
	}
	est := NewIncrementalPooledEstimatorFromPool(pool, opt.Workers)
	sp = &sessionPool{seed: opt.Seed, theta: opt.Theta, est: est, used: s.tick, bytes: est.MemoryBytes()}
	if len(si.pools) < maxSessionPools {
		si.pools = append(si.pools, sp)
	} else {
		lru := 0
		for i, c := range si.pools {
			if c.used < si.pools[lru].used {
				lru = i
			}
		}
		s.poolBytes.Add(-si.pools[lru].bytes)
		si.pools[lru] = sp
	}
	s.poolBuilds.Add(1)
	s.poolBytes.Add(sp.bytes)
	return sp, true, nil
}

// refreshPoolBytes folds the estimator's current footprint into the gauge:
// worker scratch and the dirty list are allocated lazily during solves, so
// the build-time measurement alone would understate residency severalfold
// on large graphs.
func (s *Session) refreshPoolBytes(sp *sessionPool) {
	now := sp.est.MemoryBytes()
	s.poolBytes.Add(now - sp.bytes)
	sp.bytes = now
}

// Acquire locks the session for one caller, waiting until it is free or
// ctx is canceled, and returns a handle whose methods run without further
// locking. Use it to hold the session across a whole request (e.g.
// spread-eval, solve, spread-eval) — and, in a server, to wait for a hot
// graph without occupying a CPU-admission slot. Callers must Release the
// handle exactly once.
func (s *Session) Acquire(ctx context.Context) (*LockedSession, error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	return &LockedSession{s: s}, nil
}

// LockedSession is exclusive access to a Session between Acquire and
// Release. It must stay on the goroutine chain that acquired it.
type LockedSession struct {
	s *Session
}

// Release unlocks the session.
func (h *LockedSession) Release() { h.s.unlock() }

// Epoch returns the graph epoch the session's cached state reflects.
func (h *LockedSession) Epoch() uint64 { return h.s.epoch }

// AdvanceStats reports one session migration to a new graph epoch.
type AdvanceStats struct {
	// Instances is the number of prepared seed-set instances re-bound to
	// the new graph.
	Instances int
	// PoolsRepaired counts cached sample pools (ReuseSamples and eval
	// pools) migrated by incremental repair; PoolsDropped counts pools that
	// had to be discarded (the vertex count changed under a multi-seed
	// instance, which moves the super-seed id) — the next solve or
	// evaluation on those keys draws afresh.
	PoolsRepaired, PoolsDropped int
	// SamplesRedrawn and SamplesKept partition the repaired pools' samples
	// into redrawn-dirty versus byte-copied-clean.
	SamplesRedrawn, SamplesKept int64
}

// Advance migrates the session (and all its warm state) from its current
// graph to a later epoch's snapshot g of the same evolving graph.
// changedSources must list every vertex whose out-adjacency changed between
// the session's epoch and the new one, changedTargets every vertex whose
// in-adjacency changed (both from dynamic.Graph.ChangedSince); vertex ids
// must be stable, and the vertex count may only have grown.
//
// Prepared instances are re-bound to the new graph, which rebuilds only
// each seed view's mask and super row; each cached ReuseSamples pool is
// repaired in place — only samples whose rng replay could touch a change
// are redrawn: under IC those containing a changed source, under LT
// additionally those containing an old in-neighbor of a changed target
// (RepairSetLT) — leaving estimator state bit-identical to a cold build at
// the new epoch, so warm solves stay warm across mutations. Each eval pool
// is repaired by the same call and criterion, so it stays the pool a fresh
// draw at the new epoch would give. On a seed view the criterion is the
// unified graph's (a changed seed row folds into the super-seed's row);
// a grown vertex count moves the super-seed id, so those pools are
// dropped rather than repaired.
func (h *LockedSession) Advance(g *graph.Graph, epoch uint64, changedSources, changedTargets []graph.V) AdvanceStats {
	s := h.s
	var st AdvanceStats
	grown := g.N() != s.g.N()
	kept := s.insts[:0]
	for _, si := range s.insts {
		s.instanceBytes.Add(-si.in.memoryBytes())
		in, err := newInstance(g, si.seeds)
		if err != nil {
			// Cannot happen while ids are stable and n only grows, but a
			// dropped instance (rebuilt on next use) beats a poisoned one.
			s.poolBytes.Add(-si.poolBytes())
			continue
		}
		sampler := in.sampler(s.diffusion)
		repairable := !grown || in.view == nil
		var criterion []graph.V
		if repairable {
			criterion = si.in.dirtySet(s.diffusion, changedSources, changedTargets)
		}
		pools := si.pools[:0]
		for _, sp := range si.pools {
			if !repairable {
				s.poolBytes.Add(-sp.bytes)
				st.PoolsDropped++
				continue
			}
			newPool, dirty := sp.est.Pool().Repair(sampler, criterion, sp.est.Workers())
			sp.est.RepairPool(newPool, dirty)
			st.PoolsRepaired++
			st.SamplesRedrawn += int64(len(dirty))
			st.SamplesKept += int64(newPool.Theta() - len(dirty))
			s.refreshPoolBytes(sp)
			pools = append(pools, sp)
		}
		si.pools = pools
		if si.eval != nil {
			s.poolBytes.Add(-si.eval.MemoryBytes())
			if repairable {
				newPool, dirty := si.eval.Repair(sampler, criterion, s.workers)
				st.PoolsRepaired++
				st.SamplesRedrawn += int64(len(dirty))
				st.SamplesKept += int64(newPool.Theta() - len(dirty))
				si.eval = newPool
				s.poolBytes.Add(newPool.MemoryBytes())
			} else {
				st.PoolsDropped++
				si.eval = nil
			}
		}
		si.in = in
		si.est = NewEstimator(sampler, s.workers)
		s.instanceBytes.Add(in.memoryBytes())
		kept = append(kept, si)
		st.Instances++
	}
	s.insts = kept
	s.g = g
	s.epoch = epoch
	s.stats.Advances++
	return st
}

// Reset discards all cached state and re-binds the session to g at epoch —
// the fallback when the graph diverged too far for Advance (the changelog
// no longer reaches the session's epoch).
func (h *LockedSession) Reset(g *graph.Graph, epoch uint64) {
	s := h.s
	for _, si := range s.insts {
		s.poolBytes.Add(-si.poolBytes())
		s.instanceBytes.Add(-si.in.memoryBytes())
	}
	s.insts = nil
	s.g = g
	s.epoch = epoch
}

// Prepare makes sure the session holds the seed set's instance — the seed
// view, candidate fences and estimator — building
// it on a miss, and reports whether it did. Solve and EvaluateSpread
// prepare on demand; calling Prepare first lets a caller account the build
// separately from the work that follows. It counts in SessionStats like
// any other call that looks the instance up.
func (h *LockedSession) Prepare(seeds []graph.V) (built bool, err error) {
	_, built, err = h.s.prepare(seeds)
	return built, err
}

// Solve is Session.Solve on an already-acquired session, and the one
// place a solve is dispatched: SolveContext runs it on a throwaway
// session. Result.Runtime and Options.Timeout count from after the seed
// set's instance and ReuseSamples pool are in hand, cached or built. A
// ReuseSamples pool draw checks ctx; a canceled one caches nothing and
// returns a Result with Canceled set and no blockers.
func (h *LockedSession) Solve(ctx context.Context, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	// Reject a negative budget before prepare: bad input should neither
	// build an instance nor evict a warm one.
	if b < 0 {
		return Result{}, fmt.Errorf("core: negative budget %d", b)
	}
	s := h.s
	si, _, err := s.prepare(seeds)
	if err != nil {
		return Result{}, err
	}
	s.stats.Solves++
	opt = opt.withDefaults()
	opt.Diffusion = s.diffusion
	if opt.Workers == 0 {
		opt.Workers = s.workers
	}
	est, sp, err := s.backend(ctx, si, alg, opt)
	if err != nil {
		return Result{Canceled: true}, nil
	}
	start := time.Now()
	halt := stopper{ctx: ctx, dl: opt.deadline(start)}
	var res Result
	switch alg {
	case Rand:
		res = solveRand(si.in, b, opt)
	case OutDegree:
		res = solveOutDegree(si.in, b, opt)
	case BaselineGreedy:
		res = solveBaselineGreedy(halt, si.in, b, opt)
	case AdvancedGreedy:
		res = solveAdvancedGreedy(halt, si.in, est, b, opt)
	case GreedyReplace:
		res = solveGreedyReplace(halt, si.in, est, b, opt)
	default:
		return Result{}, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	res.Runtime = time.Since(start)
	if sp != nil {
		s.refreshPoolBytes(sp)
	}
	return res, nil
}

// EvaluateSpread is EvaluateSpreadContext without cancellation, for
// callers that hold no request context.
func (h *LockedSession) EvaluateSpread(seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	spread, _, err := h.EvaluateSpreadContext(context.TODO(), seeds, blockers, rounds, opt)
	return spread, err
}

// EvaluateSpreadContext estimates the expected spread E(S, G[V\B]) in
// original-problem terms, like the stateless EvaluateSpread, but counts on
// the seed set's held-out eval pool instead of running fresh Monte-Carlo
// rounds. The pool is drawn once per seed set and epoch on the reserved
// stream evalBase — sample i from evalBase().Split(i) — so the estimate
// depends on neither opt.Seed nor the worker count; opt.Workers (zero:
// the session default) only parallelizes the draw. The estimate is the
// mean, over the pool's first rounds samples, of what a BFS from the
// source reaches without entering a blocker. Those samples are exactly
// the pool a draw of rounds samples gives, so a smaller request reads a
// prefix of a larger pool; a larger one redraws the pool at its size.
// drawn reports whether this call drew. A draw checks ctx at least every
// drawCheckEvery samples per worker; a canceled one returns ctx.Err() and
// keeps whatever pool the seed set had.
func (h *LockedSession) EvaluateSpreadContext(ctx context.Context, seeds []graph.V, blockers []graph.V, rounds int, opt Options) (spread float64, drawn bool, err error) {
	if rounds <= 0 {
		return 0, false, fmt.Errorf("core: non-positive eval rounds %d", rounds)
	}
	s := h.s
	si, _, err := s.prepare(seeds)
	if err != nil {
		return 0, false, err
	}
	in := si.in
	blocked, err := s.blockedMask(in, blockers)
	if err != nil {
		return 0, false, err
	}
	if si.eval == nil || si.eval.Theta() < rounds {
		workers := opt.Workers
		if workers == 0 {
			workers = s.workers
		}
		pool, err := drawSamplePool(ctx, si.est.Sampler(), in.src, rounds, workers, evalBase())
		if err != nil {
			return 0, false, err
		}
		if si.eval != nil {
			s.poolBytes.Add(-si.eval.MemoryBytes())
		}
		si.eval, drawn = pool, true
		s.poolBytes.Add(pool.MemoryBytes())
	}
	total := si.eval.reached(rounds, blockers, blocked, &s.evalReach)
	return graph.SpreadFromUnified(float64(total)/float64(rounds), in.numSeeds), drawn, nil
}

// blockedMask marks blockers in the session's reusable mask over in's id
// space, rejecting out-of-range ids and seeds. It marks no seed: it masks
// pool samples, which never hold one but the source.
func (s *Session) blockedMask(in *instance, blockers []graph.V) ([]bool, error) {
	n := in.n()
	if cap(s.evalBlocked) < n {
		s.evalBlocked = make([]bool, n)
	}
	blocked := s.evalBlocked[:n]
	clear(blocked)
	for _, v := range blockers {
		if v < 0 || int(v) >= s.g.N() {
			return nil, fmt.Errorf("core: blocker %d out of range", v)
		}
		if in.isSeed(v) {
			return nil, fmt.Errorf("core: blocker %d is a seed", v)
		}
		blocked[v] = true
	}
	return blocked, nil
}

// Solve is SolveContext through the session's cached state. The session's
// diffusion model overrides Options.Diffusion so cached scratch always
// matches the run; Options.Workers is honored (zero uses the session
// default) by re-fanning the cached estimators. With Options that agree on
// the diffusion model it returns results identical to SolveContext.
// Canceling ctx while queued for the session returns ctx.Err() without
// solving.
func (s *Session) Solve(ctx context.Context, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	h, err := s.Acquire(ctx)
	if err != nil {
		return Result{}, err
	}
	defer h.Release()
	return h.Solve(ctx, seeds, b, alg, opt)
}

// EvaluateSpread is LockedSession.EvaluateSpreadContext on a session it
// acquires for the call: ctx bounds both the wait for the session lock and
// the draw of the seed set's eval pool.
func (s *Session) EvaluateSpread(ctx context.Context, seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	h, err := s.Acquire(ctx)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	spread, _, err := h.EvaluateSpreadContext(ctx, seeds, blockers, rounds, opt)
	return spread, err
}

// Stats returns a snapshot of the reuse counters. It waits for any
// in-flight solve.
func (s *Session) Stats() SessionStats {
	s.lk <- struct{}{}
	defer s.unlock()
	st := s.stats
	st.PoolBuilds = s.poolBuilds.Load()
	st.PoolReuses = s.poolReuses.Load()
	st.PoolBytes = s.poolBytes.Load()
	st.InstanceBytes = s.instanceBytes.Load()
	return st
}

// InstanceBytes reports the cached instances' footprint
// (SessionStats.InstanceBytes) without taking the session lock.
func (s *Session) InstanceBytes() int64 { return s.instanceBytes.Load() }

// PoolStats reports the ReuseSamples pool counters without taking the
// session lock, so a metrics endpoint never queues behind a running solve.
func (s *Session) PoolStats() (bytes, builds, reuses int64) {
	return s.poolBytes.Load(), s.poolBuilds.Load(), s.poolReuses.Load()
}

// seedsKey canonicalizes a seed slice for reuse detection. Order is kept:
// the seed view multiplies the seeds' influence into the super row's
// probabilities in seed order, so only a byte-identical seed sequence is
// guaranteed to replay identically.
func seedsKey(seeds []graph.V) string {
	var b strings.Builder
	for i, v := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}
