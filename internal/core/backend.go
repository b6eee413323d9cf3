package core

import (
	"context"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// estBackend abstracts over the DecreaseES strategies so the greedy
// algorithms stay agnostic: fresh samples every round (the paper's
// Algorithm 2, default), or one shared pool reused across rounds
// (Options.ReuseSamples) answered by the delta-maintained
// IncrementalPooledEstimator.
type estBackend struct {
	fresh *Estimator
	incr  *IncrementalPooledEstimator
	theta int
	base  *rng.Source
	drawn int64

	// flips accumulates the blocked-set mutations the greedy loop reported
	// since the last decreaseES call; flipsKnown turns true after the first
	// call, from which point the list is complete and the incremental
	// estimator can skip its O(n) diff scan.
	flips      []graph.V
	flipsKnown bool

	// scratch receives the fresh estimator's Δ vector; the incremental
	// estimator instead lends out its maintained vector, so the
	// ReuseSamples path never pays a per-round O(n) fill.
	scratch []float64
}

// buf returns the backend-owned Δ buffer of length n.
func (b *estBackend) buf(n int) []float64 {
	if cap(b.scratch) < n {
		b.scratch = make([]float64, n)
	}
	return b.scratch[:n]
}

// noteFlip records that the caller flipped v's blocked state. The greedy
// loops call it after every blocked[v] mutation; a loop that ever mutates
// blocked without reporting here would corrupt the incremental cache.
func (b *estBackend) noteFlip(v graph.V) {
	b.flips = append(b.flips, v)
}

// backend builds the estimator backend of an AdvancedGreedy or
// GreedyReplace solve over the seed set's prepared state, nil for the
// other algorithms, and returns the ReuseSamples pool it runs on, if any.
// Every solve builds its backend here, a cold one on a throwaway session.
// The fresh Estimator holds no per-run state (randomness enters only
// through the base source split per round), and a ReuseSamples pool is
// keyed by (Seed, Theta) with its maintained accumulator always equal to a
// full re-scan's, so a warm backend selects exactly the blockers a cold
// one would. A canceled pool draw returns ctx.Err(). Caller holds the
// session lock and has applied opt.withDefaults and resolved opt.Workers.
func (s *Session) backend(ctx context.Context, si *sessionInstance, alg Algorithm, opt Options) (*estBackend, *sessionPool, error) {
	if alg != AdvancedGreedy && alg != GreedyReplace {
		return nil, nil, nil
	}
	b := &estBackend{theta: opt.Theta, base: rng.New(opt.Seed)}
	if !opt.ReuseSamples {
		si.est.SetWorkers(opt.Workers)
		b.fresh = si.est
		return b, nil, nil
	}
	sp, built, err := s.warmPool(ctx, si, opt)
	if err != nil {
		return nil, nil, err
	}
	b.incr = sp.est
	if built {
		b.drawn = int64(opt.Theta)
	}
	return b, sp, nil
}

// decreaseES returns Δ[u] on G[V\B] for the given greedy round. The
// returned slice aliases backend or estimator state and is read-only,
// valid until the next call — the greedy loops scan it for their argmax
// and never retain it across rounds.
func (b *estBackend) decreaseES(src graph.V, blocked []bool, round uint64) []float64 {
	switch {
	case b.incr != nil:
		var vals []float64
		if b.flipsKnown {
			vals = b.incr.DecreaseESFlips(blocked, b.flips)
		} else {
			// First call of this run: a warm estimator may carry blocked
			// state from an earlier run, so diff in full once.
			vals = b.incr.DecreaseES(blocked)
		}
		b.flips = b.flips[:0]
		b.flipsKnown = true
		return vals
	default:
		dst := b.buf(len(blocked))
		b.fresh.DecreaseES(dst, src, blocked, b.theta, b.base.Split(round))
		b.drawn += int64(b.theta)
		return dst
	}
}

// samplesDrawn reports the number of live-edge samples generated during this
// run (a freshly built pool counts once, a warm pool counts zero, fresh
// sampling counts per round).
func (b *estBackend) samplesDrawn() int64 { return b.drawn }

// workSnapshot returns cumulative (samples processed, samples stolen)
// counters; Options.OnRound emitters delta two snapshots to charge work to
// a single round. Incremental backends report reprocessed dirty samples
// and shard steals, fresh backends report samples drawn.
func (b *estBackend) workSnapshot() (processed, stolen int64) {
	if b.incr != nil {
		st := b.incr.Stats()
		return st.SamplesReprocessed, st.SamplesStolen
	}
	return b.drawn, 0
}
