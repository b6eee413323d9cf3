package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// Algorithm names a blocker-selection strategy.
type Algorithm string

const (
	// Rand picks b random non-seed vertices (baseline "RA").
	Rand Algorithm = "rand"
	// OutDegree picks the b highest-out-degree non-seed vertices ("OD").
	OutDegree Algorithm = "outdegree"
	// BaselineGreedy is Algorithm 1: greedy with Monte-Carlo simulations,
	// the prior state of the art ("BG").
	BaselineGreedy Algorithm = "baseline-greedy"
	// AdvancedGreedy is Algorithm 3: greedy driven by the sampled-graph +
	// dominator-tree estimator ("AG").
	AdvancedGreedy Algorithm = "advanced-greedy"
	// GreedyReplace is Algorithm 4: out-neighbor initialization followed by
	// reverse-order replacement ("GR").
	GreedyReplace Algorithm = "greedy-replace"
)

// Diffusion selects the diffusion model.
type Diffusion int

const (
	// DiffusionIC is the independent cascade model (the paper's focus).
	DiffusionIC Diffusion = iota
	// DiffusionLT is the linear threshold model via the triggering-model
	// extension of Section V-E; edge probabilities act as LT weights.
	DiffusionLT
)

// Options configures a Solve run. The zero value picks the paper's default
// parameters scaled for interactive use; see the field comments.
type Options struct {
	// Theta is the number of sampled graphs per estimation round
	// (Algorithm 2's θ). Default 10000, the paper's setting.
	Theta int
	// MCSRounds is the number of Monte-Carlo rounds BaselineGreedy uses per
	// spread evaluation (the paper's r). Default 10000.
	MCSRounds int
	// Workers bounds internal parallelism. Default GOMAXPROCS.
	Workers int
	// Seed makes the run reproducible. Two runs with equal options return
	// identical blocker sets.
	Seed uint64
	// Diffusion selects IC (default) or LT.
	Diffusion Diffusion
	// ReuseSamples draws the θ live-edge samples once and reuses the pool
	// across greedy rounds (common random numbers) instead of resampling
	// every round — the DESIGN.md §6 "sampling reuse" variant, run by
	// IncrementalPooledEstimator. Costs memory proportional to θ × sample
	// size.
	ReuseSamples bool
	// Timeout aborts the run after the given duration, returning the
	// blockers selected so far with Result.TimedOut set. Zero means no
	// limit. (The paper caps runs at 24 hours; Figure 7/8 report BG timing
	// out on most datasets.)
	Timeout time.Duration
	// OnRound, when non-nil, is invoked after each greedy round of
	// AdvancedGreedy and GreedyReplace with that round's timing and
	// estimator work counts. It is a pure observer: the selection is
	// bit-identical whether or not it is set, the callback runs on the
	// solving goroutine (keep it cheap), and a nil hook costs nothing —
	// the loops take no timestamps when it is unset. BaselineGreedy and
	// the Rand/OutDegree baselines do not emit rounds.
	OnRound func(RoundInfo)
}

// RoundInfo describes one completed greedy round for Options.OnRound.
type RoundInfo struct {
	// Round is the 0-based index of the round within the run; GreedyReplace
	// keeps counting across its two phases.
	Round int
	// Phase is "select" for AdvancedGreedy rounds and GreedyReplace's
	// out-neighbor phase, "replace" for GreedyReplace's replacement pass.
	Phase string
	// Chosen is the vertex blocked (or kept, in a replacement round that
	// found no swap) this round.
	Chosen graph.V
	// Duration is the wall-clock time of the round.
	Duration time.Duration
	// SamplesDirty counts the live-edge samples the estimator processed
	// this round: reprocessed dirty samples for the incremental pooled
	// estimator, freshly drawn samples otherwise. SamplesStolen counts how
	// many of those a work-stealing shard took from a neighbor.
	SamplesDirty  int64
	SamplesStolen int64
}

func (o Options) withDefaults() Options {
	if o.Theta == 0 {
		o.Theta = 10000
	}
	if o.MCSRounds == 0 {
		o.MCSRounds = 10000
	}
	return o
}

// Result reports a Solve run.
type Result struct {
	// Blockers is the selected blocker set, |Blockers| ≤ b, in original
	// vertex ids, in selection order.
	Blockers []graph.V
	// Runtime is the wall-clock duration of the selection.
	Runtime time.Duration
	// TimedOut reports whether the run hit Options.Timeout; Blockers then
	// holds the partial selection.
	TimedOut bool
	// Canceled reports whether the run was stopped early by the caller's
	// context (SolveContext / Session.Solve); Blockers then holds the
	// partial selection, mirroring TimedOut.
	Canceled bool
	// SampledGraphs counts live-edge samples drawn (AG/GR) and
	// MCSSimulations counts Monte-Carlo rounds run (BG), for the cost
	// accounting in the efficiency experiments.
	SampledGraphs  int64
	MCSSimulations int64
}

// instance is a single-source reduction of an IMIN problem (Section V). One
// distinct seed is its own source on the caller's graph; several become a
// super-seed on a seed view of it (graph.SeedView), which the samplers read
// in place of UnifySeeds' copy and which draws the same samples.
type instance struct {
	g        *graph.Graph    // the caller's graph (original ids = working ids)
	view     *graph.SeedView // nil for one distinct seed
	src      graph.V         // the seed, or the view's super-seed
	numSeeds int
	// fences lists the distinct seeds ascending, then n. The blockable
	// vertices (not the source, not a seed) are the runs between
	// consecutive fences, so the selection loops scan them in ascending
	// order with no per-vertex candidate test and no O(n) list.
	fences []graph.V
}

// newInstance applies the multi-seed reduction of Section V.
func newInstance(g *graph.Graph, seeds []graph.V) (*instance, error) {
	if len(seeds) == 0 {
		return nil, errors.New("core: empty seed set")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= g.N() {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, g.N())
		}
	}
	fences := append(slices.Clone(seeds), graph.V(g.N()))
	slices.Sort(fences)
	fences = slices.Compact(fences)
	distinct := len(fences) - 1
	if distinct == g.N() {
		return nil, errors.New("core: every vertex is a seed; nothing to block")
	}
	in := &instance{g: g, src: seeds[0], numSeeds: distinct, fences: slices.Clip(fences)}
	if distinct > 1 {
		in.view = graph.NewSeedView(g, seeds)
		in.src = in.view.Super()
	}
	return in, nil
}

// n returns the size of the instance's id space: the graph's vertices, plus
// the super-seed on a view.
func (in *instance) n() int {
	if in.view != nil {
		return in.view.N()
	}
	return in.g.N()
}

// isSeed reports whether graph vertex v is a seed.
func (in *instance) isSeed(v graph.V) bool {
	if in.view != nil {
		return in.view.Seeds()[v]
	}
	return v == in.src
}

// newBlocked returns an empty blocker mask over the instance's id space in
// the form its samplers take: on a view every seed is marked, so the
// samplers skip seed targets through the one mask they check.
func (in *instance) newBlocked() []bool {
	if in.view != nil {
		return slices.Clone(in.view.Seeds())
	}
	return make([]bool, in.g.N())
}

// sourceRow returns the source's out-neighbors: the seed's, or the super
// row (each seed's out-neighbors that are not seeds, once, ascending).
func (in *instance) sourceRow() []graph.V {
	if in.view != nil {
		to, _ := in.view.SuperRow()
		return to
	}
	return in.g.OutNeighbors(in.src)
}

// candidates returns the blockable vertices, ascending, as a fresh slice.
func (in *instance) candidates() []graph.V {
	cands := make([]graph.V, 0, in.g.N()-in.numSeeds)
	lo := graph.V(0)
	for _, hi := range in.fences {
		for u := lo; u < hi; u++ {
			cands = append(cands, u)
		}
		lo = hi + 1
	}
	return cands
}

// memoryBytes reports what the instance holds beyond the caller's graph:
// the view's seed mask and super row, and the fences.
func (in *instance) memoryBytes() int64 {
	n := int64(cap(in.fences)) * 4
	if in.view != nil {
		n += in.view.MemoryBytes()
	}
	return n
}

// sampler builds the live-edge sampler for the chosen diffusion model.
func (in *instance) sampler(d Diffusion) cascade.LiveSampler {
	switch {
	case d == DiffusionLT && in.view != nil:
		return cascade.NewLTView(in.view)
	case d == DiffusionLT:
		return cascade.NewLT(in.g)
	case in.view != nil:
		return cascade.NewICView(in.view)
	default:
		return cascade.NewIC(in.g)
	}
}

// Solve selects at most b blockers for seed set seeds on g using the chosen
// algorithm. It returns the blockers in original vertex ids.
func Solve(g *graph.Graph, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	return SolveContext(context.Background(), g, seeds, b, alg, opt)
}

// SolveContext is Solve with a cancelable context: when ctx is canceled the
// greedy loops stop at the next round boundary (BaselineGreedy: the next
// candidate evaluation) and the partial selection is returned with
// Result.Canceled set, exactly like an Options.Timeout expiry sets
// Result.TimedOut. No error is returned for cancellation, so long-running
// services can still use the partial blocker set. It runs on a throwaway
// Session, so a cold solve takes the warm path with an empty cache; no one
// else holds that session, so even an already-canceled ctx acquires it and
// comes back as a partial Result, never as ctx.Err().
func SolveContext(ctx context.Context, g *graph.Graph, seeds []graph.V, b int, alg Algorithm, opt Options) (Result, error) {
	return NewSession(g, opt.Diffusion, opt.Workers).Solve(ctx, seeds, b, alg, opt)
}

// EvaluateSpread estimates the expected spread E(S, G[V\B]) of a blocker
// set via Monte-Carlo simulation with the given number of rounds, in
// original-problem terms (seeds count toward the spread). This is how the
// effectiveness numbers of Table VII are measured.
func EvaluateSpread(g *graph.Graph, seeds []graph.V, blockers []graph.V, rounds int, opt Options) (float64, error) {
	opt = opt.withDefaults()
	in, err := newInstance(g, seeds)
	if err != nil {
		return 0, err
	}
	blocked := in.newBlocked()
	for _, v := range blockers {
		if v < 0 || int(v) >= g.N() {
			return 0, fmt.Errorf("core: blocker %d out of range", v)
		}
		if in.isSeed(v) {
			return 0, fmt.Errorf("core: blocker %d is a seed", v)
		}
		blocked[v] = true
	}
	s := in.sampler(opt.Diffusion)
	unifiedSpread := cascade.EstimateSpreadParallel(s, in.src, blocked, rounds, opt.Workers, rng.New(opt.Seed^0x5eed), nil)
	return graph.SpreadFromUnified(unifiedSpread, in.numSeeds), nil
}

// deadline converts Options.Timeout into an absolute deadline; the zero
// time means "no deadline".
func (o Options) deadline(start time.Time) time.Time {
	if o.Timeout <= 0 {
		return time.Time{}
	}
	return start.Add(o.Timeout)
}

func pastDeadline(dl time.Time) bool {
	return !dl.IsZero() && time.Now().After(dl)
}

// stopper bundles the two early-exit signals the greedy loops poll between
// rounds: the Options.Timeout deadline and caller-context cancellation.
type stopper struct {
	ctx context.Context
	dl  time.Time
}

// stop reports whether the run should end now with a partial result.
func (s stopper) stop() bool {
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return true
		default:
		}
	}
	return pastDeadline(s.dl)
}

// abort stamps the matching early-exit flag onto a partial result.
func (s stopper) abort(res Result) Result {
	if s.ctx != nil && s.ctx.Err() != nil {
		res.Canceled = true
	} else {
		res.TimedOut = true
	}
	return res
}
