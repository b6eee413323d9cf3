package main

import (
	"context"
	"fmt"
	"slices"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
	"github.com/imin-dev/imin/internal/service"
)

// Output-check settings.
const (
	firstSolves   = 8    // leading solves always checked cold; spread_after averages them
	randomSolves  = 4    // further seeded picks among the served solves
	qualityRounds = 2000 // Monte-Carlo rounds of the spread_after estimate
	qualitySeed   = 0x5eed
)

// checker recomputes served answers in process: cold core.SolveContext
// references on the snapshot of each candidate epoch, rebuilt by replaying
// the acknowledged mutation batches into a fresh dynamic graph.
type checker struct {
	g0    *graph.Graph
	muts  [][]dynamic.Mutation // muts[k-1] committed epoch k
	snaps map[uint64]*graph.Graph
	refs  map[refKey][]int
}

type refKey struct {
	epoch uint64
	body  string
}

func newChecker(g0 *graph.Graph, served []result) *checker {
	c := &checker{g0: g0, snaps: map[uint64]*graph.Graph{0: g0}, refs: map[refKey][]int{}}
	for _, r := range served {
		if r.op.kind == kindMutate && r.err == "" {
			c.muts = append(c.muts, r.op.muts)
		}
	}
	return c
}

// snapshots materializes the snapshots of the given epochs in one pass
// over the mutation log.
func (c *checker) snapshots(epochs []uint64) error {
	var need []uint64
	for _, e := range epochs {
		if _, ok := c.snaps[e]; !ok && !slices.Contains(need, e) {
			need = append(need, e)
		}
	}
	if len(need) == 0 {
		return nil
	}
	slices.Sort(need)
	if need[len(need)-1] > uint64(len(c.muts)) {
		return fmt.Errorf("epoch %d was never acknowledged", need[len(need)-1])
	}
	d := dynamic.New(c.g0, dynamic.Config{})
	for _, e := range need {
		for d.Epoch() < e {
			if _, err := d.Commit(c.muts[d.Epoch()]); err != nil {
				return fmt.Errorf("replaying batch %d: %w", d.Epoch()+1, err)
			}
		}
		c.snaps[e], _ = d.Snapshot()
	}
	return nil
}

// reference is a cold solve of req on the snapshot at epoch, memoized.
func (c *checker) reference(ctx context.Context, epoch uint64, o op) ([]int, error) {
	key := refKey{epoch, string(o.body)}
	if ref, ok := c.refs[key]; ok {
		return ref, nil
	}
	if err := c.snapshots([]uint64{epoch}); err != nil {
		return nil, err
	}
	req := o.solve
	seeds := toVertices(req.Seeds)
	alg := core.Algorithm(req.Algorithm)
	res, err := core.SolveContext(ctx, c.snaps[epoch], seeds, req.Budget, alg, solveOptions(req))
	if err != nil {
		return nil, err
	}
	ref := make([]int, len(res.Blockers))
	for i, b := range res.Blockers {
		ref[i] = int(b)
	}
	c.refs[key] = ref
	return ref, nil
}

// solveOptions is what the daemon runs a request with at its defaults
// (the benchmark's requests leave theta, MCS rounds and workers unset).
func solveOptions(req *service.SolveRequest) core.Options {
	opt := core.Options{Theta: defaultTheta, MCSRounds: defaultMCSRounds, Seed: req.Seed, ReuseSamples: req.ReuseSamples}
	if req.Model == "LT" {
		opt.Diffusion = core.DiffusionLT
	}
	return opt
}

func toVertices(ids []int) []graph.V {
	vs := make([]graph.V, len(ids))
	for i, id := range ids {
		vs[i] = graph.V(id)
	}
	return vs
}

// matchCold returns the epoch within the op's in-flight window whose cold
// reference equals the served blockers.
func (c *checker) matchCold(ctx context.Context, r result) (epoch uint64, ok bool, err error) {
	for e := r.epochLo; e <= r.epochHi; e++ {
		ref, err := c.reference(ctx, e, r.op)
		if err != nil {
			return 0, false, err
		}
		if slices.Equal(ref, r.blockers) {
			return e, true, nil
		}
	}
	return 0, false, nil
}

// checkReport summarizes the output checks of one run.
type checkReport struct {
	Checked       int      `json:"solves_checked"`
	MatchedReplay int      `json:"solves_matched_replay"`
	ColdChecked   int      `json:"solves_checked_cold"`
	Mismatches    int      `json:"blocker_mismatches"`
	SpreadAfter   float64  `json:"spread_after,omitempty"` // untraced runs only
	QualitySolve  int      `json:"spread_after_solves,omitempty"`
	Errors        []string `json:"errors,omitempty"`
}

// checkServed verifies the served solves. Every solve must equal the
// replay's answer for the same op when the replay ran at an epoch in the
// solve's in-flight window. When it did and the answers differ, the daemon
// can only have run at another epoch of the window: the replay's answer
// must then equal a cold solve at its own epoch, and the served one a cold
// solve at another epoch of the window. When the replay ran outside the
// window, the served answer must equal a cold solve at an epoch in it.
// Every solve in the seeded sample is also compared with a cold solve on
// its snapshot (warm = cold). Mismatching results get their err set. It
// returns the epoch each sampled solve matched at, for the quality
// estimate.
func (c *checker) checkServed(ctx context.Context, served []result, replayed map[int]result, seed uint64) (checkReport, map[int]uint64, error) {
	var rep checkReport
	var solves []int // indexes into served
	for i, r := range served {
		if r.op.kind == kindSolve && r.err == "" {
			solves = append(solves, i)
		}
	}
	sample := map[int]bool{}
	for _, i := range solves[:min(firstSolves, len(solves))] {
		sample[i] = true
	}
	if rest := solves[min(firstSolves, len(solves)):]; len(rest) > 0 {
		pick := rng.New(seed ^ 0x636865636b)
		for k := 0; k < randomSolves; k++ {
			sample[rest[pick.Intn(len(rest))]] = true
		}
	}
	var windows []uint64
	for _, i := range solves {
		if sample[i] {
			for e := served[i].epochLo; e <= served[i].epochHi; e++ {
				windows = append(windows, e)
			}
		}
	}
	if err := c.snapshots(windows); err != nil {
		return rep, nil, err
	}

	matched := map[int]uint64{}
	mismatch := func(i int, why string) {
		served[i].err = why
		rep.Mismatches++
		if len(rep.Errors) < 5 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("op %d: %s", served[i].op.id, why))
		}
	}
	for _, i := range solves {
		r := served[i]
		rep.Checked++
		rr, ok := replayed[r.op.id]
		if !ok {
			mismatch(i, "the replay did not run this op")
			continue
		}
		inWindow := rr.epoch >= r.epochLo && rr.epoch <= r.epochHi
		asReplay := inWindow && slices.Equal(rr.blockers, r.blockers)
		if asReplay {
			rep.MatchedReplay++
		} else if inWindow {
			ref, err := c.reference(ctx, rr.epoch, r.op)
			if err != nil {
				return rep, nil, err
			}
			if !slices.Equal(ref, rr.blockers) {
				mismatch(i, fmt.Sprintf("blockers %v differ from the replay's %v at epoch %d, and the replay's from a cold solve there", r.blockers, rr.blockers, rr.epoch))
				continue
			}
		}
		if asReplay && !sample[i] {
			continue
		}
		e, ok, err := c.matchCold(ctx, r)
		if err != nil {
			return rep, nil, err
		}
		if sample[i] {
			rep.ColdChecked++
		}
		switch {
		case !ok && asReplay:
			mismatch(i, fmt.Sprintf("blockers %v equal the replay's but differ from a cold solve at every epoch in [%d,%d]", r.blockers, r.epochLo, r.epochHi))
		case !ok:
			mismatch(i, fmt.Sprintf("blockers %v differ from the replay's %v at epoch %d and from a cold solve at every epoch in [%d,%d]", r.blockers, rr.blockers, rr.epoch, r.epochLo, r.epochHi))
		case sample[i]:
			matched[r.op.id] = e
		}
	}
	return rep, matched, nil
}

// quality estimates spread_after: the mean expected spread left after
// blocking over the leading solves, each evaluated with a fixed seed and
// one worker on the snapshot it matched. With no matched solve (every one
// failed its check) it returns 0; the run is then reported incorrect.
func (c *checker) quality(served []result, matched map[int]uint64) (float64, int, error) {
	var sum float64
	n := 0
	for _, r := range served {
		e, ok := matched[r.op.id]
		if !ok || r.op.kind != kindSolve || n == firstSolves {
			continue
		}
		opt := solveOptions(r.op.solve)
		opt.Seed, opt.Workers = qualitySeed, 1
		v, err := core.EvaluateSpread(c.snaps[e], toVertices(r.op.solve.Seeds), toVertices(r.blockers), qualityRounds, opt)
		if err != nil {
			return 0, 0, err
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return sum / float64(n), n, nil
}
