package core

import (
	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// solveBaselineGreedy implements Algorithm 1, the prior state of the art:
// in each of b rounds, evaluate every candidate blocker by Monte-Carlo
// simulation (r rounds each) and pick the one whose blocking minimizes the
// estimated spread. Complexity O(b·n·r·m), which is what makes it
// cost-prohibitive on large graphs — the motivation for Algorithm 2.
//
// The deadline and context are checked between candidate evaluations; on
// expiry the partial blocker set is returned with TimedOut (or Canceled)
// set, mirroring the paper's 24-hour cap in Figures 7-9.
func solveBaselineGreedy(halt stopper, in *instance, b int, opt Options) Result {
	sampler := in.sampler(opt.Diffusion)
	base := rng.New(opt.Seed)

	blocked := in.newBlocked()
	cands := in.candidates()
	var scratch cascade.Workspaces
	var blockers []graph.V
	var sims int64
	call := uint64(0)

	for round := 0; round < b; round++ {
		bestV := graph.V(-1)
		bestSpread := 0.0
		for _, u := range cands {
			if blocked[u] {
				continue
			}
			if halt.stop() {
				return halt.abort(Result{Blockers: blockers, MCSSimulations: sims})
			}
			blocked[u] = true
			call++
			spread := cascade.EstimateSpreadParallel(
				sampler, in.src, blocked, opt.MCSRounds, opt.Workers, base.Split(call), &scratch)
			blocked[u] = false
			sims += int64(opt.MCSRounds)
			if bestV == -1 || spread < bestSpread {
				bestV, bestSpread = u, spread
			}
		}
		if bestV == -1 {
			break // no candidates left
		}
		blocked[bestV] = true
		blockers = append(blockers, bestV)
	}
	return Result{Blockers: blockers, MCSSimulations: sims}
}
