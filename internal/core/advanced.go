package core

import (
	"time"

	"github.com/imin-dev/imin/internal/graph"
)

// solveAdvancedGreedy implements Algorithm 3: the same greedy framework as
// BaselineGreedy, but each round obtains the spread decrease of every
// candidate at once from one DecreaseESComputation call (Algorithm 2)
// instead of n separate Monte-Carlo estimations. Complexity
// O(b·θ·m·α(m,n)) versus the baseline's O(b·n·r·m).
func solveAdvancedGreedy(halt stopper, in *instance, est *estBackend, b int, opt Options) Result {
	blocked := in.newBlocked()
	var blockers []graph.V

	for round := 0; round < b; round++ {
		if halt.stop() {
			return halt.abort(Result{Blockers: blockers, SampledGraphs: est.samplesDrawn()})
		}
		var roundStart time.Time
		var proc0, stole0 int64
		if opt.OnRound != nil {
			roundStart = time.Now()
			proc0, stole0 = est.workSnapshot()
		}
		// Δ[u] for every candidate at once, on G[V \ B].
		delta := est.decreaseES(in.src, blocked, uint64(round))

		best := pickMax(in, blocked, delta)
		if best == -1 {
			break
		}
		blocked[best] = true
		est.noteFlip(best)
		blockers = append(blockers, best)
		emitRound(opt, round, "select", best, roundStart, est, proc0, stole0)
	}
	return Result{Blockers: blockers, SampledGraphs: est.samplesDrawn()}
}

// pickMax returns the unblocked candidate with the largest Δ, ties broken
// by smaller vertex id (deterministic), or -1 if none remain. Following
// Algorithm 1/3 line "x = -1 or Δ[u] > Δ[x]", a candidate is returned even
// when every Δ is zero — blocking it is harmless and keeps |B| = b. The
// scan walks the runs between the instance's fences (ascending, so
// tie-breaking is by id), so no candidate test sits on the per-round path.
func pickMax(in *instance, blocked []bool, delta []float64) graph.V {
	best := graph.V(-1)
	lo := graph.V(0)
	for _, hi := range in.fences {
		for u := lo; u < hi; u++ {
			if blocked[u] {
				continue
			}
			if best == -1 || delta[u] > delta[best] {
				best = u
			}
		}
		lo = hi + 1
	}
	return best
}
