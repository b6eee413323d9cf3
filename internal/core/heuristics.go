package core

import (
	"sort"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// solveRand implements the RA baseline: b uniformly random candidates.
func solveRand(in *instance, b int, opt Options) Result {
	r := rng.New(opt.Seed)
	candidates := in.candidates()
	if b > len(candidates) {
		b = len(candidates)
	}
	// Partial Fisher-Yates: the first b entries become a uniform sample.
	for i := 0; i < b; i++ {
		j := i + r.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
	}
	return Result{Blockers: append([]graph.V(nil), candidates[:b]...)}
}

// solveOutDegree implements the OD baseline: the b candidates with the
// highest out-degree in the original graph, ties broken by smaller id so
// runs are deterministic.
func solveOutDegree(in *instance, b int, opt Options) Result {
	candidates := in.candidates()
	sort.Slice(candidates, func(i, j int) bool {
		di := in.g.OutDegree(candidates[i])
		dj := in.g.OutDegree(candidates[j])
		if di != dj {
			return di > dj
		}
		return candidates[i] < candidates[j]
	})
	if b > len(candidates) {
		b = len(candidates)
	}
	return Result{Blockers: append([]graph.V(nil), candidates[:b]...)}
}
