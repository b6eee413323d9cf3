// Package exact provides exact (non-sampled) computations for small
// instances: the exact expected spread under the IC model and the exact
// IMIN solver that enumerates all blocker sets. They power the optimality
// comparison of Tables V and VI and serve as oracles in tests.
//
// The paper uses the BDD-based method of Maehara et al. [39] for exact
// spreads; that method, like this one, is exponential in the worst case and
// practical only on graphs with up to a few hundred edges. We substitute
// the classic factoring (edge-conditioning) algorithm from network
// reliability: pick an undecided probabilistic edge on the current
// reachability frontier, condition on it being live or dead, and recurse —
// E = p·E[live] + (1-p)·E[dead]. Only frontier edges are conditioned, so
// certain regions of the graph and edges that can no longer change
// reachability never cause branching. DESIGN.md §4 records the
// substitution.
package exact

import (
	"errors"

	"github.com/imin-dev/imin/internal/graph"
)

// ErrBudget is returned when an exact computation exceeds its node budget;
// callers should fall back to Monte-Carlo estimation.
var ErrBudget = errors.New("exact: recursion budget exhausted")

// DefaultNodeBudget bounds the number of factoring recursion nodes per
// spread computation. ~10⁷ nodes corresponds to a few seconds of work.
const DefaultNodeBudget = 10_000_000

type edgeState int8

const (
	undecided edgeState = iota
	live
	dead
)

// spreadComputer carries the recursion state for one exact computation.
type spreadComputer struct {
	g       *graph.Graph
	blocked []bool
	// state per edge, indexed by position in the flattened out-CSR order.
	state []edgeState
	// edge index offsets: edge i of vertex u is edgeBase[u]+i.
	edgeBase []int32
	budget   int
	// scratch
	seen  []bool
	queue []graph.V
}

// Spread computes the exact expected spread E({src}, G[V\B]) — the expected
// number of vertices activated from src, including src itself — by
// factoring. blocked may be nil. The computation aborts with ErrBudget
// after nodeBudget recursion nodes (0 selects DefaultNodeBudget).
func Spread(g *graph.Graph, src graph.V, blocked []bool, nodeBudget int) (float64, error) {
	if blocked != nil && blocked[src] {
		return 0, nil
	}
	if nodeBudget <= 0 {
		nodeBudget = DefaultNodeBudget
	}
	sc := &spreadComputer{
		g:        g,
		blocked:  blocked,
		state:    make([]edgeState, g.M()),
		edgeBase: make([]int32, g.N()),
		budget:   nodeBudget,
		seen:     make([]bool, g.N()),
		queue:    make([]graph.V, 0, g.N()),
	}
	base := int32(0)
	for u := graph.V(0); int(u) < g.N(); u++ {
		sc.edgeBase[u] = base
		base += int32(g.OutDegree(u))
	}
	// Edges with probability 0 can never fire.
	for u := graph.V(0); int(u) < g.N(); u++ {
		ps := g.OutProbs(u)
		for i, p := range ps {
			if p <= 0 {
				sc.state[sc.edgeBase[u]+int32(i)] = dead
			}
		}
	}
	return sc.recurse(src)
}

// recurse evaluates the conditional expected spread given the current edge
// states.
func (sc *spreadComputer) recurse(src graph.V) (float64, error) {
	sc.budget--
	if sc.budget < 0 {
		return 0, ErrBudget
	}

	// Reachable set via certain (p==1) and decided-live edges; collect one
	// frontier edge: undecided, probabilistic, tail reachable, head not.
	reached := sc.reach(src)
	frontierEdge := int32(-1)
	var frontierU graph.V
	var frontierI int
	for _, u := range sc.queue[:reached] {
		to := sc.g.OutNeighbors(u)
		ps := sc.g.OutProbs(u)
		for i, v := range to {
			ei := sc.edgeBase[u] + int32(i)
			if sc.state[ei] != undecided || ps[i] >= 1 {
				continue
			}
			if sc.seen[v] || (sc.blocked != nil && sc.blocked[v]) {
				continue
			}
			frontierEdge = ei
			frontierU = u
			frontierI = i
			break
		}
		if frontierEdge >= 0 {
			break
		}
	}
	if frontierEdge < 0 {
		// No undecided edge can extend the reachable set: it is final.
		return float64(reached), nil
	}

	p := sc.g.OutProbs(frontierU)[frontierI]
	sc.state[frontierEdge] = live
	eLive, err := sc.recurse(src)
	if err != nil {
		sc.state[frontierEdge] = undecided
		return 0, err
	}
	sc.state[frontierEdge] = dead
	eDead, err := sc.recurse(src)
	sc.state[frontierEdge] = undecided
	if err != nil {
		return 0, err
	}
	return p*eLive + (1-p)*eDead, nil
}

// reach fills sc.queue with the vertices reachable from src through
// certain and live edges, returns the count, and leaves sc.seen marked for
// exactly those vertices (it clears marks from the previous call first).
func (sc *spreadComputer) reach(src graph.V) int {
	for _, v := range sc.queue {
		sc.seen[v] = false
	}
	sc.queue = sc.queue[:0]
	sc.seen[src] = true
	sc.queue = append(sc.queue, src)
	for qi := 0; qi < len(sc.queue); qi++ {
		u := sc.queue[qi]
		to := sc.g.OutNeighbors(u)
		ps := sc.g.OutProbs(u)
		for i, v := range to {
			if sc.seen[v] || (sc.blocked != nil && sc.blocked[v]) {
				continue
			}
			ei := sc.edgeBase[u] + int32(i)
			if sc.state[ei] == live || (sc.state[ei] == undecided && ps[i] >= 1) {
				sc.seen[v] = true
				sc.queue = append(sc.queue, v)
			}
		}
	}
	return len(sc.queue)
}

// SpreadSeeds is Spread for a multi-vertex seed set, applying the paper's
// seed-unification reduction first. Blockers must not be seeds.
func SpreadSeeds(g *graph.Graph, seeds []graph.V, blockers []graph.V, nodeBudget int) (float64, error) {
	unified, super := g.UnifySeeds(seeds)
	blocked := make([]bool, unified.N())
	for _, v := range blockers {
		blocked[v] = true
	}
	s, err := Spread(unified, super, blocked, nodeBudget)
	if err != nil {
		return 0, err
	}
	distinct := map[graph.V]bool{}
	for _, s := range seeds {
		distinct[s] = true
	}
	return graph.SpreadFromUnified(s, len(distinct)), nil
}
