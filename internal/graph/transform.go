package graph

import "fmt"

// This file implements the structural transforms the algorithms rely on:
// graph reversal, induced subgraph extraction, and the multi-seed
// unification of Section V ("From Multiple Seeds to One Seed").

// Reverse returns the graph with every edge direction flipped, preserving
// probabilities. Reverse-reachability arguments (Section V-B1) and some
// tests use it.
func (g *Graph) Reverse() *Graph {
	b := NewBuilder(g.n)
	for u := V(0); int(u) < g.n; u++ {
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			b.AddEdge(v, u, ps[i])
		}
	}
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by keep along with the
// mapping from new ids to old ids. Vertices are renumbered densely in the
// order they appear in keep. Duplicate vertices in keep panic.
func (g *Graph) InducedSubgraph(keep []V) (*Graph, []V) {
	newID := make([]int32, g.n)
	for i := range newID {
		newID[i] = -1
	}
	for i, v := range keep {
		if newID[v] != -1 {
			panic(fmt.Sprintf("graph: duplicate vertex %d in InducedSubgraph", v))
		}
		newID[v] = int32(i)
	}
	b := NewBuilder(len(keep))
	for i, v := range keep {
		to := g.OutNeighbors(v)
		ps := g.OutProbs(v)
		for j, w := range to {
			if newID[w] != -1 {
				b.AddEdge(V(i), newID[w], ps[j])
			}
		}
	}
	old := append([]V(nil), keep...)
	return b.Build(), old
}

// UnifySeeds implements the paper's multi-seed to single-seed reduction as
// a copy. It returns a graph with n+1 vertices where vertex n is the
// super-seed s'. The solver reads the same graph through a SeedView
// instead; UnifySeeds stays as the view's test oracle and for callers
// that need a materialized graph (exact spread, benchcore).
//
// For every non-seed vertex u influenced by h seeds with probabilities
// p₁..p_h, the seed edges are replaced by a single edge (s', u) with
// probability 1 - Π(1-pᵢ): the chance at least one seed influence fires.
// Edges between non-seed vertices are kept. Original seed vertices remain
// (so ids are stable) but are fully disconnected — they are unconditionally
// active in the original problem, so no in-edge can change their state, and
// their out-influence now flows from s'.
//
// Each distinct seed is folded in once, in order of first appearance: a
// seed listed twice is still one always-active vertex, so its influence
// must not be counted twice. The products are formed in that seed order.
//
// The copy is written straight into CSR form in O(n + m) time, with no
// comparison sort: non-seed rows are already sorted and free of parallel
// edges, so each is copied as it is minus its edges into seeds, and the
// super-seed's row goes last with its targets in ascending order.
//
// The expected spread translates as
//
//	E(S, G) = E({s'}, G') - 1 + |S|
//
// because s' itself replaces the |S| always-active seeds. SpreadFromUnified
// applies this correction.
func (g *Graph) UnifySeeds(seeds []V) (*Graph, V) {
	if len(seeds) == 0 {
		panic("graph: UnifySeeds with empty seed set")
	}
	isSeed := make([]bool, g.n)
	distinct := make([]V, 0, len(seeds))
	for _, s := range seeds {
		if !isSeed[s] {
			isSeed[s] = true
			distinct = append(distinct, s)
		}
	}

	// Combined probability of seed influence per target vertex: noFire[v]
	// is the probability that no seed edge into v fires, and hit marks the
	// targets that have a seed edge at all.
	noFire := make([]float64, g.n)
	hit := make([]bool, g.n)
	superDeg := 0
	for _, s := range distinct {
		to := g.OutNeighbors(s)
		ps := g.OutProbs(s)
		for i, v := range to {
			if isSeed[v] {
				continue // seeds are already active; edges into seeds are irrelevant
			}
			if hit[v] {
				noFire[v] *= 1 - ps[i]
			} else {
				hit[v] = true
				noFire[v] = 1 - ps[i]
				superDeg++
			}
		}
	}

	outStart := make([]int32, g.n+2)
	outTo := make([]V, 0, g.M()+superDeg)
	outP := make([]float64, 0, g.M()+superDeg)
	for u := 0; u < g.n; u++ {
		if !isSeed[u] {
			for j := g.outStart[u]; j < g.outStart[u+1]; j++ {
				if v := g.outTo[j]; !isSeed[v] {
					outTo = append(outTo, v)
					outP = append(outP, g.outP[j])
				}
			}
		}
		outStart[u+1] = int32(len(outTo))
	}
	for v, ok := range hit {
		if ok {
			outTo = append(outTo, V(v))
			outP = append(outP, 1-noFire[v])
		}
	}
	outStart[g.n+1] = int32(len(outTo))
	return NewFromCSR(g.n+1, outStart, outTo, outP), V(g.n)
}

// SpreadFromUnified converts an expected spread measured on the unified
// graph (seed s') back to the original problem's expected spread with
// numSeeds seeds: the super-seed contributes 1 to the unified spread while
// the original seed set contributes numSeeds.
func SpreadFromUnified(unifiedSpread float64, numSeeds int) float64 {
	return unifiedSpread - 1 + float64(numSeeds)
}

// AugmentSuperSource returns the graph extended with a virtual source s*
// (vertex id n) that activates every seed with probability 1, leaving all
// original edges and ids untouched. A cascade from s* is exactly the
// multi-seed cascade plus s* itself, so E(S, G) = E({s*}, G⁺) − 1.
//
// The edge-blocking extension uses this instead of UnifySeeds because it
// keeps every original edge intact as a blocking candidate (unification
// merges parallel seed influences into synthetic combined edges).
func (g *Graph) AugmentSuperSource(seeds []V) (*Graph, V) {
	if len(seeds) == 0 {
		panic("graph: AugmentSuperSource with empty seed set")
	}
	super := V(g.n)
	b := NewBuilder(g.n + 1)
	for u := V(0); int(u) < g.n; u++ {
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			b.AddEdge(u, v, ps[i])
		}
	}
	for _, s := range seeds {
		b.AddEdge(super, s, 1)
	}
	return b.Build(), super
}

// RemoveEdges returns the graph with the listed directed edges deleted
// (probabilities are irrelevant for matching; unknown pairs are ignored).
// Vertex ids are preserved. The edge-blocking algorithms rebuild the
// working graph with it once per greedy round.
func (g *Graph) RemoveEdges(pairs [][2]V) *Graph {
	drop := make(map[[2]V]bool, len(pairs))
	for _, p := range pairs {
		drop[p] = true
	}
	b := NewBuilder(g.n)
	for u := V(0); int(u) < g.n; u++ {
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			if !drop[[2]V{u, v}] {
				b.AddEdge(u, v, ps[i])
			}
		}
	}
	return b.Build()
}

// OutEdgeIndex returns the position of edge (u,v) in the graph's global
// out-CSR ordering, or -1 when absent. Out-lists are sorted by target, so
// the lookup is a binary search. The edge-blocking estimator uses the
// index to key per-edge accumulators.
func (g *Graph) OutEdgeIndex(u, v V) int {
	lo, hi := int(g.outStart[u]), int(g.outStart[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.outTo[mid] < v:
			lo = mid + 1
		case g.outTo[mid] > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// EdgeAt returns the edge stored at the given global out-CSR index, the
// inverse of OutEdgeIndex. It is O(log n) via binary search over the CSR
// offsets.
func (g *Graph) EdgeAt(idx int) Edge {
	if idx < 0 || idx >= g.M() {
		panic(fmt.Sprintf("graph: edge index %d out of range [0,%d)", idx, g.M()))
	}
	// Find the source vertex: the largest u with outStart[u] <= idx.
	lo, hi := 0, g.n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(g.outStart[mid]) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Edge{From: V(lo), To: g.outTo[idx], P: g.outP[idx]}
}
