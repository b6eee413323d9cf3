package graph

import (
	"cmp"
	"slices"
)

// SeedView is UnifySeeds' graph without the copy: the base graph, a seed
// mask, and the super-seed's folded out-row. Samplers read the super row
// at the super-seed (id n) and the base rows everywhere else, skipping
// seed targets through the mask before any coin, which visits exactly the
// edges of the unified graph in its order:
//
//   - the super row lists each non-seed target of a seed once, ascending,
//     with probability 1−Π(1−p) folded in first-appearance seed order —
//     UnifySeeds' row, bit for bit;
//   - a unified non-seed row is the base row minus its seed targets, in
//     order, and a unified in-row is the base in-row minus its seed
//     sources with the super edge last (n is the largest id);
//   - seeds have no edges in the unified graph; masked, they are never
//     reached.
//
// A view costs the mask (n+1 bytes) and the super row, against UnifySeeds'
// O(n+m) copy of both CSRs.
type SeedView struct {
	g       *Graph
	seed    []bool // over n+1 ids; the super-seed is not a seed
	superTo []V
	superP  []float64
}

// NewSeedView folds seeds into a view of g. Repeated seeds fold in once,
// as in UnifySeeds. It panics on an empty seed set.
func NewSeedView(g *Graph, seeds []V) *SeedView {
	if len(seeds) == 0 {
		panic("graph: NewSeedView with empty seed set")
	}
	v := &SeedView{g: g, seed: make([]bool, g.n+1)}
	type seedEdge struct {
		to V
		p  float64
	}
	var edges []seedEdge
	for _, s := range seeds {
		if !v.seed[s] {
			v.seed[s] = true
			for i, t := range g.OutNeighbors(s) {
				edges = append(edges, seedEdge{t, g.OutProbs(s)[i]})
			}
		}
	}
	// A stable sort by target keeps each target's edges in seed order, the
	// order UnifySeeds multiplies them in.
	slices.SortStableFunc(edges, func(a, b seedEdge) int { return cmp.Compare(a.to, b.to) })
	for i := 0; i < len(edges); {
		t := edges[i].to
		noFire := 1 - edges[i].p
		for i++; i < len(edges) && edges[i].to == t; i++ {
			noFire *= 1 - edges[i].p
		}
		if !v.seed[t] {
			v.superTo = append(v.superTo, t)
			v.superP = append(v.superP, 1-noFire)
		}
	}
	return v
}

// Graph returns the base graph.
func (v *SeedView) Graph() *Graph { return v.g }

// N returns the size of the view's id space: the base vertices and the
// super-seed.
func (v *SeedView) N() int { return len(v.seed) }

// Super returns the super-seed's id, the base graph's vertex count.
func (v *SeedView) Super() V { return V(v.g.n) }

// Seeds returns the seed mask over the view's ids. The slice aliases the
// view and must not be modified.
func (v *SeedView) Seeds() []bool { return v.seed }

// SuperRow returns the super-seed's out-row: targets ascending and their
// folded probabilities. The slices alias the view.
func (v *SeedView) SuperRow() ([]V, []float64) { return v.superTo, v.superP }

// MemoryBytes reports the view's own footprint, the base graph excluded.
func (v *SeedView) MemoryBytes() int64 {
	return int64(cap(v.seed)) + int64(cap(v.superTo))*4 + int64(cap(v.superP))*8
}
