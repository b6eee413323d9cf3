package graph

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph.
//
// The zero value is not usable; create builders with NewBuilder. Vertices are
// implied by the edges added plus the initial vertex count, so isolated
// trailing vertices require an explicit EnsureVertices call.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// EnsureVertices grows the vertex count to at least n.
func (b *Builder) EnsureVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the directed edge (u,v) with probability p. Probabilities
// are clamped to [0,1], and NaN becomes 0. Self-loops are ignored: a vertex
// activating itself is meaningless under the IC model. Vertex ids must be
// non-negative; the vertex count grows automatically.
func (b *Builder) AddEdge(u, v V, p float64) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative vertex id (%d,%d)", u, v))
	}
	if u == v {
		return
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	} else if p > 1 {
		p = 1
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{From: u, To: v, P: p})
}

// AddUndirected records both directions of {u,v} with probability p,
// matching the paper's treatment of undirected datasets ("we consider each
// edge as bi-directional").
func (b *Builder) AddUndirected(u, v V, p float64) {
	b.AddEdge(u, v, p)
	b.AddEdge(v, u, p)
}

// Build produces the Graph. Parallel edges are merged: the merged edge
// carries probability 1 - Π(1-pᵢ), the chance that at least one of the
// parallel influences fires, which preserves the IC activation probability.
func (b *Builder) Build() *Graph {
	edges := b.dedup()
	g := &Graph{n: b.n}

	// Out CSR.
	g.outStart = make([]int32, b.n+1)
	for _, e := range edges {
		g.outStart[e.From+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outStart[i+1] += g.outStart[i]
	}
	g.outTo = make([]V, len(edges))
	g.outP = make([]float64, len(edges))
	fill := make([]int32, b.n)
	for _, e := range edges {
		idx := g.outStart[e.From] + fill[e.From]
		g.outTo[idx] = e.To
		g.outP[idx] = e.P
		fill[e.From]++
	}

	// In CSR.
	g.inStart = make([]int32, b.n+1)
	for _, e := range edges {
		g.inStart[e.To+1]++
	}
	for i := 0; i < b.n; i++ {
		g.inStart[i+1] += g.inStart[i]
	}
	g.inTo = make([]V, len(edges))
	g.inP = make([]float64, len(edges))
	for i := range fill {
		fill[i] = 0
	}
	for _, e := range edges {
		idx := g.inStart[e.To] + fill[e.To]
		g.inTo[idx] = e.From
		g.inP[idx] = e.P
		fill[e.To]++
	}

	g.validate()
	return g
}

// dedup sorts edges by (from, to) and merges duplicates.
func (b *Builder) dedup() []Edge {
	edges := append([]Edge(nil), b.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.From == e.From && last.To == e.To {
				// Merge parallel edges: either influence firing activates.
				last.P = 1 - (1-last.P)*(1-e.P)
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// FromEdges is a convenience constructor for tests and examples: it builds a
// graph with n vertices from an explicit edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.From, e.To, e.P)
	}
	return b.Build()
}
