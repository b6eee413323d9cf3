package graph

import (
	"math"
	"testing"

	"github.com/imin-dev/imin/internal/rng"
)

// toy builds the paper's Figure 1 graph. Vertices are v1..v9 mapped to ids
// 0..8; the seed is v1 (id 0). Probabilities follow Examples 1-2:
// p(v5,v8)=0.5, p(v9,v8)=0.2, p(v8,v7)=0.1, all other edges 1.
func toy() *Graph {
	const (
		v1 = iota
		v2
		v3
		v4
		v5
		v6
		v7
		v8
		v9
	)
	return FromEdges(9, []Edge{
		{v1, v2, 1}, {v1, v4, 1},
		{v2, v5, 1}, {v4, v5, 1},
		{v5, v3, 1}, {v5, v6, 1}, {v5, v9, 1},
		{v5, v8, 0.5}, {v9, v8, 0.2},
		{v8, v7, 0.1},
	})
}

func TestBuilderBasics(t *testing.T) {
	g := toy()
	if g.N() != 9 {
		t.Fatalf("N = %d, want 9", g.N())
	}
	if g.M() != 10 {
		t.Fatalf("M = %d, want 10", g.M())
	}
	if d := g.OutDegree(4); d != 4 {
		t.Errorf("outdeg(v5) = %d, want 4", d)
	}
	if d := g.InDegree(7); d != 2 {
		t.Errorf("indeg(v8) = %d, want 2", d)
	}
	if p := g.Prob(4, 7); p != 0.5 {
		t.Errorf("p(v5,v8) = %v, want 0.5", p)
	}
	if p := g.Prob(8, 7); p != 0.2 {
		t.Errorf("p(v9,v8) = %v, want 0.2", p)
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge v1->v3")
	}
}

func TestBuilderIgnoresSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 0.5)
	b.AddEdge(0, 1, 0.5)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (self-loop dropped)", g.M())
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 1, 0.5)
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if p := g.Prob(0, 1); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("merged p = %v, want 0.75 = 1-(1-0.5)^2", p)
	}
}

func TestBuilderClampsProbabilities(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, -0.3)
	b.AddEdge(0, 2, 1.7)
	b.AddEdge(0, 3, math.NaN())
	g := b.Build()
	if p := g.Prob(0, 1); p != 0 {
		t.Errorf("clamped low p = %v, want 0", p)
	}
	if p := g.Prob(0, 2); p != 1 {
		t.Errorf("clamped high p = %v, want 1", p)
	}
	if p := g.Prob(0, 3); p != 0 {
		t.Errorf("clamped NaN p = %v, want 0", p)
	}
}

func TestNewFromCSRClampsProbabilities(t *testing.T) {
	g := NewFromCSR(4, []int32{0, 3, 3, 3, 3}, []V{1, 2, 3}, []float64{-0.3, 1.7, math.NaN()})
	for v, want := range map[V]float64{1: 0, 2: 1, 3: 0} {
		if p := g.Prob(0, v); p != want {
			t.Errorf("p(0,%d) = %v, want %v", v, p, want)
		}
		if p := g.InProbs(v)[0]; p != want {
			t.Errorf("in-CSR p(0,%d) = %v, want %v", v, p, want)
		}
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9, 1)
	g := b.Build()
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2)
	b.AddUndirected(0, 1, 0.4)
	g := b.Build()
	if g.M() != 2 || g.Prob(0, 1) != 0.4 || g.Prob(1, 0) != 0.4 {
		t.Fatalf("undirected edge not mirrored: m=%d p01=%v p10=%v", g.M(), g.Prob(0, 1), g.Prob(1, 0))
	}
}

func TestInOutConsistency(t *testing.T) {
	g := toy()
	// Every out-edge must appear as an in-edge with the same probability.
	for u := V(0); int(u) < g.N(); u++ {
		to := g.OutNeighbors(u)
		ps := g.OutProbs(u)
		for i, v := range to {
			found := false
			in := g.InNeighbors(v)
			ips := g.InProbs(v)
			for j, w := range in {
				if w == u {
					found = true
					if ips[j] != ps[i] {
						t.Errorf("edge (%d,%d): out p %v != in p %v", u, v, ps[i], ips[j])
					}
				}
			}
			if !found {
				t.Errorf("edge (%d,%d) missing from in-adjacency", u, v)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := toy()
	cp := g.Clone()
	cp.outP[0] = 0.123
	if g.outP[0] == 0.123 {
		t.Fatal("Clone shares probability storage with original")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := toy()
	es := g.Edges()
	if len(es) != g.M() {
		t.Fatalf("Edges returned %d, want %d", len(es), g.M())
	}
	g2 := FromEdges(g.N(), es)
	if g2.M() != g.M() {
		t.Fatalf("rebuilt M = %d, want %d", g2.M(), g.M())
	}
	for _, e := range es {
		if p := g2.Prob(e.From, e.To); p != e.P {
			t.Errorf("edge (%d,%d): p %v != %v", e.From, e.To, p, e.P)
		}
	}
}

func TestReverse(t *testing.T) {
	g := toy()
	r := g.Reverse()
	if r.M() != g.M() {
		t.Fatalf("reverse M = %d, want %d", r.M(), g.M())
	}
	for _, e := range g.Edges() {
		if p := r.Prob(e.To, e.From); p != e.P {
			t.Errorf("reverse missing edge (%d,%d) p=%v", e.To, e.From, e.P)
		}
	}
	if rr := r.Reverse(); rr.M() != g.M() {
		t.Fatal("double reverse loses edges")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := toy()
	// Keep v5, v9, v8, v7 (ids 4, 8, 7, 6).
	sub, old := g.InducedSubgraph([]V{4, 8, 7, 6})
	if sub.N() != 4 {
		t.Fatalf("sub N = %d, want 4", sub.N())
	}
	if len(old) != 4 || old[0] != 4 {
		t.Fatalf("id mapping wrong: %v", old)
	}
	// Edges inside the kept set: v5->v9, v5->v8, v9->v8, v8->v7.
	if sub.M() != 4 {
		t.Fatalf("sub M = %d, want 4", sub.M())
	}
	if p := sub.Prob(0, 1); p != 1 { // v5->v9
		t.Errorf("p(v5,v9) in sub = %v, want 1", p)
	}
	if p := sub.Prob(1, 2); p != 0.2 { // v9->v8
		t.Errorf("p(v9,v8) in sub = %v, want 0.2", p)
	}
}

func TestUnifySeedsSingle(t *testing.T) {
	g := toy()
	u, super := g.UnifySeeds([]V{0})
	if super != 9 || u.N() != 10 {
		t.Fatalf("super = %d, N = %d", super, u.N())
	}
	// s' inherits v1's out-edges with the same probabilities.
	if p := u.Prob(super, 1); p != 1 {
		t.Errorf("p(s',v2) = %v, want 1", p)
	}
	if p := u.Prob(super, 3); p != 1 {
		t.Errorf("p(s',v4) = %v, want 1", p)
	}
	// v1 is fully disconnected.
	if u.InDegree(0) != 0 || u.OutDegree(0) != 0 {
		t.Error("original seed keeps edges after unification")
	}
	// Non-seed edges are intact.
	if p := u.Prob(4, 7); p != 0.5 {
		t.Errorf("p(v5,v8) = %v, want 0.5", p)
	}
}

func TestUnifySeedsCombinesProbabilities(t *testing.T) {
	// Two seeds pointing at the same vertex: p = 1-(1-p1)(1-p2).
	g := FromEdges(3, []Edge{
		{0, 2, 0.5},
		{1, 2, 0.5},
	})
	u, super := g.UnifySeeds([]V{0, 1})
	if p := u.Prob(super, 2); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("combined seed prob = %v, want 0.75", p)
	}
	// Edges between seeds are dropped.
	g2 := FromEdges(3, []Edge{
		{0, 1, 1},
		{0, 2, 0.5},
	})
	u2, super2 := g2.UnifySeeds([]V{0, 1})
	if u2.HasEdge(super2, 1) {
		t.Fatal("edge into a seed survived unification")
	}
	if p := u2.Prob(super2, 2); p != 0.5 {
		t.Fatalf("p(s',2) = %v, want 0.5", p)
	}
}

func TestSpreadFromUnified(t *testing.T) {
	if got := SpreadFromUnified(1, 10); got != 10 {
		t.Fatalf("fully blocked unified spread of 1 with 10 seeds = %v, want 10", got)
	}
	if got := SpreadFromUnified(7.66, 1); math.Abs(got-7.66) > 1e-12 {
		t.Fatalf("single seed correction changed spread: %v", got)
	}
}

func TestTrivalencyAssignment(t *testing.T) {
	g := toy()
	r := rng.New(1)
	tr := Trivalency.Assign(g, r)
	if tr == g {
		t.Fatal("Assign returned the input graph")
	}
	valid := map[float64]bool{0.1: true, 0.01: true, 0.001: true}
	counts := map[float64]int{}
	for _, e := range tr.Edges() {
		if !valid[e.P] {
			t.Fatalf("TR edge probability %v not in {0.1,0.01,0.001}", e.P)
		}
		counts[e.P]++
		// in-view must agree with out-view
		if got := tr.Prob(e.From, e.To); got != e.P {
			t.Fatalf("TR views disagree on (%d,%d)", e.From, e.To)
		}
	}
	// Original untouched.
	if g.Prob(4, 7) != 0.5 {
		t.Fatal("Assign mutated the input graph")
	}
}

func TestTrivalencyUsesAllLevels(t *testing.T) {
	// On a larger graph all three levels should appear.
	b := NewBuilder(100)
	for i := 0; i < 99; i++ {
		b.AddEdge(V(i), V(i+1), 1)
		b.AddEdge(V(i), V((i+7)%100), 1)
	}
	tr := Trivalency.Assign(b.Build(), rng.New(2))
	counts := map[float64]int{}
	for _, e := range tr.Edges() {
		counts[e.P]++
	}
	for _, level := range []float64{0.1, 0.01, 0.001} {
		if counts[level] == 0 {
			t.Errorf("TR level %v never used across %d edges", level, tr.M())
		}
	}
}

func TestWeightedCascadeAssignment(t *testing.T) {
	g := toy()
	wc := WeightedCascade.Assign(g, nil)
	// v5 (id 4) has in-degree 2 (from v2 and v4) -> p = 0.5 on both.
	if p := wc.Prob(1, 4); p != 0.5 {
		t.Errorf("WC p(v2,v5) = %v, want 0.5", p)
	}
	if p := wc.Prob(3, 4); p != 0.5 {
		t.Errorf("WC p(v4,v5) = %v, want 0.5", p)
	}
	// v8 (id 7) has in-degree 2 -> 0.5; v7 (id 6) in-degree 1 -> 1.
	if p := wc.Prob(7, 6); p != 1 {
		t.Errorf("WC p(v8,v7) = %v, want 1", p)
	}
	// Sum of in-probabilities is 1 for every vertex with in-edges.
	for v := V(0); int(v) < wc.N(); v++ {
		if wc.InDegree(v) == 0 {
			continue
		}
		sum := 0.0
		for _, p := range wc.InProbs(v) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("WC in-prob sum for %d = %v, want 1", v, sum)
		}
	}
}

func TestProbModelString(t *testing.T) {
	if Trivalency.String() != "TR" || WeightedCascade.String() != "WC" {
		t.Fatal("unexpected model names")
	}
}

func TestKeepProbs(t *testing.T) {
	g := toy()
	if KeepProbs.Assign(g, nil) != g {
		t.Fatal("KeepProbs should return the input unchanged")
	}
}
