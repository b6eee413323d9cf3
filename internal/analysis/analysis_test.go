package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func TestSCCOnDAG(t *testing.T) {
	// The toy graph is a DAG: every vertex is its own component.
	g := fixture.Toy()
	r := StronglyConnectedComponents(g)
	if r.Count != g.N() {
		t.Fatalf("DAG has %d SCCs, want %d", r.Count, g.N())
	}
	for _, s := range r.Sizes {
		if s != 1 {
			t.Fatal("DAG component with size > 1")
		}
	}
}

func TestSCCOnCycle(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 3, 1) // 3 hangs off the cycle
	g := b.Build()
	r := StronglyConnectedComponents(g)
	if r.Count != 2 {
		t.Fatalf("got %d SCCs, want 2", r.Count)
	}
	if r.Comp[0] != r.Comp[1] || r.Comp[1] != r.Comp[2] {
		t.Error("cycle vertices not in one component")
	}
	if r.Comp[3] == r.Comp[0] {
		t.Error("tail vertex merged into cycle")
	}
}

func TestSCCReverseTopologicalNumbering(t *testing.T) {
	// Tarjan numbers components in reverse topological order: every edge
	// crossing components goes from higher to lower component id.
	g := fixture.Toy()
	r := StronglyConnectedComponents(g)
	for _, e := range g.Edges() {
		if r.Comp[e.From] != r.Comp[e.To] && r.Comp[e.From] < r.Comp[e.To] {
			t.Fatalf("edge (%d,%d) goes from comp %d to comp %d", e.From, e.To, r.Comp[e.From], r.Comp[e.To])
		}
	}
}

func TestSCCDeepPathIterative(t *testing.T) {
	n := 150000
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1), 1)
	}
	r := StronglyConnectedComponents(b.Build())
	if r.Count != n {
		t.Fatalf("deep path: %d SCCs, want %d", r.Count, n)
	}
}

func TestWCC(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 1, 1) // 0,1,2 weakly connected despite directions
	b.AddEdge(3, 4, 1)
	// 5 isolated
	g := b.Build()
	r := WeaklyConnectedComponents(g)
	if r.Count != 3 {
		t.Fatalf("got %d WCCs, want 3", r.Count)
	}
	if r.Comp[0] != r.Comp[1] || r.Comp[1] != r.Comp[2] {
		t.Error("weak component 0-1-2 split")
	}
	if r.Comp[3] != r.Comp[4] {
		t.Error("weak component 3-4 split")
	}
	if r.Comp[5] == r.Comp[0] || r.Comp[5] == r.Comp[3] {
		t.Error("isolated vertex merged")
	}
	total := int32(0)
	for _, s := range r.Sizes {
		total += s
	}
	if total != 6 {
		t.Errorf("sizes sum to %d", total)
	}
}

func TestLargestComponentFraction(t *testing.T) {
	r := &SCCResult{Sizes: []int32{3, 5, 2}}
	if f := r.LargestComponentFraction(10); f != 0.5 {
		t.Fatalf("fraction = %v, want 0.5", f)
	}
	if f := (&SCCResult{}).LargestComponentFraction(0); f != 0 {
		t.Fatalf("empty graph fraction = %v", f)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := fixture.Toy()
	hist := DegreeHistogram(g)
	total := 0
	weighted := 0
	for d, c := range hist {
		total += c
		weighted += d * c
	}
	if total != g.N() {
		t.Fatalf("histogram covers %d vertices", total)
	}
	if weighted != 2*g.M() {
		t.Fatalf("degree mass %d, want %d", weighted, 2*g.M())
	}
	// v5 has total degree 6 and is the unique maximum.
	if hist[6] != 1 || len(hist) != 7 {
		t.Fatalf("max-degree bucket wrong: %v", hist)
	}
}

func TestPowerLawAlphaDiscriminates(t *testing.T) {
	// Preferential attachment → heavy tail (α roughly in [1.5, 3.5]);
	// Erdős–Rényi → Poisson tail, so the α estimate explodes once dmin
	// sits past the mode. Both graphs have mean total degree ≈ 6; probing
	// at dmin = 12 (2× the mean) separates the two regimes cleanly.
	pa := datasets.PreferentialAttachment(5000, 3, true, rng.New(1))
	er := datasets.ErdosRenyi(5000, 15000, true, rng.New(2))
	aPA := PowerLawAlpha(pa, 12)
	aER := PowerLawAlpha(er, 12)
	if math.IsNaN(aPA) || math.IsNaN(aER) {
		t.Fatalf("alpha NaN: pa=%v er=%v", aPA, aER)
	}
	if aPA > 4 {
		t.Errorf("PA alpha %v too large for a heavy tail", aPA)
	}
	if aER < aPA+1 {
		t.Errorf("ER alpha %v should clearly exceed PA alpha %v", aER, aPA)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1, P: 1}})
	if !math.IsNaN(PowerLawAlpha(g, 1)) {
		t.Fatal("tiny graph must return NaN")
	}
}

// Property: SCC and WCC component counts are consistent — each weak
// component contains at least one strong component, and SCC count ≥ WCC
// count; condensation acyclicity holds via the numbering invariant.
func TestComponentsConsistencyProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := rng.New(seed)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), 1)
		}
		g := b.Build()
		scc := StronglyConnectedComponents(g)
		wcc := WeaklyConnectedComponents(g)
		if scc.Count < wcc.Count {
			return false
		}
		// Vertices in the same SCC must share a WCC.
		for _, e := range g.Edges() {
			if scc.Comp[e.From] == scc.Comp[e.To] && wcc.Comp[e.From] != wcc.Comp[e.To] {
				return false
			}
			// Condensation numbering invariant.
			if scc.Comp[e.From] < scc.Comp[e.To] {
				return false
			}
		}
		// Sizes sum to n in both.
		sum := func(xs []int32) int32 {
			var s int32
			for _, x := range xs {
				s += x
			}
			return s
		}
		return sum(scc.Sizes) == int32(n) && sum(wcc.Sizes) == int32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two vertices share an SCC iff each reaches the other.
func TestSCCDefinitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12
		r := rng.New(seed)
		b := graph.NewBuilder(n)
		for i := 0; i < 25; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), 1)
		}
		g := b.Build()
		scc := StronglyConnectedComponents(g)
		for u := graph.V(0); int(u) < n; u++ {
			ru := reachable(g, u)
			for v := graph.V(0); int(v) < n; v++ {
				rv := reachable(g, v)
				mutual := ru[v] && rv[u]
				same := scc.Comp[u] == scc.Comp[v]
				if mutual != same {
					t.Logf("seed=%d u=%d v=%d mutual=%v same=%v", seed, u, v, mutual, same)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// reachable marks every vertex reachable from src over the full edge set,
// src included.
func reachable(g *graph.Graph, src graph.V) []bool {
	seen := make([]bool, g.N())
	seen[src] = true
	stack := []graph.V{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.OutNeighbors(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

func BenchmarkSCC(b *testing.B) {
	g := datasets.PreferentialAttachment(20000, 4, true, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StronglyConnectedComponents(g)
	}
}
