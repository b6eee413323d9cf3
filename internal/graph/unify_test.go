package graph_test

import (
	"math"
	"testing"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// assertSameCSR fails unless a and b have the same vertex count and the
// same out- and in-CSR, probabilities compared bit for bit.
func assertSameCSR(t testing.TB, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape: %v vs %v", a, b)
	}
	sameRow := func(dir string, u graph.V, at, bt []graph.V, ap, bp []float64) {
		if len(at) != len(bt) {
			t.Fatalf("%s row %d: degree %d vs %d", dir, u, len(at), len(bt))
		}
		for i := range at {
			if at[i] != bt[i] || math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
				t.Fatalf("%s row %d slot %d: (%d, %v) vs (%d, %v)", dir, u, i, at[i], ap[i], bt[i], bp[i])
			}
		}
	}
	for u := graph.V(0); int(u) < a.N(); u++ {
		sameRow("out", u, a.OutNeighbors(u), b.OutNeighbors(u), a.OutProbs(u), b.OutProbs(u))
		sameRow("in", u, a.InNeighbors(u), b.InNeighbors(u), a.InProbs(u), b.InProbs(u))
	}
}

// firstAppearance returns seeds with repeats removed, keeping each seed's
// first position.
func firstAppearance(seeds []graph.V) []graph.V {
	seen := map[graph.V]bool{}
	var out []graph.V
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// assertMatchesOracle checks UnifySeeds(seeds) against the Builder-based
// oracle run on the deduplicated list.
func assertMatchesOracle(t testing.TB, g *graph.Graph, seeds []graph.V) {
	t.Helper()
	got, gotSuper := g.UnifySeeds(seeds)
	want, wantSuper := graph.UnifySeedsOracle(g, firstAppearance(seeds))
	if gotSuper != wantSuper {
		t.Fatalf("seeds %v: super-seed %d, oracle %d", seeds, gotSuper, wantSuper)
	}
	assertSameCSR(t, got, want)
}

// scatter renumbers g's vertices into [0, n+extra) by a random injection,
// so isolated vertices sit anywhere in the id range, and reassigns every
// probability by the given model: 0 trivalency, 1 uniform in [0,1), 2 a
// mix of 0, 1 and uniform values, 3 weighted cascade.
func scatter(g *graph.Graph, extra, model int, r *rng.Source) *graph.Graph {
	n := g.N() + extra
	perm := r.Perm(n)
	b := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		p := r.Float64()
		if model == 2 {
			switch r.Intn(3) {
			case 0:
				p = 0
			case 1:
				p = 1
			}
		}
		b.AddEdge(graph.V(perm[e.From]), graph.V(perm[e.To]), p)
	}
	out := b.Build()
	switch model {
	case 0:
		return graph.Trivalency.Assign(out, r)
	case 3:
		return graph.WeightedCascade.Assign(out, r)
	}
	return out
}

// seedCases lists the seed sets the oracle comparison covers on g: a single
// seed, a random set, an adjacent pair, the vertices with no out-edges, and
// every vertex but one.
func seedCases(g *graph.Graph, r *rng.Source) [][]graph.V {
	n := g.N()
	cases := [][]graph.V{{graph.V(r.Intn(n))}}

	var set []graph.V
	for _, v := range r.Perm(n)[:1+r.Intn(n-1)] {
		set = append(set, graph.V(v))
	}
	cases = append(cases, set)

	if g.M() > 0 {
		e := g.EdgeAt(r.Intn(g.M()))
		cases = append(cases, []graph.V{e.To, e.From})
	}

	var sinks []graph.V
	for u := graph.V(0); int(u) < n; u++ {
		if g.OutDegree(u) == 0 {
			sinks = append(sinks, u)
		}
	}
	if len(sinks) > 0 {
		cases = append(cases, sinks)
	}

	skip := graph.V(r.Intn(n))
	var allBut []graph.V
	for u := graph.V(n - 1); u >= 0; u-- {
		if u != skip {
			allBut = append(allBut, u)
		}
	}
	return append(cases, allBut)
}

// Property: the direct CSR construction is bit-identical to the Builder
// oracle on random preferential-attachment and Erdős–Rényi graphs of 2 to
// 300 vertices, across probability models and seed-set shapes.
func TestUnifySeedsMatchesOracle(t *testing.T) {
	r := rng.New(0x5eed)
	for trial := 0; trial < 240; trial++ {
		n := 2 + r.Intn(299)
		var g *graph.Graph
		if trial%2 == 0 {
			g = datasets.PreferentialAttachment(n, 0.5+4*r.Float64(), r.Bernoulli(0.8), r)
		} else {
			g = datasets.ErdosRenyi(n, r.Intn(5*n), true, r)
		}
		extra := 0
		if r.Bernoulli(0.5) {
			extra = r.Intn(n/4 + 2)
		}
		g = scatter(g, extra, trial%4, r)
		for _, seeds := range seedCases(g, r) {
			assertMatchesOracle(t, g, seeds)
		}
	}
}

// A repeated seed is folded in once: the unified graph of [a,a,b] is that
// of [a,b], and the combined probability counts each seed's edge once.
func TestUnifySeedsFoldsRepeatedSeedOnce(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 2, P: 0.5}, {From: 1, To: 2, P: 0.5}, {From: 2, To: 3, P: 0.5}})
	rep, super := g.UnifySeeds([]graph.V{0, 0, 1})
	dist, _ := g.UnifySeeds([]graph.V{0, 1})
	assertSameCSR(t, rep, dist)
	if p := rep.Prob(super, 2); p != 0.75 {
		t.Fatalf("p(s',2) = %v, want 0.75", p)
	}

	r := rng.New(7)
	big := scatter(datasets.PreferentialAttachment(200, 3, true, r), 10, 0, r)
	a, b := graph.V(5), graph.V(17)
	x, _ := big.UnifySeeds([]graph.V{a, a, b, a, b})
	y, _ := big.UnifySeeds([]graph.V{a, b})
	assertSameCSR(t, x, y)
}

// A zero-probability seed edge still lists its target once: the next seed's
// edge into the same target must not add the super-seed edge a second time.
func TestUnifySeedsZeroProbabilityFirstEdge(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 2, P: 0}, {From: 1, To: 2, P: 0.5}})
	for _, seeds := range [][]graph.V{{0, 1}, {1, 0}} {
		u, super := g.UnifySeeds(seeds)
		if p := u.Prob(super, 2); p != 0.5 {
			t.Fatalf("seeds %v: p(s',2) = %v, want 0.5", seeds, p)
		}
		assertMatchesOracle(t, g, seeds)
	}
}

// FuzzUnifySeeds decodes a graph of up to 64 vertices (three bytes per
// edge: source, target, probability/255) and a seed list (one byte per
// seed, repeats allowed), then compares UnifySeeds with the oracle.
func FuzzUnifySeeds(f *testing.F) {
	f.Add(uint8(3), []byte{0, 2, 128, 1, 2, 128, 2, 0, 255}, []byte{0, 1})
	f.Add(uint8(4), []byte{0, 2, 0, 1, 2, 128, 2, 3, 128}, []byte{0, 0, 1})
	f.Add(uint8(5), []byte{0, 1, 255, 1, 0, 255, 1, 2, 10, 3, 4, 200}, []byte{1, 0})
	f.Add(uint8(6), []byte{}, []byte{5})
	f.Add(uint8(2), []byte{0, 1, 1}, []byte{0, 1})
	f.Fuzz(func(t *testing.T, nRaw uint8, edges, seedBytes []byte) {
		n := 1 + int(nRaw%64)
		if len(seedBytes) == 0 || len(seedBytes) > 4*n {
			return
		}
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(edges); i += 3 {
			b.AddEdge(graph.V(int(edges[i])%n), graph.V(int(edges[i+1])%n), float64(edges[i+2])/255)
		}
		g := b.Build()
		seeds := make([]graph.V, len(seedBytes))
		for i, s := range seedBytes {
			seeds[i] = graph.V(int(s) % n)
		}
		assertMatchesOracle(t, g, seeds)
	})
}

// BenchmarkUnifySeeds unifies 10 random seeds of the serving-size graph:
// directed preferential attachment, 20k vertices, 5 out-edges per vertex,
// trivalency probabilities.
func BenchmarkUnifySeeds(b *testing.B) {
	g := datasets.PreferentialAttachment(20000, 5, true, rng.New(1))
	g = graph.Trivalency.Assign(g, rng.New(2))
	seeds, err := datasets.RandomSeeds(g, 10, true, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		g.UnifySeeds(seeds)
	}
}
