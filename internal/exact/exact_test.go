package exact

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func TestSpreadToyGraphExample1(t *testing.T) {
	g := fixture.Toy()
	got, err := Spread(g, fixture.Seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-fixture.ExpectedSpread) > 1e-9 {
		t.Fatalf("exact spread = %v, want %v", got, fixture.ExpectedSpread)
	}
}

func TestSpreadToyWithBlockers(t *testing.T) {
	g := fixture.Toy()
	cases := []struct {
		block []graph.V
		want  float64
	}{
		{[]graph.V{fixture.V5}, 3},
		{[]graph.V{fixture.V2}, 6.66},
		{[]graph.V{fixture.V4}, 6.66},
		{[]graph.V{fixture.V2, fixture.V4}, 1},
		{[]graph.V{fixture.V3}, 6.66},
		{[]graph.V{fixture.V2, fixture.V3}, 5.66},
		{[]graph.V{fixture.V3, fixture.V4}, 5.66},
		{[]graph.V{fixture.V2, fixture.V3, fixture.V4}, 1},
		{[]graph.V{fixture.V8}, 7},
		{[]graph.V{fixture.V9}, 7.66 - 1.11},
	}
	for _, c := range cases {
		blocked := make([]bool, g.N())
		for _, v := range c.block {
			blocked[v] = true
		}
		got, err := Spread(g, fixture.Seed, blocked, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("block %v: spread = %v, want %v", c.block, got, c.want)
		}
	}
}

func TestSpreadBlockedSource(t *testing.T) {
	g := fixture.Toy()
	blocked := make([]bool, g.N())
	blocked[fixture.Seed] = true
	got, err := Spread(g, fixture.Seed, blocked, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("spread with blocked source = %v, want 0", got)
	}
}

func TestActivationProbabilities(t *testing.T) {
	g := fixture.Toy()
	cases := map[graph.V]float64{
		fixture.V1: 1,
		fixture.V2: 1,
		fixture.V5: 1,
		fixture.V9: 1,
		fixture.V8: fixture.ProbV8,
		fixture.V7: fixture.ProbV7,
	}
	for v, want := range cases {
		got, err := ActivationProbability(g, fixture.Seed, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("P(v%d) = %v, want %v", v+1, got, want)
		}
	}
}

func TestSpreadIsSumOfActivationProbabilities(t *testing.T) {
	// Definition 3: E(S,G) = Σ_u P_G(u, S).
	g := fixture.Toy()
	sum := 0.0
	for v := graph.V(0); int(v) < g.N(); v++ {
		p, err := ActivationProbability(g, fixture.Seed, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	spread, err := Spread(g, fixture.Seed, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-spread) > 1e-9 {
		t.Fatalf("Σ P(u) = %v but spread = %v", sum, spread)
	}
}

func TestSpreadSeedsMultiSeed(t *testing.T) {
	// Two seeds covering the toy graph's v2 and v4: spread is the same as
	// seeding v1 except v1 itself is not activated: 7.66 - 1 + 1 = 7.66
	// minus v1's contribution (1) plus two seeds (2) ... compute directly:
	// seeds {v2,v4} reach v5 w.p.1, then v3,v6,v9 w.p.1, v8 0.6, v7 0.06:
	// spread = 2 + 1 + 3 + 0.66 = 6.66.
	g := fixture.Toy()
	got, err := SpreadSeeds(g, []graph.V{fixture.V2, fixture.V4}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-6.66) > 1e-9 {
		t.Fatalf("multi-seed spread = %v, want 6.66", got)
	}
	// Blocking v5 isolates both seeds: spread 2.
	got, err = SpreadSeeds(g, []graph.V{fixture.V2, fixture.V4}, []graph.V{fixture.V5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("multi-seed blocked spread = %v, want 2", got)
	}
}

// A repeated seed is one seed: seeds 0 and 1 each reach 2 w.p. 0.5, so 2 is
// active w.p. 0.75 and 3 w.p. 0.375, for a spread of 3.125 whether seed 0
// is listed once or twice.
func TestSpreadSeedsRepeatedSeed(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 2, P: 0.5}, {From: 1, To: 2, P: 0.5}, {From: 2, To: 3, P: 0.5}})
	for _, seeds := range [][]graph.V{{0, 1}, {0, 0, 1}, {1, 0, 1, 0}} {
		got, err := SpreadSeeds(g, seeds, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != 3.125 {
			t.Errorf("seeds %v: spread = %v, want 3.125", seeds, got)
		}
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A dense random graph with many probabilistic edges and a budget of 1
	// node must abort with ErrBudget.
	r := rng.New(1)
	b := graph.NewBuilder(12)
	for i := 0; i < 60; i++ {
		b.AddEdge(graph.V(r.Intn(12)), graph.V(r.Intn(12)), 0.5)
	}
	g := b.Build()
	if _, err := Spread(g, 0, nil, 1); err != ErrBudget {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestSolveIMINToy(t *testing.T) {
	g := fixture.Toy()
	eval := EvalExact(g, fixture.Seed, 0)

	// b=1: optimal blocker is v5 with spread 3 (Example 1).
	res, err := SolveIMIN(g, fixture.Seed, 1, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blockers) != 1 || res.Blockers[0] != fixture.V5 {
		t.Fatalf("b=1 blockers = %v, want [v5]", res.Blockers)
	}
	if math.Abs(res.Spread-3) > 1e-9 {
		t.Fatalf("b=1 spread = %v, want 3", res.Spread)
	}
	if res.Evaluated != 8 {
		t.Fatalf("b=1 evaluated %d sets, want 8", res.Evaluated)
	}

	// b=2: optimal is {v2,v4} with spread 1 (Table III).
	res, err = SolveIMIN(g, fixture.Seed, 2, nil, eval)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Spread-1) > 1e-9 {
		t.Fatalf("b=2 spread = %v, want 1", res.Spread)
	}
	got := map[graph.V]bool{}
	for _, v := range res.Blockers {
		got[v] = true
	}
	if !got[fixture.V2] || !got[fixture.V4] {
		t.Fatalf("b=2 blockers = %v, want {v2,v4}", res.Blockers)
	}
}

func TestSolveIMINZeroBudget(t *testing.T) {
	g := fixture.Toy()
	res, err := SolveIMIN(g, fixture.Seed, 0, nil, EvalExact(g, fixture.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blockers) != 0 || math.Abs(res.Spread-fixture.ExpectedSpread) > 1e-9 {
		t.Fatalf("b=0: %+v", res)
	}
}

func TestSolveIMINBudgetExceedsCandidates(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1, P: 0.5}, {From: 1, To: 2, P: 0.5}})
	res, err := SolveIMIN(g, 0, 10, nil, EvalExact(g, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blockers) != 2 || res.Spread != 1 {
		t.Fatalf("oversized budget: %+v", res)
	}
}

func TestSolveIMINRejectsSourceCandidate(t *testing.T) {
	g := fixture.Toy()
	_, err := SolveIMIN(g, fixture.Seed, 1, []graph.V{fixture.Seed}, EvalExact(g, fixture.Seed, 0))
	if err == nil {
		t.Fatal("want error for source in candidates")
	}
}

func TestForEachCombination(t *testing.T) {
	var got [][]int
	forEachCombination(4, 2, func(idx []int) bool {
		got = append(got, append([]int(nil), idx...))
		return true
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d combinations, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("combination %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	// Early stop.
	count := 0
	forEachCombination(5, 3, func([]int) bool { count++; return count < 4 })
	if count != 4 {
		t.Fatalf("early stop visited %d", count)
	}
	// Degenerate cases.
	forEachCombination(3, 0, func([]int) bool { t.Fatal("k=0 must not call fn"); return false })
	forEachCombination(2, 3, func([]int) bool { t.Fatal("k>n must not call fn"); return false })
}

// Property: exact spread agrees with high-round Monte-Carlo estimation on
// random small graphs — the two implementations validate each other.
func TestExactMatchesMonteCarloProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(8) + 3
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(5))*0.25)
		}
		g := b.Build()
		want, err := Spread(g, 0, nil, 0)
		if err != nil {
			return true // too hard for the budget: nothing to check
		}
		ic := cascade.NewIC(g)
		got := cascade.EstimateSpread(ic, 0, nil, 60000, rng.New(seed+1))
		if math.Abs(got-want) > 0.15 {
			t.Logf("seed=%d n=%d: exact=%v mcs=%v", seed, n, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: spread is monotone non-increasing as blockers are added
// (Theorem 2's monotonicity), verified exactly.
func TestExactMonotonicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(7) + 3
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), r.Float64())
		}
		g := b.Build()
		blocked := make([]bool, n)
		prev, err := Spread(g, 0, blocked, 200000)
		if err != nil {
			return true
		}
		order := r.Perm(n - 1)
		for _, oi := range order[:min(3, len(order))] {
			blocked[oi+1] = true
			cur, err := Spread(g, 0, blocked, 200000)
			if err != nil {
				return true
			}
			if cur > prev+1e-9 {
				t.Logf("seed=%d: spread rose from %v to %v", seed, prev, cur)
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 2's counterexample: the spread function is not supermodular.
func TestNotSupermodularOnToy(t *testing.T) {
	g := fixture.Toy()
	f := func(block ...graph.V) float64 {
		blocked := make([]bool, g.N())
		for _, v := range block {
			blocked[v] = true
		}
		s, err := Spread(g, fixture.Seed, blocked, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fX := f(fixture.V3)
	fY := f(fixture.V2, fixture.V3)
	fXx := f(fixture.V3, fixture.V4)
	fYx := f(fixture.V2, fixture.V3, fixture.V4)
	if math.Abs(fX-6.66) > 1e-9 || math.Abs(fY-5.66) > 1e-9 ||
		math.Abs(fXx-5.66) > 1e-9 || math.Abs(fYx-1) > 1e-9 {
		t.Fatalf("unexpected spreads: %v %v %v %v", fX, fY, fXx, fYx)
	}
	// Supermodularity would require f(X∪{x})-f(X) ≤ f(Y∪{x})-f(Y);
	// here -1 > -4.66, violating it.
	if !(fXx-fX > fYx-fY) {
		t.Fatal("expected supermodularity violation per Theorem 2")
	}
}

func BenchmarkExactSpreadToy(b *testing.B) {
	g := fixture.Toy()
	for i := 0; i < b.N; i++ {
		if _, err := Spread(g, fixture.Seed, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// ActivationProbability computes the exact probability that vertex x is
// activated from src: P_G(x, {src}) from Definition 1, by conditioning the
// same way as Spread but scoring membership of x instead of counting. It is
// the oracle TestSpreadIsSumOfActivationProbabilities checks Spread against
// (Definition 3).
func ActivationProbability(g *graph.Graph, src, x graph.V, nodeBudget int) (float64, error) {
	if nodeBudget <= 0 {
		nodeBudget = DefaultNodeBudget
	}
	if src == x {
		return 1, nil
	}
	sc := &spreadComputer{
		g:        g,
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
	for u := graph.V(0); int(u) < g.N(); u++ {
		ps := g.OutProbs(u)
		for i, p := range ps {
			if p <= 0 {
				sc.state[sc.edgeBase[u]+int32(i)] = dead
			}
		}
	}
	return sc.recurseProb(src, x)
}

// recurseProb evaluates P(x reachable | current edge states).
func (sc *spreadComputer) recurseProb(src, x graph.V) (float64, error) {
	sc.budget--
	if sc.budget < 0 {
		return 0, ErrBudget
	}
	reached := sc.reach(src)
	if sc.seen[x] {
		return 1, nil
	}
	frontierEdge := int32(-1)
	var frontierU graph.V
	var frontierI int
	for _, u := range sc.queue[:reached] {
		to := sc.g.OutNeighbors(u)
		ps := sc.g.OutProbs(u)
		for i, v := range to {
			ei := sc.edgeBase[u] + int32(i)
			if sc.state[ei] != undecided || ps[i] >= 1 || sc.seen[v] {
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
		return 0, nil // x unreachable and the reachable set is final
	}
	p := sc.g.OutProbs(frontierU)[frontierI]
	sc.state[frontierEdge] = live
	pLive, err := sc.recurseProb(src, x)
	if err != nil {
		sc.state[frontierEdge] = undecided
		return 0, err
	}
	sc.state[frontierEdge] = dead
	pDead, err := sc.recurseProb(src, x)
	sc.state[frontierEdge] = undecided
	if err != nil {
		return 0, err
	}
	return p*pLive + (1-p)*pDead, nil
}
