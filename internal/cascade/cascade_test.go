package cascade

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func TestICEstimateMatchesPaperExample1(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	got := EstimateSpread(ic, fixture.Seed, nil, 200000, rng.New(1))
	if math.Abs(got-fixture.ExpectedSpread) > 0.03 {
		t.Fatalf("E({v1},G) estimate = %v, want %v", got, fixture.ExpectedSpread)
	}
}

func TestICEstimateWithBlockers(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	r := rng.New(2)
	cases := []struct {
		name  string
		block []graph.V
		want  float64
	}{
		{"block v5", []graph.V{fixture.V5}, fixture.SpreadBlockV5},
		{"block v2", []graph.V{fixture.V2}, fixture.SpreadBlockV2},
		{"block v4", []graph.V{fixture.V4}, fixture.SpreadBlockV2},
		{"block v2,v4", []graph.V{fixture.V2, fixture.V4}, fixture.SpreadBlockV2V4},
		{"block v2,v3", []graph.V{fixture.V2, fixture.V3}, 5.66},
		{"block v2,v3,v4", []graph.V{fixture.V2, fixture.V3, fixture.V4}, 1},
	}
	for _, c := range cases {
		blocked := make([]bool, g.N())
		for _, v := range c.block {
			blocked[v] = true
		}
		got := EstimateSpread(ic, fixture.Seed, blocked, 100000, r)
		if math.Abs(got-c.want) > 0.04 {
			t.Errorf("%s: spread = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestICSampleStructure(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	r := rng.New(3)
	counts := map[int]int{}
	const rounds = 50000
	for i := 0; i < rounds; i++ {
		sg := ic.Sample(fixture.Seed, nil, r, ws)
		counts[sg.N]++
		if sg.Orig[0] != fixture.Seed {
			t.Fatal("local id 0 is not the source")
		}
		if int(sg.OutStart[sg.N]) != len(sg.OutTo) {
			t.Fatal("out CSR bounds corrupt")
		}
		if len(sg.OutTo) != len(sg.InTo) {
			t.Fatal("in/out edge counts differ")
		}
		// Every vertex except the source must have an in-edge (it was
		// reached through one).
		indeg := make([]int, sg.N)
		for _, v := range sg.InTo {
			_ = v
		}
		for lv := 0; lv < sg.N; lv++ {
			indeg[lv] = int(sg.InStart[lv+1] - sg.InStart[lv])
		}
		for lv := 1; lv < sg.N; lv++ {
			if indeg[lv] == 0 {
				t.Fatalf("reached vertex %d (orig %d) has no live in-edge", lv, sg.Orig[lv])
			}
		}
	}
	// The toy graph has 7 certain vertices; v8 joins with p=0.6 and v7 with
	// p=0.06. So K ∈ {7, 8, 9} with P(7)=0.4, P(8)=0.54, P(9)=0.06.
	for k, want := range map[int]float64{7: 0.4, 8: 0.54, 9: 0.06} {
		got := float64(counts[k]) / rounds
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(K=%d) = %v, want %v", k, got, want)
		}
	}
	for k := range counts {
		if k != 7 && k != 8 && k != 9 {
			t.Errorf("impossible sample size K=%d", k)
		}
	}
}

func TestICSampleRespectsBlocked(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	r := rng.New(4)
	blocked := make([]bool, g.N())
	blocked[fixture.V5] = true
	for i := 0; i < 1000; i++ {
		sg := ic.Sample(fixture.Seed, blocked, r, ws)
		if sg.N != 3 {
			t.Fatalf("blocking v5: sample K = %d, want 3", sg.N)
		}
		for _, v := range sg.Orig[:sg.N] {
			if v == fixture.V5 {
				t.Fatal("blocked vertex appeared in sample")
			}
		}
	}
}

func TestICCertainGraphSampleIsExactReachability(t *testing.T) {
	// With all probabilities 1 every sample is the full reachable set with
	// every edge live.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1}, {From: 0, To: 2, P: 1}, {From: 3, To: 4, P: 1},
	})
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	r := rng.New(5)
	sg := ic.Sample(0, nil, r, ws)
	if sg.N != 3 {
		t.Fatalf("K = %d, want 3", sg.N)
	}
	if len(sg.OutTo) != 3 {
		t.Fatalf("live edges = %d, want 3", len(sg.OutTo))
	}
}

func TestWorkspaceReuseIsClean(t *testing.T) {
	// Two consecutive samples must not leak state between rounds: sampling a
	// disconnected source after a well-connected one yields K=1.
	g := fixture.Toy()
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	r := rng.New(6)
	_ = ic.Sample(fixture.Seed, nil, r, ws)
	sg := ic.Sample(fixture.V7, nil, r, ws) // v7 has no out-edges
	if sg.N != 1 || sg.Orig[0] != fixture.V7 {
		t.Fatalf("stale workspace: K=%d orig0=%d", sg.N, sg.Orig[0])
	}
}

func TestEpochWrapHardReset(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	ws.epoch = math.MaxInt32 - 1
	r := rng.New(7)
	for i := 0; i < 4; i++ { // crosses the wrap
		sg := ic.Sample(fixture.Seed, nil, r, ws)
		if sg.N < 7 || sg.N > 9 {
			t.Fatalf("sample across epoch wrap has K=%d", sg.N)
		}
	}
}

// TestEpochWrapForgetsEveryStamp samples across the wrap of the epoch
// counter to 0. Vertices the first sample did not reach must not read as
// reached once the counter comes back to the value the wrap left in their
// stamps: the last sample of the cycle must match a fresh workspace's.
func TestEpochWrapForgetsEveryStamp(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	blocked := make([]bool, g.N())
	blocked[fixture.V5] = true

	ws := ic.NewWorkspace()
	ws.epoch = -1 // the next sample wraps the counter to 0
	ic.Sample(fixture.Seed, blocked, rng.New(8), ws)
	ws.epoch = -2 // the next sample runs at epoch -1
	got := append([]graph.V(nil), ic.Sample(fixture.Seed, nil, rng.New(9), ws).Orig...)

	want := ic.Sample(fixture.Seed, nil, rng.New(9), ic.NewWorkspace()).Orig
	if !slices.Equal(got, want) {
		t.Fatalf("sample at epoch -1 after a wrap reached %v, a fresh workspace %v", got, want)
	}
}

func TestSimulateCountDistribution(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	ws := ic.NewWorkspace()
	r := rng.New(8)
	sum := 0
	const rounds = 100000
	for i := 0; i < rounds; i++ {
		c := ic.SimulateCount(fixture.Seed, nil, r, ws)
		if c < 7 || c > 9 {
			t.Fatalf("impossible spread count %d", c)
		}
		sum += c
	}
	got := float64(sum) / rounds
	if math.Abs(got-fixture.ExpectedSpread) > 0.03 {
		t.Fatalf("mean spread %v, want %v", got, fixture.ExpectedSpread)
	}
}

func TestEstimateSpreadParallelMatchesSequential(t *testing.T) {
	g := fixture.Toy()
	ic := NewIC(g)
	seq := EstimateSpreadParallel(ic, fixture.Seed, nil, 50000, 1, rng.New(9), nil)
	par := EstimateSpreadParallel(ic, fixture.Seed, nil, 50000, 8, rng.New(9), nil)
	if math.Abs(seq-fixture.ExpectedSpread) > 0.05 {
		t.Errorf("sequential estimate off: %v", seq)
	}
	if math.Abs(par-fixture.ExpectedSpread) > 0.05 {
		t.Errorf("parallel estimate off: %v", par)
	}
	// Determinism for fixed seed/workers.
	par2 := EstimateSpreadParallel(ic, fixture.Seed, nil, 50000, 8, rng.New(9), nil)
	if par != par2 {
		t.Error("parallel estimate is not deterministic for fixed seed")
	}
}

// TestEstimateSpreadParallelReusesScratch checks that kept Workspaces
// change no estimate. Calls that reuse them equal calls that allocate their
// own: across sampler types (LT needs arrays IC's workspaces lack), on a
// larger graph (which outgrows them) and on a smaller one (which they
// serve as they are, without a new allocation).
func TestEstimateSpreadParallelReusesScratch(t *testing.T) {
	toy := fixture.Toy()
	b := graph.NewBuilder(3 * toy.N())
	for u := graph.V(0); int(u) < toy.N(); u++ {
		for i, v := range toy.OutNeighbors(u) {
			b.AddEdge(u, v, toy.OutProbs(u)[i])
		}
	}
	b.AddEdge(fixture.Seed, graph.V(3*toy.N()-1), 0.5)
	big := b.Build()
	var scratch Workspaces
	for _, workers := range []int{1, 3} {
		for _, s := range []LiveSampler{NewIC(toy), NewIC(big), NewLT(toy), NewIC(big), NewIC(toy)} {
			want := EstimateSpreadParallel(s, fixture.Seed, nil, 3000, workers, rng.New(11), nil)
			if got := EstimateSpreadParallel(s, fixture.Seed, nil, 3000, workers, rng.New(11), &scratch); got != want {
				t.Fatalf("workers %d, %T over %d vertices: %v with kept workspaces, %v without",
					workers, s, s.N(), got, want)
			}
		}
	}
	kept := slices.Clone(scratch.ws)
	EstimateSpreadParallel(NewIC(toy), fixture.Seed, nil, 3000, 3, rng.New(12), &scratch)
	if !slices.Equal(scratch.ws, kept) {
		t.Fatal("a smaller graph of the same sampler type replaced the kept workspaces")
	}
}

func TestSpreadEstimatorIndependentCalls(t *testing.T) {
	g := fixture.Toy()
	est := &SpreadEstimator{Sampler: NewIC(g), Rounds: 20000, Workers: 4}
	base := rng.New(10)
	a := est.Spread(fixture.Seed, nil, base, 0)
	b := est.Spread(fixture.Seed, nil, base, 1)
	if a == b {
		t.Error("different call ids produced identical estimates (streams not split)")
	}
	for _, v := range []float64{a, b} {
		if math.Abs(v-fixture.ExpectedSpread) > 0.1 {
			t.Errorf("estimator value %v too far from %v", v, fixture.ExpectedSpread)
		}
	}
}

func TestLTSampleTreeStructure(t *testing.T) {
	g := graph.WeightedCascade.Assign(fixture.Toy(), nil)
	lt := NewLT(g)
	ws := lt.NewWorkspace()
	r := rng.New(11)
	for i := 0; i < 5000; i++ {
		sg := lt.Sample(fixture.Seed, nil, r, ws)
		// LT live-edge graphs have in-degree ≤ 1 everywhere: the reachable
		// subgraph is a tree, so edges = K-1.
		if len(sg.OutTo) != sg.N-1 {
			t.Fatalf("LT sample is not a tree: K=%d edges=%d", sg.N, len(sg.OutTo))
		}
		for lv := 1; lv < sg.N; lv++ {
			if d := sg.InStart[lv+1] - sg.InStart[lv]; d != 1 {
				t.Fatalf("LT vertex with in-degree %d", d)
			}
		}
	}
}

func TestLTSpreadOnPathGraph(t *testing.T) {
	// Path 0→1→2 with w=1 each: LT spread from 0 is always 3.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1}})
	lt := NewLT(g)
	got := EstimateSpread(lt, 0, nil, 1000, rng.New(12))
	if got != 3 {
		t.Fatalf("LT path spread = %v, want 3", got)
	}
}

func TestLTChoiceFrequencies(t *testing.T) {
	// v2 has two in-edges with w=0.3 (from 0) and w=0.2 (from 1); both
	// sources always active. P(activate v2) = 0.5.
	g := graph.FromEdges(4, []graph.Edge{
		{From: 3, To: 0, P: 1}, {From: 3, To: 1, P: 1},
		{From: 0, To: 2, P: 0.3}, {From: 1, To: 2, P: 0.2},
	})
	lt := NewLT(g)
	got := EstimateSpread(lt, 3, nil, 200000, rng.New(13))
	// Always reaches 3 vertices (3, 0, 1); +1 with prob 0.5.
	want := 3.5
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("LT spread = %v, want %v", got, want)
	}
}

func TestLTRespectsBlocked(t *testing.T) {
	g := graph.WeightedCascade.Assign(fixture.Toy(), nil)
	lt := NewLT(g)
	blocked := make([]bool, g.N())
	blocked[fixture.V5] = true
	got := EstimateSpread(lt, fixture.Seed, blocked, 50000, rng.New(14))
	// With v5 blocked, v2/v4 each triggered with w=1 (in-degree 1 → WC
	// weight 1): spread is exactly 3.
	if got != 3 {
		t.Fatalf("LT blocked spread = %v, want 3", got)
	}
}

// Property: on random graphs, the average sample K and the average simulate
// count agree — they are two implementations of the same distribution.
func TestSampleAndSimulateAgreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 3
		r := rng.New(seed)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), r.Float64())
		}
		g := b.Build()
		ic := NewIC(g)
		ws := ic.NewWorkspace()
		const rounds = 4000
		r1, r2 := rng.New(seed+1), rng.New(seed+2)
		var sumSample, sumSim int
		for i := 0; i < rounds; i++ {
			sumSample += ic.Sample(0, nil, r1, ws).N
			sumSim += ic.SimulateCount(0, nil, r2, ws)
		}
		a := float64(sumSample) / rounds
		bm := float64(sumSim) / rounds
		// Loose 3-sigma-ish agreement; both are unbiased estimators of the
		// same expectation bounded by n.
		return math.Abs(a-bm) < 0.35*float64(n)/math.Sqrt(rounds)*3+0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: spread of the unified graph matches the multi-seed spread.
func TestUnifySeedsPreservesSpreadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 12
		r := rng.New(seed)
		b := graph.NewBuilder(n)
		for i := 0; i < 30; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), r.Float64())
		}
		g := b.Build()
		seeds := []graph.V{0, 1, 2}

		// Multi-seed spread via simulation with a virtual joint start: use
		// the unified graph as reference implementation...
		unified, super := g.UnifySeeds(seeds)
		ic := NewIC(unified)
		got := graph.SpreadFromUnified(
			EstimateSpread(ic, super, nil, 60000, rng.New(seed+1)), len(seeds))

		// ...and compare against a direct multi-seed forward simulation.
		want := estimateMultiSeed(g, seeds, 60000, rng.New(seed+2))
		return math.Abs(got-want) < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// estimateMultiSeed is an independent reference implementation of
// multi-source IC spread used only by tests.
func estimateMultiSeed(g *graph.Graph, seeds []graph.V, rounds int, r *rng.Source) float64 {
	n := g.N()
	active := make([]bool, n)
	queue := make([]graph.V, 0, n)
	total := 0
	for round := 0; round < rounds; round++ {
		for i := range active {
			active[i] = false
		}
		queue = queue[:0]
		for _, s := range seeds {
			if !active[s] {
				active[s] = true
				queue = append(queue, s)
			}
		}
		count := len(queue)
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			to := g.OutNeighbors(u)
			ps := g.OutProbs(u)
			for i, v := range to {
				if active[v] {
					continue
				}
				if r.Bernoulli(ps[i]) {
					active[v] = true
					count++
					queue = append(queue, v)
				}
			}
		}
		total += count
	}
	return float64(total) / float64(rounds)
}

func BenchmarkICSampleToy(b *testing.B) {
	ic := NewIC(fixture.Toy())
	ws := ic.NewWorkspace()
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ic.Sample(fixture.Seed, nil, r, ws)
	}
}

func BenchmarkICSimulateToy(b *testing.B) {
	ic := NewIC(fixture.Toy())
	ws := ic.NewWorkspace()
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ic.SimulateCount(fixture.Seed, nil, r, ws)
	}
}
