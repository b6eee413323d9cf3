package cascade

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/fixture"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func TestTriggeringICMatchesNativeIC(t *testing.T) {
	// The triggering sampler with ICTrigger must reproduce the IC spread
	// distribution: check the expected spread on the toy graph.
	g := fixture.Toy()
	tr := NewTriggering(g, ICTrigger)
	got := EstimateSpread(tr, fixture.Seed, nil, 200000, rng.New(1))
	if math.Abs(got-fixture.ExpectedSpread) > 0.03 {
		t.Fatalf("triggering-IC spread = %v, want %v", got, fixture.ExpectedSpread)
	}
}

func TestTriggeringLTMatchesNativeLT(t *testing.T) {
	g := graph.WeightedCascade.Assign(fixture.Toy(), nil)
	native := EstimateSpread(NewLT(g), fixture.Seed, nil, 150000, rng.New(2))
	viaTrigger := EstimateSpread(NewTriggering(g, LTTrigger), fixture.Seed, nil, 150000, rng.New(3))
	if math.Abs(native-viaTrigger) > 0.05 {
		t.Fatalf("LT spreads diverge: native %v vs triggering %v", native, viaTrigger)
	}
}

func TestTriggeringSampleStructure(t *testing.T) {
	g := fixture.Toy()
	tr := NewTriggering(g, ICTrigger)
	ws := tr.NewWorkspace()
	r := rng.New(4)
	for i := 0; i < 20000; i++ {
		sg := tr.Sample(fixture.Seed, nil, r, ws)
		if sg.N < 7 || sg.N > 9 {
			t.Fatalf("impossible K=%d", sg.N)
		}
		// Every non-source vertex needs a live in-edge.
		for lv := 1; lv < sg.N; lv++ {
			if sg.InStart[lv+1] == sg.InStart[lv] {
				t.Fatal("reached vertex without live in-edge")
			}
		}
	}
}

func TestTriggeringRespectsBlocked(t *testing.T) {
	g := fixture.Toy()
	tr := NewTriggering(g, ICTrigger)
	blocked := make([]bool, g.N())
	blocked[fixture.V5] = true
	got := EstimateSpread(tr, fixture.Seed, blocked, 50000, rng.New(5))
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("blocked triggering spread = %v, want 3", got)
	}
}

func TestTriggeringCustomDistribution(t *testing.T) {
	// A "majority-proof" trigger: a vertex triggers only on its first
	// in-neighbor, deterministically. Spread becomes a fixed reachability.
	g := fixture.Toy()
	firstOnly := func(gr *graph.Graph, v graph.V, r *rng.Source, dst []int32) []int32 {
		if gr.InDegree(v) > 0 {
			dst = append(dst, 0)
		}
		return dst
	}
	tr := NewTriggering(g, firstOnly)
	got := EstimateSpread(tr, fixture.Seed, nil, 1000, rng.New(6))
	// First in-neighbors: v2←v1 ✓, v4←v1 ✓, v5←v2 ✓, v3/v6/v9←v5 ✓,
	// v8←v5 ✓ (v5 sorted before v9), v7←v8 ✓: everything reached, always.
	if got != 9 {
		t.Fatalf("deterministic trigger spread = %v, want 9", got)
	}
}

func TestTriggeringNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for nil TriggerFunc")
		}
	}()
	NewTriggering(fixture.Toy(), nil)
}

// Property: ICTrigger marginals match edge probabilities.
func TestICTriggerMarginalsProperty(t *testing.T) {
	g := fixture.Toy()
	r := rng.New(7)
	const rounds = 100000
	counts := make(map[[2]graph.V]int)
	var buf []int32
	for i := 0; i < rounds; i++ {
		for v := graph.V(0); int(v) < g.N(); v++ {
			buf = ICTrigger(g, v, r, buf[:0])
			in := g.InNeighbors(v)
			for _, idx := range buf {
				counts[[2]graph.V{in[idx], v}]++
			}
		}
	}
	for _, e := range g.Edges() {
		got := float64(counts[[2]graph.V{e.From, e.To}]) / rounds
		if math.Abs(got-e.P) > 0.01 {
			t.Errorf("edge (%d,%d): trigger frequency %v, want %v", e.From, e.To, got, e.P)
		}
	}
}

// Property: LTTrigger returns at most one index and respects weights.
func TestLTTriggerSingletonProperty(t *testing.T) {
	g := graph.WeightedCascade.Assign(fixture.Toy(), nil)
	r := rng.New(8)
	f := func(vRaw uint8) bool {
		v := graph.V(int(vRaw) % g.N())
		buf := LTTrigger(g, v, r, nil)
		return len(buf) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the triggering-IC estimator agrees with the native IC sampler
// on random graphs (they implement the same distribution through different
// code paths).
func TestTriggeringICAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(10) + 3
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), r.Float64())
		}
		g := b.Build()
		a := EstimateSpread(NewIC(g), 0, nil, 40000, rng.New(seed+1))
		c := EstimateSpread(NewTriggering(g, ICTrigger), 0, nil, 40000, rng.New(seed+2))
		if math.Abs(a-c) > 0.25 {
			t.Logf("seed=%d: native=%v triggering=%v", seed, a, c)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTriggeringICSampleToy(b *testing.B) {
	tr := NewTriggering(fixture.Toy(), ICTrigger)
	ws := tr.NewWorkspace()
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Sample(fixture.Seed, nil, r, ws)
	}
}
