package datasets

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func TestPreferentialAttachmentBasics(t *testing.T) {
	r := rng.New(1)
	g := PreferentialAttachment(2000, 5, true, r)
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
	st := g.ComputeStats()
	// Directed edges ≈ 5 per vertex; dedup trims slightly.
	if st.M < 8000 || st.M > 11000 {
		t.Fatalf("m = %d, want ≈ 10000", st.M)
	}
	// Power-law tail: the maximum degree far exceeds the average.
	if float64(st.MaxDegree) < 4*st.AvgDegree {
		t.Errorf("max degree %d vs avg %.1f: tail too light for PA", st.MaxDegree, st.AvgDegree)
	}
}

func TestPreferentialAttachmentUndirected(t *testing.T) {
	g := PreferentialAttachment(500, 3, false, rng.New(2))
	// Every edge must exist in both directions.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.To, e.From) {
			t.Fatalf("edge (%d,%d) not mirrored", e.From, e.To)
		}
	}
}

func TestPreferentialAttachmentFractionalDegree(t *testing.T) {
	g := PreferentialAttachment(3000, 1.6, true, rng.New(3))
	st := g.ComputeStats()
	perVertex := float64(st.M) / float64(st.N)
	if math.Abs(perVertex-1.6) > 0.25 {
		t.Fatalf("edges per vertex = %v, want ≈ 1.6", perVertex)
	}
}

func TestPreferentialAttachmentSeedConnectivity(t *testing.T) {
	// Every vertex attaches at least once, so (viewed undirected) the graph
	// is connected; verify no isolated vertices.
	g := PreferentialAttachment(1000, 1, true, rng.New(4))
	st := g.ComputeStats()
	if st.Isolated != 0 {
		t.Fatalf("%d isolated vertices", st.Isolated)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 5000, true, rng.New(5))
	st := g.ComputeStats()
	if st.M < 4700 || st.M > 5000 {
		t.Fatalf("ER m = %d, want ≈ 5000", st.M)
	}
	// Binomial degrees: light tail.
	if float64(st.MaxDegree) > 6*st.AvgDegree {
		t.Errorf("ER tail too heavy: max %d avg %.1f", st.MaxDegree, st.AvgDegree)
	}
	u := ErdosRenyi(500, 2000, false, rng.New(6))
	for _, e := range u.Edges() {
		if !u.HasEdge(e.To, e.From) {
			t.Fatal("undirected ER edge not mirrored")
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(200, 3, 0.1, rng.New(7))
	st := g.ComputeStats()
	// Ring lattice baseline degree is 2k per side-count before rewiring;
	// undirected doubling gives ≈ 12 per vertex.
	if math.Abs(st.AvgDegree-12) > 2 {
		t.Fatalf("WS avg degree %.1f, want ≈ 12", st.AvgDegree)
	}
	if st.Isolated != 0 {
		t.Fatal("WS has isolated vertices")
	}
}

func TestWattsStrogatzPanicsOnTinyRing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for n <= 2k")
		}
	}()
	WattsStrogatz(5, 3, 0.1, rng.New(8))
}

func TestPowerLawConfiguration(t *testing.T) {
	g := PowerLawConfiguration(3000, 2.2, 300, true, rng.New(9))
	st := g.ComputeStats()
	if st.MaxOutDeg > 300 {
		t.Fatalf("out-degree cap violated: %d", st.MaxOutDeg)
	}
	// Power law with exponent 2.2: most vertices have degree 1-2, a few are
	// large.
	if float64(st.MaxDegree) < 5*st.AvgDegree {
		t.Errorf("tail too light: max %d avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestRegistryCoversTableIV(t *testing.T) {
	specs := Registry()
	if len(specs) != 8 {
		t.Fatalf("registry has %d datasets, want 8", len(specs))
	}
	wantOrder := []string{"EmailCore", "Facebook", "Wiki-Vote", "EmailAll", "DBLP", "Twitter", "Stanford", "Youtube"}
	for i, name := range wantOrder {
		if specs[i].Name != name {
			t.Fatalf("registry[%d] = %s, want %s", i, specs[i].Name, name)
		}
	}
	// Table IV's published sizes.
	if specs[0].FullN != 1005 || specs[0].FullM != 25571 {
		t.Error("EmailCore stats wrong")
	}
	if specs[7].FullN != 1134890 || specs[7].FullM != 2987624 {
		t.Error("Youtube stats wrong")
	}
	// Direction column.
	directed := map[string]bool{
		"EmailCore": true, "Facebook": false, "Wiki-Vote": true, "EmailAll": true,
		"DBLP": false, "Twitter": true, "Stanford": true, "Youtube": false,
	}
	for _, s := range specs {
		if s.Directed != directed[s.Name] {
			t.Errorf("%s direction wrong", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("Facebook"); !ok || s.Short != "F" {
		t.Error("ByName full name failed")
	}
	if s, ok := ByName("EC"); !ok || s.Name != "EmailCore" {
		t.Error("ByName short name failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}

func TestGenerateScaledStatistics(t *testing.T) {
	for _, name := range []string{"EmailCore", "EmailAll"} {
		s, _ := ByName(name)
		g := s.Generate(0.05, 42)
		st := g.ComputeStats()
		wantN := int(float64(s.FullN) * 0.05)
		if wantN < 50 {
			wantN = 50
		}
		if st.N != wantN {
			t.Errorf("%s: n = %d, want %d", name, st.N, wantN)
		}
		// Average degree should track the full dataset's density. The full
		// davg is 2m/n for directed graphs; undirected datasets double m on
		// materialization, so compare per-vertex directed edges.
		wantEPV := float64(s.FullM) / float64(s.FullN)
		if !s.Directed {
			wantEPV *= 2
		}
		gotEPV := float64(st.M) / float64(st.N)
		if gotEPV < wantEPV*0.6 || gotEPV > wantEPV*1.3 {
			t.Errorf("%s: edges per vertex %.2f, want ≈ %.2f", name, gotEPV, wantEPV)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("Wiki-Vote")
	g1 := s.Generate(0.02, 1)
	g2 := s.Generate(0.02, 1)
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatal("Generate is not deterministic")
	}
	g3 := s.Generate(0.02, 2)
	if g1.M() == g3.M() && g1.N() == g3.N() {
		// Same size is possible, but identical edge sets would be alarming;
		// compare a few adjacency rows.
		same := true
		for v := graph.V(0); v < 20 && same; v++ {
			a, b := g1.OutNeighbors(v), g3.OutNeighbors(v)
			if len(a) != len(b) {
				same = false
				break
			}
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestRandomSeeds(t *testing.T) {
	g := PreferentialAttachment(200, 2, true, rng.New(10))
	seeds, err := RandomSeeds(g, 10, true, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 10 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[graph.V]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
		if g.OutDegree(s) == 0 {
			t.Fatal("seed with zero out-degree despite requireOut")
		}
	}
	if _, err := RandomSeeds(g, g.N()+1, false, rng.New(12)); err == nil {
		t.Fatal("oversized seed request must error")
	}
}

func TestTopOutDegreeSeeds(t *testing.T) {
	g := PreferentialAttachment(300, 3, true, rng.New(20))
	seeds, err := TopOutDegreeSeeds(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	// Non-increasing out-degree, and nothing outside the top block beats
	// the last pick.
	for i := 1; i < len(seeds); i++ {
		if g.OutDegree(seeds[i]) > g.OutDegree(seeds[i-1]) {
			t.Fatal("seeds not degree-sorted")
		}
	}
	last := g.OutDegree(seeds[4])
	chosen := map[graph.V]bool{}
	for _, s := range seeds {
		chosen[s] = true
	}
	for v := graph.V(0); int(v) < g.N(); v++ {
		if !chosen[v] && g.OutDegree(v) > last {
			t.Fatalf("vertex %d with degree %d beats the chosen tail %d", v, g.OutDegree(v), last)
		}
	}
	if _, err := TopOutDegreeSeeds(g, g.N()+1); err == nil {
		t.Fatal("oversized request must error")
	}
}

func TestExtractNeighborhood(t *testing.T) {
	g := PreferentialAttachment(500, 3, true, rng.New(13))
	sub, old := ExtractNeighborhood(g, 7, 60)
	if sub.N() < 60 {
		t.Fatalf("extracted %d vertices, want >= 60", sub.N())
	}
	if old[0] != 7 {
		t.Fatalf("start vertex not first: %v", old[0])
	}
	// Induced edges preserve adjacency: spot-check a few.
	for newU := graph.V(0); newU < 10; newU++ {
		for _, newV := range sub.OutNeighbors(newU) {
			if !g.HasEdge(old[newU], old[newV]) {
				t.Fatalf("induced edge (%d,%d) missing in original", old[newU], old[newV])
			}
		}
	}
}

func TestTableIVFormat(t *testing.T) {
	out := TableIV(0.01, 1)
	for _, name := range Names() {
		if !contains(out, name) {
			t.Errorf("TableIV output missing %s", name)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: generated graphs are structurally valid — no self loops, no
// out-of-range ids, degree bookkeeping consistent.
func TestGeneratorValidityProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, dirFlag bool) bool {
		n := int(nRaw)%400 + 10
		r := rng.New(seed)
		g := PreferentialAttachment(n, 2.5, dirFlag, r)
		if g.N() != n {
			return false
		}
		for _, e := range g.Edges() {
			if e.From == e.To || e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSkewedCascade pins the property the generator exists for: live-edge
// sample sizes from the gateway are heavy-tailed — the typical sample is a
// handful of vertices while the occasional chain hit spans a large fraction
// of the graph — and construction is deterministic in the seed.
func TestSkewedCascade(t *testing.T) {
	const n = 4000
	g := SkewedCascade(n, 8, 0.05, 0.02, rng.New(9))
	if g.N() != n {
		t.Fatalf("n = %d, want %d", g.N(), n)
	}
	if g2 := SkewedCascade(n, 8, 0.05, 0.02, rng.New(9)); g2.M() != g.M() {
		t.Fatalf("not deterministic: m %d vs %d", g.M(), g2.M())
	}

	s := cascade.NewIC(g)
	ws := s.NewWorkspace()
	base := rng.New(10)
	sizes := make([]int, 0, 400)
	for i := 0; i < 400; i++ {
		sizes = append(sizes, s.Sample(0, nil, base.Split(uint64(i)), ws).N)
	}
	sort.Ints(sizes)
	med, max := sizes[len(sizes)/2], sizes[len(sizes)-1]
	if max < n/10 {
		t.Errorf("largest sample spans %d of %d vertices; the long chain never fired", max, n)
	}
	if med > n/100 {
		t.Errorf("median sample size %d: typical samples should be tiny (n=%d)", med, n)
	}
}
