package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment line
% also a comment
0 1
1 2 0.25

2 0 0.5
`
	g, orig, err := ReadEdgeList(strings.NewReader(in), ReadOptions{DefaultP: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d, want 3/3", g.N(), g.M())
	}
	if len(orig) != 3 {
		t.Fatalf("orig ids: %v", orig)
	}
	if p := g.Prob(0, 1); p != 1 {
		t.Errorf("default p = %v, want 1", p)
	}
	if p := g.Prob(1, 2); p != 0.25 {
		t.Errorf("explicit p = %v, want 0.25", p)
	}
}

func TestReadEdgeListSparseIDs(t *testing.T) {
	in := "1000 2000\n2000 30\n"
	g, orig, err := ReadEdgeList(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("n = %d, want 3 (dense remap)", g.N())
	}
	want := []int64{1000, 2000, 30}
	for i, id := range want {
		if orig[i] != id {
			t.Fatalf("orig = %v, want %v", orig, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("remapped edges missing")
	}
}

func TestReadEdgeListUndirected(t *testing.T) {
	g, _, err := ReadEdgeList(strings.NewReader("0 1 0.3\n"), ReadOptions{Undirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Prob(0, 1) != 0.3 || g.Prob(1, 0) != 0.3 {
		t.Fatalf("undirected read failed: m=%d", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"0 1 xyz\n",
	}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in), ReadOptions{}); err == nil {
			t.Errorf("input %q: want error, got nil", in)
		}
	}
}

// A NaN probability passes every range comparison, so the parser rejects
// it explicitly, naming the line.
func TestReadEdgeListRejectsNaN(t *testing.T) {
	for _, nan := range []string{"nan", "NaN"} {
		_, _, err := ReadEdgeList(strings.NewReader("0 1 0.5\n1 2 "+nan+"\n"), ReadOptions{})
		if err == nil || !strings.Contains(err.Error(), "line 2: probability is NaN") {
			t.Errorf("%s: err = %v, want a line 2 NaN error", nan, err)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := toy()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %v vs %v", g2, g)
	}
	for _, e := range g.Edges() {
		// ids may be remapped, but Figure 1's ids all appear as sources or
		// targets in file order; verify via probability multiset instead.
		_ = e
	}
	// Probability multiset must survive.
	count := func(gr *Graph, p float64) int {
		n := 0
		for _, e := range gr.Edges() {
			if e.P == p {
				n++
			}
		}
		return n
	}
	for _, p := range []float64{1, 0.5, 0.2, 0.1} {
		if count(g, p) != count(g2, p) {
			t.Errorf("probability %v count changed in round trip", p)
		}
	}
}

func TestWriteEdgeListFile(t *testing.T) {
	g := toy()
	path := t.TempDir() + "/toy.txt"
	if err := g.WriteEdgeListFile(path); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeListFile(path, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("file round trip lost edges: %d vs %d", g2.M(), g.M())
	}
}

func TestComputeStats(t *testing.T) {
	g := toy()
	st := g.ComputeStats()
	if st.N != 9 || st.M != 10 {
		t.Fatalf("stats n/m = %d/%d", st.N, st.M)
	}
	// v5: out 4 + in 2 = 6 is the max total degree.
	if st.MaxDegree != 6 {
		t.Errorf("MaxDegree = %d, want 6", st.MaxDegree)
	}
	if st.MaxOutDeg != 4 {
		t.Errorf("MaxOutDeg = %d, want 4", st.MaxOutDeg)
	}
	if st.Isolated != 0 {
		t.Errorf("Isolated = %d, want 0", st.Isolated)
	}
	if st.ProbMin != 0.1 || st.ProbMax != 1 {
		t.Errorf("prob range [%v,%v], want [0.1,1]", st.ProbMin, st.ProbMax)
	}
	wantAvg := 2.0 * 10 / 9
	if st.AvgDegree != wantAvg {
		t.Errorf("AvgDegree = %v, want %v", st.AvgDegree, wantAvg)
	}
}
