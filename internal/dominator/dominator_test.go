package dominator

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/imin-dev/imin/internal/rng"
)

// build constructs a FlowGraph from an edge list over n vertices.
func build(n int, edges [][2]int32) *FlowGraph {
	from := make([]int32, len(edges))
	to := make([]int32, len(edges))
	for i, e := range edges {
		from[i], to[i] = e[0], e[1]
	}
	fg := &FlowGraph{}
	fg.Build(n, from, to)
	return fg
}

// toyEdges is the Figure 1 graph's structure (ids: v(i+1) = i).
var toyEdges = [][2]int32{
	{0, 1}, {0, 3},
	{1, 4}, {3, 4},
	{4, 2}, {4, 5}, {4, 8},
	{4, 7}, {8, 7},
	{7, 6},
}

func toyFlow() *FlowGraph { return build(9, toyEdges) }

// ltPaperEdges is the example flow graph from the original Lengauer–Tarjan
// paper (Fig. 1 of [53]), a 13-vertex irreducible graph.
// Vertices: R=0 A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8 I=9 J=10 K=11 L=12
var ltPaperEdges = [][2]int32{
	{0, 1}, {0, 2}, {0, 3},
	{1, 4},
	{2, 1}, {2, 4}, {2, 5},
	{3, 6}, {3, 7},
	{4, 12},
	{5, 8},
	{6, 9},
	{7, 9}, {7, 10},
	{8, 5}, {8, 11},
	{9, 11},
	{10, 9},
	{11, 9}, {11, 0},
	{12, 8},
}

func TestToyDominatorTree(t *testing.T) {
	fg := toyFlow()
	want := []int32{
		0: -1,
		1: 0, 3: 0, 4: 0, // v2, v4, v5 are children of the seed
		2: 4, 5: 4, 8: 4, // v3, v6, v9 under v5
		7: 4, // v8 under v5 (reachable via v5 directly and via v9)
		6: 7, // v7 under v8
	}
	tr := NewWorkspace(fg.N).SNCA(fg, 0, nil, nil)
	if tr.Reached != 9 {
		t.Errorf("reached %d, want 9", tr.Reached)
	}
	for v, w := range want {
		if tr.Idom[v] != w {
			t.Errorf("idom(%d) = %d, want %d", v, tr.Idom[v], w)
		}
	}
}

func TestToySubtreeSizes(t *testing.T) {
	fg := toyFlow()
	ws := NewWorkspace(fg.N)
	tr := ws.SNCA(fg, 0, nil, nil)
	sizes := make([]int32, fg.N)
	ws.SubtreeSizes(tr, fg.N, sizes)
	// Full structural graph (all edges live): v5's subtree is
	// {v5,v3,v6,v9,v8,v7} = 6; v8's is {v8,v7} = 2; leaves are 1; root 9.
	want := []int32{0: 9, 1: 1, 3: 1, 4: 6, 2: 1, 5: 1, 8: 1, 7: 2, 6: 1}
	for v, w := range want {
		if sizes[v] != w {
			t.Errorf("subtree(%d) = %d, want %d", v, sizes[v], w)
		}
	}
	naive := NaiveSubtreeSizes(fg, 0)
	for v := range naive {
		if naive[v] != sizes[v] {
			t.Errorf("naive subtree(%d) = %d, SNCA says %d", v, naive[v], sizes[v])
		}
	}
}

// TestLengauerTarjanPaperExample runs SNCA on ltPaperEdges, whose immediate
// dominators are well known.
func TestLengauerTarjanPaperExample(t *testing.T) {
	fg := build(13, ltPaperEdges)
	// Known dominator tree (R dominates everything; see LT79 §1).
	want := []int32{
		0: -1,
		1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 8: 0, 9: 0, 11: 0, 12: 4,
		6: 3, 7: 3, 10: 7,
	}
	tr := NewWorkspace(fg.N).SNCA(fg, 0, nil, nil)
	for v, w := range want {
		if tr.Idom[v] != w {
			t.Errorf("idom(%d) = %d, want %d", v, tr.Idom[v], w)
		}
	}
	// Cross-check against the naive oracle too.
	naive := Naive(fg, 0)
	for v := range naive {
		if naive[v] != tr.Idom[v] {
			t.Errorf("SNCA disagrees with naive at %d: %d vs %d", v, tr.Idom[v], naive[v])
		}
	}
}

func TestSingleVertex(t *testing.T) {
	fg := build(1, nil)
	ws := NewWorkspace(1)
	tr := ws.SNCA(fg, 0, nil, nil)
	if tr.Reached != 1 || tr.Idom[0] != -1 {
		t.Fatalf("single vertex: reached=%d idom=%d", tr.Reached, tr.Idom[0])
	}
	sizes := make([]int32, 1)
	ws.SubtreeSizes(tr, fg.N, sizes)
	if sizes[0] != 1 {
		t.Fatalf("single vertex subtree = %d", sizes[0])
	}
}

func TestUnreachableVertices(t *testing.T) {
	// 0 -> 1; 2 -> 3 unreachable from 0.
	fg := build(4, [][2]int32{{0, 1}, {2, 3}, {3, 1}})
	ws := NewWorkspace(4)
	tr := ws.SNCA(fg, 0, nil, nil)
	if tr.Reached != 2 {
		t.Fatalf("reached = %d, want 2", tr.Reached)
	}
	if tr.Idom[1] != 0 {
		t.Errorf("idom(1) = %d, want 0 (pred 3 is unreachable and must be ignored)", tr.Idom[1])
	}
	if tr.Idom[2] != -1 || tr.Idom[3] != -1 {
		t.Error("unreachable vertices must have idom -1")
	}
	sizes := make([]int32, 4)
	ws.SubtreeSizes(tr, fg.N, sizes)
	if sizes[2] != 0 || sizes[3] != 0 {
		t.Error("unreachable vertices must have subtree size 0")
	}
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (cycle back); idom(2)=1, idom(1)=0.
	fg := build(3, [][2]int32{{0, 1}, {1, 2}, {2, 1}})
	ws := NewWorkspace(3)
	tr := ws.SNCA(fg, 0, nil, nil)
	if tr.Idom[1] != 0 || tr.Idom[2] != 1 {
		t.Fatalf("cycle idoms = %v", tr.Idom[:3])
	}
}

func TestDiamond(t *testing.T) {
	// Classic diamond: 0->1, 0->2, 1->3, 2->3. idom(3) = 0.
	fg := build(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	ws := NewWorkspace(4)
	tr := ws.SNCA(fg, 0, nil, nil)
	if tr.Idom[3] != 0 {
		t.Fatalf("diamond idom(3) = %d, want 0", tr.Idom[3])
	}
	sizes := make([]int32, 4)
	ws.SubtreeSizes(tr, fg.N, sizes)
	if sizes[1] != 1 || sizes[2] != 1 || sizes[0] != 4 {
		t.Fatalf("diamond sizes = %v", sizes)
	}
}

func TestLongPathDeepRecursionSafe(t *testing.T) {
	// A path of 200k vertices exercises the iterative DFS and compression:
	// a recursive implementation would overflow the stack.
	n := 200000
	edges := make([][2]int32, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	fg := build(n, edges)
	ws := NewWorkspace(n)
	tr := ws.SNCA(fg, 0, nil, nil)
	for v := 1; v < n; v++ {
		if tr.Idom[v] != int32(v-1) {
			t.Fatalf("path idom(%d) = %d", v, tr.Idom[v])
		}
	}
	sizes := make([]int32, n)
	ws.SubtreeSizes(tr, fg.N, sizes)
	if sizes[0] != int32(n) || sizes[n-1] != 1 {
		t.Fatalf("path sizes wrong: root=%d leaf=%d", sizes[0], sizes[n-1])
	}
}

// randomEdges draws m candidate edges over n vertices, dropping self-loops.
func randomEdges(r *rng.Source, n, m int) [][2]int32 {
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return edges
}

// randomFlow builds a random digraph for property tests.
func randomFlow(r *rng.Source, n, m int) *FlowGraph { return build(n, randomEdges(r, n, m)) }

// Property: Build lists each vertex's successors and predecessors in
// edge-list order, also when one FlowGraph is rebuilt over graphs of
// varying size.
func TestBuildKeepsEdgeOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var fg FlowGraph
		for round := 0; round < 8; round++ {
			n := r.Intn(30) + 1
			edges := randomEdges(r, n, r.Intn(90))
			from := make([]int32, len(edges))
			to := make([]int32, len(edges))
			for i, e := range edges {
				from[i], to[i] = e[0], e[1]
			}
			fg.Build(n, from, to)
			succ := make([][]int32, n)
			pred := make([][]int32, n)
			for _, e := range edges {
				succ[e[0]] = append(succ[e[0]], e[1])
				pred[e[1]] = append(pred[e[1]], e[0])
			}
			if fg.N != n || len(fg.OutStart) != n+1 || len(fg.InStart) != n+1 {
				return false
			}
			for v := int32(0); int(v) < n; v++ {
				if !slices.Equal(fg.Succ(v), succ[v]) || !slices.Equal(fg.Pred(v), pred[v]) {
					t.Logf("seed=%d round=%d v=%d: succ %v want %v, pred %v want %v",
						seed, round, v, fg.Succ(v), succ[v], fg.Pred(v), pred[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// disagreeWithNaive runs SNCA from vertex 0 on the graph over n vertices
// with the given edges, masking each vertex v with mask[v] set (mask nil for
// no mask), and compares its immediate dominators and Reached with Naive on
// the same graph with every edge at a masked vertex other than the root
// dropped. The mask goes through SNCA's id map as orig[v] = 2v+1, so a mask
// read by graph id rather than through orig misreports.
func disagreeWithNaive(ws *Workspace, n int, edges [][2]int32, mask []bool) error {
	var orig []int32
	var blocked []bool
	kept := edges
	if mask != nil {
		orig = make([]int32, n)
		blocked = make([]bool, 2*n+1)
		kept = nil
		for v := range orig {
			orig[v] = int32(2*v + 1)
			blocked[orig[v]] = mask[v]
		}
		for _, e := range edges {
			if (e[0] == 0 || !mask[e[0]]) && (e[1] == 0 || !mask[e[1]]) {
				kept = append(kept, e)
			}
		}
	}
	tr := ws.SNCA(build(n, edges), 0, orig, blocked)
	naive := Naive(build(n, kept), 0)
	reached := 1
	for v := 0; v < n; v++ {
		if tr.Idom[v] != naive[v] {
			return fmt.Errorf("idom(%d) = %d, naive %d", v, tr.Idom[v], naive[v])
		}
		if naive[v] != -1 {
			reached++
		}
	}
	if tr.Reached != reached {
		return fmt.Errorf("reached %d, naive %d", tr.Reached, reached)
	}
	return nil
}

// Property: SNCA and the naive oracle agree on random digraphs, including
// graphs with cycles and unreachable parts, without a mask and with a
// random one.
func TestAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8, maskBits uint64) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw%120) + 1
		edges := randomEdges(rng.New(seed), n, m)
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = maskBits>>v&1 != 0
		}
		ws := NewWorkspace(n)
		for _, mk := range [][]bool{nil, mask} {
			if err := disagreeWithNaive(ws, n, edges, mk); err != nil {
				t.Logf("seed=%d n=%d m=%d mask=%v: %v", seed, n, m, mk, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: subtree sizes from the dominator tree equal the direct
// definition σ→v (number of vertices losing reachability when v is removed).
func TestSubtreeSizesMatchDefinitionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw%90) + 1
		r := rng.New(seed)
		fg := randomFlow(r, n, m)
		ws := NewWorkspace(n)
		tr := ws.SNCA(fg, 0, nil, nil)
		sizes := make([]int32, n)
		ws.SubtreeSizes(tr, fg.N, sizes)
		naive := NaiveSubtreeSizes(fg, 0)
		for v := 0; v < n; v++ {
			if sizes[v] != naive[v] {
				t.Logf("seed=%d n=%d m=%d v=%d: tree=%d naive=%d", seed, n, m, v, sizes[v], naive[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: workspace reuse across different graphs gives identical results
// to fresh workspaces (no state leaks).
func TestWorkspaceReuseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		shared := NewWorkspace(8)
		for round := 0; round < 10; round++ {
			n := r.Intn(30) + 2
			fg := randomFlow(r, n, r.Intn(80)+1)
			reused := shared.SNCA(fg, 0, nil, nil)
			reusedIdom := append([]int32(nil), reused.Idom[:n]...)
			fresh := NewWorkspace(n).SNCA(fg, 0, nil, nil)
			for v := 0; v < n; v++ {
				if reusedIdom[v] != fresh.Idom[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSNCAAllocatesNothing: once the workspace has grown, a dominator run
// allocates nothing, the returned Tree included, with and without a mask.
func TestSNCAAllocatesNothing(t *testing.T) {
	fg := toyFlow()
	ws := NewWorkspace(fg.N)
	orig := make([]int32, fg.N)
	for v := range orig {
		orig[v] = int32(v)
	}
	blocked := make([]bool, fg.N)
	blocked[4] = true
	for _, b := range [][]bool{nil, blocked} {
		if allocs := testing.AllocsPerRun(20, func() { ws.SNCA(fg, 0, orig, b) }); allocs != 0 {
			t.Fatalf("SNCA (mask %v) allocates %v objects per run", b, allocs)
		}
	}
}

func BenchmarkSNCARandom(b *testing.B) {
	r := rng.New(1)
	fg := randomFlow(r, 10000, 50000)
	ws := NewWorkspace(fg.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.SNCA(fg, 0, nil, nil)
	}
}

// maxFuzzEdges bounds a fuzz input's edge list so the O(n·(n+m)) oracle
// stays fast.
const maxFuzzEdges = 4096

// encodeFlow is the inverse of decodeFlow for n ≤ 256: one byte n−1, then
// one (u, v) byte pair per edge.
func encodeFlow(n int, edges [][2]int32) []byte {
	b := []byte{byte(n - 1)}
	for _, e := range edges {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// decodeFlow reads a vertex count in [1, 256] from the first byte and an
// edge list from the byte pairs after it (endpoints mod n). Self-loops are
// dropped; duplicate edges, cycles and unreachable vertices are kept.
func decodeFlow(data []byte) (int, [][2]int32) {
	if len(data) == 0 {
		return 1, nil
	}
	n := int(data[0]) + 1
	var edges [][2]int32
	for i := 1; i+1 < len(data) && len(edges) < maxFuzzEdges; i += 2 {
		u, v := int32(int(data[i])%n), int32(int(data[i+1])%n)
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return n, edges
}

// FuzzDominatorTree checks SNCA's immediate dominators and Reached against
// the naive oracle on arbitrary flow graphs rooted at vertex 0, without a
// mask and with the mask whose bit v (byte v/8, bit v%8; missing bytes read
// 0) masks vertex v.
func FuzzDominatorTree(f *testing.F) {
	f.Add(encodeFlow(9, toyEdges), []byte(nil))
	f.Add(encodeFlow(9, toyEdges), []byte{1 << 4, 1})           // v5 and v9 masked
	f.Add(encodeFlow(13, ltPaperEdges), []byte{1 << 1, 1 << 1}) // A and I masked
	f.Add(encodeFlow(1, nil), []byte{1})                        // only the root, masked
	f.Add(encodeFlow(3, [][2]int32{{0, 1}, {1, 2}, {2, 1}}), []byte{1 << 1})
	f.Add(encodeFlow(4, [][2]int32{{0, 1}, {2, 3}, {3, 1}}), []byte(nil))
	path := make([][2]int32, 63)
	for i := range path {
		path[i] = [2]int32{int32(i), int32(i + 1)}
	}
	f.Add(encodeFlow(64, path), []byte{0, 0, 0, 1 << 7}) // cut at vertex 31
	for seed := uint64(1); seed <= 8; seed++ {
		n := 2 + int(seed)*5
		f.Add(encodeFlow(n, randomEdges(rng.New(seed), n, 3*n)), []byte{byte(seed * 37), byte(seed * 91)})
	}
	f.Fuzz(func(t *testing.T, data, maskBytes []byte) {
		n, edges := decodeFlow(data)
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = v/8 < len(maskBytes) && maskBytes[v/8]>>(v%8)&1 != 0
		}
		ws := NewWorkspace(n)
		for _, mk := range [][]bool{nil, mask} {
			if err := disagreeWithNaive(ws, n, edges, mk); err != nil {
				t.Fatalf("n=%d edges=%v mask=%v: %v", n, edges, mk, err)
			}
		}
	})
}
