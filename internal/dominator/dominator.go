// Package dominator computes dominator trees of flow graphs.
//
// Given a flow graph with source s, vertex u dominates v when every path
// from s to v passes through u (Definition 5 of the paper); the immediate
// dominator relation forms a tree rooted at s (Definition 6). The paper's
// central observation (Theorem 6) is that σ→u(s,g) — the number of vertices
// that lose their last path from s when u is blocked — is exactly the size
// of u's subtree in the dominator tree, which turns per-candidate spread
// recomputation into a single tree scan.
//
// The tree is computed by the Semi-NCA algorithm of Georgiadis & Tarjan:
// Lengauer–Tarjan's semidominators [53] followed by one nearest-common-
// ancestor pass. Every correct algorithm returns the same tree, so this is
// a cost choice only; Semi-NCA measured faster than the paper's
// Lengauer–Tarjan on the estimator's sampled graphs. A naive O(n·(n+m))
// vertex-removal algorithm serves as the correctness oracle in tests and
// in FuzzDominatorTree.
//
// SNCA takes an optional vertex mask. The estimators pass their blocker set
// and get the dominator tree of the flow graph left once the masked
// vertices are deleted, without building that graph; SubtreeSizes then
// reports, by the input graph's own ids, 0 for a masked or cut-off vertex.
//
// All computations run inside a caller-owned Workspace, so the per-sample
// cost in the estimator's hot loop is allocation-free.
package dominator

// FlowGraph is the adjacency input: a directed graph in CSR form over
// vertices [0, N). Both successor and predecessor lists are required.
// It is also the format of every live-edge sample (cascade.SampledGraph
// embeds it). Build turns any edge list into one; cascade writes a tree
// sample's arrays directly, byte for byte what Build would write.
type FlowGraph struct {
	N        int
	OutStart []int32
	OutTo    []int32
	InStart  []int32
	InTo     []int32
}

// Build makes fg the flow graph over vertices [0, n) whose edges are
// from[i]→to[i], reusing fg's arrays when they are large enough. Each
// vertex's successors and predecessors keep the order of the edge list.
// fg must own its arrays: Build overwrites them.
func (fg *FlowGraph) Build(n int, from, to []int32) {
	e := len(from)
	// The row counts land two slots up, so after the prefix sum start[u+1]
	// is the first slot of row u and serves as its fill cursor; once every
	// edge is placed it has advanced to the row's end, which is where
	// start[u+1] must point.
	outStart, inStart := resize(fg.OutStart, n+2), resize(fg.InStart, n+2)
	outTo, inTo := resize(fg.OutTo, e), resize(fg.InTo, e)
	clear(outStart)
	clear(inStart)
	for i, u := range from {
		outStart[u+2]++
		inStart[to[i]+2]++
	}
	for i := 2; i <= n; i++ {
		outStart[i+1] += outStart[i]
		inStart[i+1] += inStart[i]
	}
	for i, u := range from {
		v := to[i]
		outTo[outStart[u+1]] = v
		outStart[u+1]++
		inTo[inStart[v+1]] = u
		inStart[v+1]++
	}
	*fg = FlowGraph{N: n, OutStart: outStart[:n+1], OutTo: outTo, InStart: inStart[:n+1], InTo: inTo}
}

// resize returns s at length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/2)
	}
	return s[:n]
}

// Succ returns the successors of v.
func (fg *FlowGraph) Succ(v int32) []int32 { return fg.OutTo[fg.OutStart[v]:fg.OutStart[v+1]] }

// Pred returns the predecessors of v.
func (fg *FlowGraph) Pred(v int32) []int32 { return fg.InTo[fg.InStart[v]:fg.InStart[v+1]] }

// Tree is the result of a dominator computation. It lives in the Workspace
// and is valid until the next computation with the same Workspace.
type Tree struct {
	// Root is the source vertex.
	Root int32
	// Idom[v] is v's immediate dominator, -1 for the root, for masked
	// vertices and for vertices unreachable from the root.
	Idom []int32
	// Reached is the number of vertices reachable from the root without
	// entering a masked vertex.
	Reached int
}

// Workspace holds reusable scratch space for dominator computations.
type Workspace struct {
	dfn      []int32 // DFS preorder number, 1-based; 0 = unreached, -1 = masked
	vertex   []int32 // vertex[i] = v with dfn[v] == i
	parent   []int32 // DFS tree parent
	semi     []int32 // semidominator as a DFS number
	ancestor []int32 // eval-forest parent, -1 = tree root
	label    []int32
	idom     []int32
	stack    []int32 // shared scratch for DFS frames and path compression
	stackIdx []int32 // neighbor cursor parallel to DFS stack
	tree     Tree    // the latest result, returned by pointer
}

// NewWorkspace returns a Workspace able to handle graphs of up to n
// vertices without reallocation; it grows on demand beyond that.
func NewWorkspace(n int) *Workspace {
	ws := &Workspace{}
	ws.grow(n)
	return ws
}

// MemoryBytes reports the workspace's resident scratch footprint — nine
// int32 arrays grown to the largest graph seen — for the serving layer's
// capacity gauges.
func (ws *Workspace) MemoryBytes() int64 {
	total := int64(0)
	for _, s := range [][]int32{ws.dfn, ws.vertex, ws.parent, ws.semi, ws.ancestor, ws.label,
		ws.idom, ws.stack, ws.stackIdx} {
		total += int64(cap(s)) * 4
	}
	return total
}

func (ws *Workspace) grow(n int) {
	if len(ws.dfn) >= n+1 {
		return
	}
	c := n + 1
	ws.dfn = make([]int32, c)
	ws.vertex = make([]int32, c)
	ws.parent = make([]int32, c)
	ws.semi = make([]int32, c)
	ws.ancestor = make([]int32, c)
	ws.label = make([]int32, c)
	ws.idom = make([]int32, c)
	ws.stack = make([]int32, 0, c)
	ws.stackIdx = make([]int32, 0, c)
}

// dfs numbers vertices reachable from root in DFS preorder and records DFS
// tree parents, never entering a vertex the mask deletes (see SNCA). It
// returns the number of reached vertices.
func (ws *Workspace) dfs(fg *FlowGraph, root int32, orig []int32, blocked []bool) int {
	for v := 0; v < fg.N; v++ {
		ws.dfn[v] = 0
		if blocked != nil && blocked[orig[v]] {
			ws.dfn[v] = -1
		}
	}
	k := int32(1)
	ws.dfn[root] = 1
	ws.vertex[1] = root
	ws.parent[root] = -1

	ws.stack = append(ws.stack[:0], root)
	ws.stackIdx = append(ws.stackIdx[:0], 0)
	for len(ws.stack) > 0 {
		top := len(ws.stack) - 1
		v := ws.stack[top]
		succ := fg.Succ(v)
		advanced := false
		for ws.stackIdx[top] < int32(len(succ)) {
			u := succ[ws.stackIdx[top]]
			ws.stackIdx[top]++
			if ws.dfn[u] == 0 {
				k++
				ws.dfn[u] = k
				ws.vertex[k] = u
				ws.parent[u] = v
				ws.stack = append(ws.stack, u)
				ws.stackIdx = append(ws.stackIdx, 0)
				advanced = true
				break
			}
		}
		if !advanced && ws.stackIdx[top] >= int32(len(succ)) {
			ws.stack = ws.stack[:top]
			ws.stackIdx = ws.stackIdx[:top]
		}
	}
	return int(k)
}

// compressEval performs EVAL with path compression on the link forest:
// it returns the vertex with minimum semidominator number on the path from
// v up to (excluding) the root of v's tree in the forest, compressing the
// path as a side effect. Iterative to keep deep sampled graphs safe.
func (ws *Workspace) compressEval(v int32) int32 {
	if ws.ancestor[v] == -1 {
		return v
	}
	// Collect the path while the grandparent exists.
	ws.stack = ws.stack[:0]
	u := v
	for ws.ancestor[ws.ancestor[u]] != -1 {
		ws.stack = append(ws.stack, u)
		u = ws.ancestor[u]
	}
	// Process top-down: each node's ancestor is already fully compressed.
	for i := len(ws.stack) - 1; i >= 0; i-- {
		x := ws.stack[i]
		a := ws.ancestor[x]
		if ws.semi[ws.label[a]] < ws.semi[ws.label[x]] {
			ws.label[x] = ws.label[a]
		}
		ws.ancestor[x] = ws.ancestor[a]
	}
	return ws.label[v]
}

// SubtreeSizes fills sizes[v] with the number of vertices below real in
// v's dominator subtree, v included; vertices ≥ real weigh 0, and
// unreachable vertices get 0. With real = fg.N, Theorem 6 gives sizes[v] ==
// σ→v(root, g). A smaller bound serves graphs that number auxiliary
// vertices after the real ones, such as the edge-blocking split graph.
// sizes must have length ≥ fg.N.
func (ws *Workspace) SubtreeSizes(t *Tree, real int, sizes []int32) {
	clear(sizes)
	// Every reachable vertex starts as its own subtree; accumulate upward
	// in decreasing DFS order — idom(w) always has a smaller DFS number
	// than w because it is a DFS-tree ancestor of w.
	for i := 1; i <= t.Reached; i++ {
		if v := ws.vertex[i]; int(v) < real {
			sizes[v] = 1
		}
	}
	for i := int32(t.Reached); i >= 2; i-- {
		w := ws.vertex[i]
		sizes[t.Idom[w]] += sizes[w]
	}
}
