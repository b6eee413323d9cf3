package dominator

// SNCA computes the dominator tree of fg from root using the Semi-NCA
// algorithm of Georgiadis & Tarjan. It computes semidominators as
// Lengauer–Tarjan [53] does (EVAL with path compression over an iterative
// DFS), then replaces Lengauer–Tarjan's buckets and deferred-evaluation
// fix-up with a single pass that rewrites each vertex's idom by walking up
// the partially built dominator tree to the nearest ancestor whose DFS
// number does not exceed the vertex's semidominator (the "nearest common
// ancestor" step). Same tree, simpler bookkeeping.
//
// blocked masks vertices: when it is non-nil, every vertex v other than the
// root with blocked[orig[v]] set is treated as deleted with its edges, so
// the result is the dominator tree of what the root still reaches. A masked
// vertex gets DFS number −1, is never entered, reports idom −1 and is not
// counted in Reached. With nil blocked, orig is unused and may be nil.
//
// The returned Tree is Workspace storage, so the call allocates nothing:
// it is valid until the next computation with the same Workspace.
func (ws *Workspace) SNCA(fg *FlowGraph, root int32, orig []int32, blocked []bool) *Tree {
	ws.grow(fg.N)
	k := ws.dfs(fg, root, orig, blocked)

	for i := 1; i <= k; i++ {
		v := ws.vertex[i]
		ws.semi[v] = int32(i)
		ws.label[v] = v
		ws.ancestor[v] = -1
		ws.idom[v] = ws.parent[v] // provisional: DFS tree parent
	}
	for v := 0; v < fg.N; v++ {
		if ws.dfn[v] <= 0 {
			ws.idom[v] = -1
		}
	}

	// Semidominator phase, in decreasing DFS order. A predecessor with DFS
	// number ≤ 0 is masked or unreached and contributes no path.
	for i := int32(k); i >= 2; i-- {
		w := ws.vertex[i]
		for _, v := range fg.Pred(w) {
			if ws.dfn[v] <= 0 {
				continue
			}
			u := ws.compressEval(v)
			if ws.semi[u] < ws.semi[w] {
				ws.semi[w] = ws.semi[u]
			}
		}
		ws.ancestor[w] = ws.parent[w]
	}

	// NCA phase: in increasing DFS order, lift each vertex's provisional
	// idom until its DFS number is at most semi(w). Ancestors processed
	// earlier are already final, so the walk is amortized near-linear.
	for i := int32(2); i <= int32(k); i++ {
		w := ws.vertex[i]
		x := ws.idom[w]
		for ws.dfn[x] > ws.semi[w] {
			x = ws.idom[x]
		}
		ws.idom[w] = x
	}
	ws.idom[root] = -1

	ws.tree = Tree{Root: root, Idom: ws.idom, Reached: k}
	return &ws.tree
}
