package core

import (
	"slices"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
)

// sampleKernel is one worker's reusable state for Algorithm 2's unit of
// work, shared by every estimator: take one live-edge sample, delete the
// blocked vertices, build the dominator tree of what the source still
// reaches (a tree sample is its own), and read off every vertex's
// dominator-subtree size (Theorem 6). Its arrays grow to the largest sample
// processed.
type sampleKernel struct {
	dws        *dominator.Workspace
	fg         dominator.FlowGraph // the edge-split sample, built here
	eFrom, eTo []int32
	sizes      []int32
}

func newSampleKernel() sampleKernel {
	return sampleKernel{dws: dominator.NewWorkspace(0)}
}

// memoryBytes reports the kernel's resident footprint: its arrays, grown to
// the largest sample processed so far, plus the dominator workspace.
func (k *sampleKernel) memoryBytes() int64 {
	total := k.dws.MemoryBytes()
	for _, s := range [][]int32{k.fg.OutStart, k.fg.OutTo, k.fg.InStart, k.fg.InTo,
		k.eFrom, k.eTo, k.sizes} {
		total += int64(cap(s)) * 4
	}
	return total
}

// dominate returns every sample vertex's dominator-subtree size, indexed by
// its local id (0 = the source), in the sample with the blocked vertices
// deleted: 0 for a blocked vertex and for one the source no longer reaches.
// Deleting B from a live-edge sample of G gives a live-edge sample of
// G[V\B], so estimates built on the result stay unbiased for the blocked
// graph. A tree sample takes the tree path (treeSizes); any other runs SNCA
// with the blocked vertices masked. A flow graph has exactly one dominator
// tree, so both paths return identical sizes. The returned slice is kernel
// storage, valid until the next call.
func (k *sampleKernel) dominate(s *cascade.SampledGraph, blocked []bool) []int32 {
	if sizes, ok := k.treeSizes(s, blocked); ok {
		return sizes
	}
	return k.subtreeSizes(&s.FlowGraph, s.N, s.Orig, blocked)
}

// treeSizes is dominate's tree path. A sample whose every vertex but the
// source has exactly one in-edge, from a smaller local id, is a tree rooted
// at local 0 with InTo as its parent array (InTo[v−1] is v's parent), and a
// tree is its own dominator tree. Deleting blocked vertices cuts off their
// subtrees and leaves a tree, so one forward pass keeps each vertex whose
// parent was kept and which is not blocked, and one reverse pass adds every
// vertex's size into its parent's — no SNCA. A sample with other than N−1
// edges is turned away in O(1), and the forward pass checks the rest of the
// tree shape; ok is false for any sample that fails. Sample ids are in
// discovery order, so every tree a sampler draws passes
// (docs/INVARIANTS.md).
func (k *sampleKernel) treeSizes(s *cascade.SampledGraph, blocked []bool) (sizes []int32, ok bool) {
	n := int32(s.N)
	inStart, parent := s.InStart, s.InTo
	if len(parent) != s.N-1 || inStart[1] != 0 {
		return nil, false
	}
	k.sizes = slices.Grow(k.sizes[:0], s.N)[:s.N]
	sizes = k.sizes
	sizes[0] = 1
	for v := int32(1); v < n; v++ {
		p := parent[v-1]
		if inStart[v+1] != v || p >= v {
			return nil, false
		}
		sizes[v] = 1
		if sizes[p] == 0 || blocked != nil && blocked[s.Orig[v]] {
			sizes[v] = 0
		}
	}
	for v := n - 1; v > 0; v-- {
		sizes[parent[v-1]] += sizes[v]
	}
	return sizes, true
}

// dominateSplit is the edge-blocking variant: it splits every live edge j
// = (u, v) of the sample into u → x_j → v through an edge-vertex x_j
// numbered N+j, so an edge's dominator subtree is a vertex's. The returned
// sizes count real vertices only: sizes[N+j] is the number of vertices
// that lose their last path from the source when edge j is removed.
func (k *sampleKernel) dominateSplit(s *cascade.SampledGraph) []int32 {
	n := int32(s.N)
	from, to := k.eFrom[:0], k.eTo[:0]
	for u := int32(0); u < n; u++ {
		for j := s.OutStart[u]; j < s.OutStart[u+1]; j++ {
			from = append(from, u)
			to = append(to, n+j)
		}
	}
	for j, v := range s.OutTo {
		from = append(from, n+int32(j))
		to = append(to, v)
	}
	k.eFrom, k.eTo = from, to
	k.fg.Build(s.N+len(s.OutTo), from, to)
	return k.subtreeSizes(&k.fg, s.N, nil, nil)
}

// subtreeSizes runs the dominator computation on fg rooted at local 0 — the
// estimators' one SNCA call — with every vertex v whose blocked[orig[v]] is
// set masked (blocked may be nil), and returns every vertex's subtree size,
// counting vertices below real (aliasing kernel storage).
func (k *sampleKernel) subtreeSizes(fg *dominator.FlowGraph, real int, orig []graph.V, blocked []bool) []int32 {
	tree := k.dws.SNCA(fg, 0, orig, blocked)
	k.sizes = slices.Grow(k.sizes[:0], fg.N)[:fg.N]
	k.dws.SubtreeSizes(tree, real, k.sizes)
	return k.sizes
}
