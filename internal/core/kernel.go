package core

import (
	"slices"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
)

// sampleKernel is one worker's reusable state for Algorithm 2's unit of
// work, shared by every estimator: take one live-edge sample, restrict it
// to the non-blocked region reachable from the source, build that flow
// graph's dominator tree (a tree sample is its own), and read off every
// vertex's dominator-subtree size (Theorem 6). Its arrays grow to the
// largest sample processed.
type sampleKernel struct {
	dws *dominator.Workspace
	fg  dominator.FlowGraph // the filtered or edge-split sample, built here
	// Filter scratch over the input sample's local ids: stamp[v] ==
	// stampGen ⇔ v was reached by the current filter BFS, and flocal[v] is
	// then its id in fg.
	stamp      []int32
	flocal     []int32
	stampGen   int32
	queue      []int32
	forig      []graph.V
	eFrom, eTo []int32
	sizes      []int32
}

func newSampleKernel() sampleKernel {
	return sampleKernel{dws: dominator.NewWorkspace(0)}
}

// memoryBytes reports the kernel's resident footprint: its arrays, grown to
// the largest sample processed so far, plus the dominator workspace.
// graph.V is int32, so every slice here is 4 bytes per entry.
func (k *sampleKernel) memoryBytes() int64 {
	total := k.dws.MemoryBytes() + int64(cap(k.forig))*4
	for _, s := range [][]int32{k.fg.OutStart, k.fg.OutTo, k.fg.InStart, k.fg.InTo,
		k.stamp, k.flocal, k.queue, k.eFrom, k.eTo, k.sizes} {
		total += int64(cap(s)) * 4
	}
	return total
}

// dominate returns the sample's vertices (original ids; index 0 = the
// source) that stay reachable under the blocker set, with each one's
// dominator-subtree size. A tree sample takes the tree path (treeSizes),
// whatever is blocked. Of the rest, a sample holding no blocked vertex —
// every fresh sample (the sampler already skipped blocked vertices), every
// pool sample while nothing is blocked, dirty samples whose flips were all
// unblocks — already is the flow graph, so it goes straight to the
// dominator computation; any other takes the filter path. A flow graph has
// exactly one dominator tree, so every path returns identical sizes. The
// returned slices alias kernel or sample storage and are valid until the
// next call.
func (k *sampleKernel) dominate(s *cascade.SampledGraph, blocked []bool) ([]graph.V, []int32) {
	if orig, sizes, ok := k.treeSizes(s, blocked); ok {
		return orig, sizes
	}
	if blocked != nil {
		for _, v := range s.Orig {
			if blocked[v] {
				return k.filterAndDominate(s, blocked)
			}
		}
	}
	return s.Orig, k.subtreeSizes(&s.FlowGraph, s.N)
}

// treeSizes is dominate's tree path. A sample whose every vertex but the
// source has exactly one in-edge, from a smaller local id, is a tree rooted
// at local 0 with InTo as its parent array (InTo[v−1] is v's parent), and a
// tree is its own dominator tree. Removing blocked vertices cuts off their
// subtrees and leaves a tree, so one forward pass keeps each vertex whose
// parent was kept and which is not blocked, numbering the kept ones in
// local-id order, and one reverse pass adds every kept vertex's size into
// its parent's — no filter BFS, no Build and no SNCA. A sample with other
// than N−1 edges is turned away in O(1), and the forward pass checks the
// rest of the tree shape; ok is false, with nothing returned, for any
// sample that fails. Sample ids are in discovery order, so every tree a
// sampler draws passes, and its kept vertices come out in the filter BFS's
// order (docs/INVARIANTS.md).
func (k *sampleKernel) treeSizes(s *cascade.SampledGraph, blocked []bool) (orig []graph.V, sizes []int32, ok bool) {
	n := int32(s.N)
	inStart, parent := s.InStart, s.InTo
	if len(parent) != s.N-1 || inStart[1] != 0 {
		return nil, nil, false
	}
	// local[v] is v's id among the kept vertices, or -1 once it is cut off.
	k.flocal = slices.Grow(k.flocal[:0], s.N)[:s.N]
	local := k.flocal
	local[0] = 0
	k.forig = append(k.forig[:0], s.Orig[0])
	for v := int32(1); v < n; v++ {
		p := parent[v-1]
		if inStart[v+1] != v || p >= v {
			return nil, nil, false
		}
		if local[p] < 0 || blocked != nil && blocked[s.Orig[v]] {
			local[v] = -1
			continue
		}
		local[v] = int32(len(k.forig))
		k.forig = append(k.forig, s.Orig[v])
	}
	kept := len(k.forig)
	k.sizes = slices.Grow(k.sizes[:0], kept)[:kept]
	sizes = k.sizes
	for i := range sizes {
		sizes[i] = 1
	}
	for v := n - 1; v > 0; v-- {
		if lv := local[v]; lv > 0 {
			sizes[local[parent[v-1]]] += sizes[lv]
		}
	}
	return k.forig, sizes, true
}

// filterAndDominate is dominate's filter path: a BFS over the sample's
// live edges that skips blocked vertices, then the dominator computation on
// the flow graph it reached. Removing blocked vertices from a live-edge
// sample of G produces a live-edge sample of G[V\B], so estimates built on
// the result stay unbiased for the blocked graph.
func (k *sampleKernel) filterAndDominate(s *cascade.SampledGraph, blocked []bool) ([]graph.V, []int32) {
	k.stamp = slices.Grow(k.stamp[:0], s.N)[:s.N]
	k.flocal = slices.Grow(k.flocal[:0], s.N)[:s.N]
	k.stampGen++
	if k.stampGen == 0 {
		// Wrapped: 0 is the one value no generation takes. The whole
		// capacity is cleared, since later samples reuse all of it.
		clear(k.stamp[:cap(k.stamp)])
		k.stampGen = 1
	}
	k.queue = k.queue[:0]
	k.forig = k.forig[:0]
	k.eFrom = k.eFrom[:0]
	k.eTo = k.eTo[:0]

	k.stamp[0] = k.stampGen
	k.flocal[0] = 0
	k.forig = append(k.forig, s.Orig[0])
	k.queue = append(k.queue, 0)
	for qi := 0; qi < len(k.queue); qi++ {
		u := k.queue[qi]
		fu := k.flocal[u]
		for _, v := range s.Succ(u) {
			if blocked != nil && blocked[s.Orig[v]] {
				continue
			}
			var fv int32
			if k.stamp[v] == k.stampGen {
				fv = k.flocal[v]
			} else {
				k.stamp[v] = k.stampGen
				fv = int32(len(k.forig))
				k.flocal[v] = fv
				k.forig = append(k.forig, s.Orig[v])
				k.queue = append(k.queue, v)
			}
			k.eFrom = append(k.eFrom, fu)
			k.eTo = append(k.eTo, fv)
		}
	}
	k.fg.Build(len(k.forig), k.eFrom, k.eTo)
	return k.forig, k.subtreeSizes(&k.fg, k.fg.N)
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
	return k.subtreeSizes(&k.fg, s.N)
}

// subtreeSizes runs the dominator computation on fg rooted at local 0 — the
// estimators' one SNCA call — and returns every vertex's subtree size,
// counting vertices below real (aliasing kernel storage).
func (k *sampleKernel) subtreeSizes(fg *dominator.FlowGraph, real int) []int32 {
	tree := k.dws.SNCA(fg, 0)
	k.sizes = slices.Grow(k.sizes[:0], fg.N)[:fg.N]
	k.dws.SubtreeSizes(tree, real, k.sizes)
	return k.sizes
}
