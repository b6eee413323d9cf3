package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/dominator"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// kernelSample makes a sample over local ids [0, n) with the given live
// edges. Original ids are 2·local+1, so a kernel that mixed local and
// original ids up would misreport.
func kernelSample(n int, edges [][2]int32) *cascade.SampledGraph {
	s := &cascade.SampledGraph{Orig: make([]graph.V, n)}
	for i := range s.Orig {
		s.Orig[i] = graph.V(2*i + 1)
	}
	from := make([]int32, len(edges))
	to := make([]int32, len(edges))
	for i, e := range edges {
		from[i], to[i] = e[0], e[1]
	}
	s.Build(n, from, to)
	return s
}

// filterRef is the reference for the kernel's masking, sharing none of its
// code: a BFS over the sample's live edges that skips blocked vertices,
// FlowGraph.Build of what it reached, then SNCA without a mask.
type filterRef struct {
	dws      *dominator.Workspace
	fg       dominator.FlowGraph
	fid      []int32 // sample local id → id in fg, −1 while unreached
	kept     []int32 // fg id → sample local id; doubles as the BFS queue
	from, to []int32
	fsizes   []int32
	sizes    []int32
}

func newFilterRef() *filterRef { return &filterRef{dws: dominator.NewWorkspace(0)} }

// dominate returns what sampleKernel.dominate must: every local id's
// dominator-subtree size in the sample with the blocked vertices deleted, 0
// where the filter did not reach. The slice is reused by the next call.
func (r *filterRef) dominate(s *cascade.SampledGraph, blocked []bool) []int32 {
	r.fid = slices.Grow(r.fid[:0], s.N)[:s.N]
	for v := range r.fid {
		r.fid[v] = -1
	}
	r.fid[0] = 0
	r.kept = append(r.kept[:0], 0)
	r.from, r.to = r.from[:0], r.to[:0]
	for qi := 0; qi < len(r.kept); qi++ {
		u := r.kept[qi]
		for _, v := range s.Succ(u) {
			if blocked != nil && blocked[s.Orig[v]] {
				continue
			}
			if r.fid[v] < 0 {
				r.fid[v] = int32(len(r.kept))
				r.kept = append(r.kept, v)
			}
			r.from, r.to = append(r.from, r.fid[u]), append(r.to, r.fid[v])
		}
	}
	r.fg.Build(len(r.kept), r.from, r.to)
	r.fsizes = slices.Grow(r.fsizes[:0], r.fg.N)[:r.fg.N]
	r.dws.SubtreeSizes(r.dws.SNCA(&r.fg, 0, nil, nil), r.fg.N, r.fsizes)
	r.sizes = slices.Grow(r.sizes[:0], s.N)[:s.N]
	clear(r.sizes)
	for f, v := range r.kept {
		r.sizes[v] = r.fsizes[f]
	}
	return r.sizes
}

// TestTreeFastPathMatchesSNCAProperty draws seeded IC and LT samples on the
// serving graph's generator (preferential attachment under trivalency, ten
// unified seeds; nearly every IC sample is a tree) and on a small dense
// graph (many IC samples are not), and runs each without and with blocked
// vertices. dominate must return the filter reference's size at every local
// id, zeros included, and every tree sample must take the tree path.
func TestTreeFastPathMatchesSNCAProperty(t *testing.T) {
	serving := datasets.PreferentialAttachment(2000, 5, true, rng.New(1))
	serving = graph.Trivalency.Assign(serving, rng.New(2))
	dense := datasets.ErdosRenyi(40, 400, true, rng.New(3))
	dense = graph.Trivalency.Assign(dense, rng.New(4))
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"serving", serving}, {"dense", dense}} {
		seeds, err := datasets.RandomSeeds(c.g, 10, true, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		in, err := newInstance(c.g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
			sampler := in.sampler(d)
			ws := sampler.NewWorkspace()
			r, br := rng.New(6), rng.New(7)
			fast, ref := newSampleKernel(), newFilterRef()
			blocked := make([]bool, in.n())
			trees, others, cut := 0, 0, 0
			for i := 0; i < 2000; i++ {
				s := sampler.Sample(in.src, nil, r, ws)
				isTree := len(s.InTo) == s.N-1
				if isTree {
					trees++
				} else {
					others++
				}
				for _, withBlocked := range []bool{false, true} {
					var b []bool
					if withBlocked {
						for _, v := range s.Orig[1:] {
							blocked[v] = br.Intn(4) == 0
						}
						b = blocked
					}
					if _, ok := fast.treeSizes(s, b); ok != isTree {
						t.Fatalf("%s %v sample %d: tree path taken %v, tree %v", c.name, d, i, ok, isTree)
					}
					sizes := fast.dominate(s, b)
					if want := ref.dominate(s, b); !slices.Equal(sizes, want) {
						t.Fatalf("%s %v sample %d blocked=%v: dominate %v, filter reference %v",
							c.name, d, i, withBlocked, sizes, want)
					}
					if isTree && slices.Contains(sizes, 0) {
						cut++
					}
				}
				for _, v := range s.Orig {
					blocked[v] = false
				}
			}
			t.Logf("%s %v: %d trees, %d others, %d cut", c.name, d, trees, others, cut)
			if trees == 0 || cut == 0 {
				t.Fatalf("%s %v: %d tree samples, %d with vertices cut off", c.name, d, trees, cut)
			}
			if c.name == "dense" && d == DiffusionIC && others == 0 {
				t.Fatalf("dense IC: no non-tree sample among %d", trees)
			}
		}
	}
}

// maxKernelFuzzN and maxKernelFuzzEdges keep the brute-force references
// (one BFS per vertex or per edge) fast.
const (
	maxKernelFuzzN     = 24
	maxKernelFuzzEdges = 128
)

// encodeKernelSample is the inverse of decodeKernelSample: one byte n−1,
// four bytes of blocked bitmask over local ids, then one (u, v) byte pair
// per edge.
func encodeKernelSample(n int, blocked []int32, edges [][2]int32) []byte {
	var mask uint32
	for _, v := range blocked {
		mask |= 1 << v
	}
	b := []byte{byte(n - 1)}
	b = binary.LittleEndian.AppendUint32(b, mask)
	for _, e := range edges {
		b = append(b, byte(e[0]), byte(e[1]))
	}
	return b
}

// decodeKernelSample reads a sample over n ∈ [1, maxKernelFuzzN] local ids
// rooted at 0, the local ids its blocked bitmask names (never the source),
// and its edges (endpoints mod n). Self-loops are dropped; cycles, repeated
// edges and vertices the source does not reach are kept.
func decodeKernelSample(data []byte) (int, []bool, [][2]int32) {
	if len(data) < 5 {
		return 1, make([]bool, 1), nil
	}
	n := int(data[0])%maxKernelFuzzN + 1
	mask := binary.LittleEndian.Uint32(data[1:5])
	blocked := make([]bool, n)
	for v := 1; v < n; v++ {
		blocked[v] = mask&(1<<v) != 0
	}
	var edges [][2]int32
	for i := 5; i+1 < len(data) && len(edges) < maxKernelFuzzEdges; i += 2 {
		u, v := int32(int(data[i])%n), int32(int(data[i+1])%n)
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return n, blocked, edges
}

// reachCount counts the vertices of s reachable from local 0 without using
// edge slot skip of its out-CSR (-1 skips none).
func reachCount(s *cascade.SampledGraph, skip int32) int32 {
	seen := make([]bool, s.N)
	seen[0] = true
	queue := []int32{0}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for j := s.OutStart[u]; j < s.OutStart[u+1]; j++ {
			if v := s.OutTo[j]; j != skip && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return int32(len(queue))
}

// FuzzSampleKernel checks the one per-sample kernel every estimator runs
// against references that share none of its masking, tree, edge-split or
// dominator code:
//
//   - dominate equals dominator.NaiveSubtreeSizes on the sample with every
//     edge touching a blocked vertex dropped, at every local id;
//   - dominate under an all-false mask equals the filter reference
//     (filterRef: BFS, Build, unmasked SNCA) at every local id;
//   - on the edge-split graph, each live edge's size equals the number of
//     vertices that lose every path from the source when it is removed;
//   - dominate takes the tree path exactly on samples whose every vertex
//     but the source has one in-edge, from a smaller id (the first check
//     covers its sizes).
func FuzzSampleKernel(f *testing.F) {
	f.Add(encodeKernelSample(5, nil, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {1, 4}}))                        // tree
	f.Add(encodeKernelSample(4, nil, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}}))                        // diamond
	f.Add(encodeKernelSample(4, []int32{2}, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}}))                 // cycle back to the source
	f.Add(encodeKernelSample(4, []int32{1}, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 1}}))                 // only source successor blocked
	f.Add(encodeKernelSample(5, []int32{1, 2, 3, 4}, [][2]int32{{0, 1}, {0, 2}, {2, 3}, {3, 4}}))        // every non-source vertex blocked
	f.Add(encodeKernelSample(4, []int32{3}, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 2}})) // repeated edge, blocked cycle
	f.Add(encodeKernelSample(7, []int32{1}, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {3, 6}})) // tree, blocked inner vertex
	f.Add(encodeKernelSample(5, nil, [][2]int32{{0, 3}, {3, 1}, {1, 4}, {0, 2}}))                        // tree not in discovery order
	f.Fuzz(func(t *testing.T, data []byte) {
		n, blockedLocal, edges := decodeKernelSample(data)
		s := kernelSample(n, edges)
		blocked := make([]bool, 2*n+1)
		for v, b := range blockedLocal {
			blocked[s.Orig[v]] = b
		}
		k := newSampleKernel()

		// Reference: the sample with every edge at a blocked vertex dropped,
		// over the same local ids.
		var from, to []int32
		for _, e := range edges {
			if !blockedLocal[e[0]] && !blockedLocal[e[1]] {
				from, to = append(from, e[0]), append(to, e[1])
			}
		}
		var ref dominator.FlowGraph
		ref.Build(n, from, to)
		want := dominator.NaiveSubtreeSizes(&ref, 0)
		if got := k.dominate(s, blocked); !slices.Equal(got, want) {
			t.Fatalf("n=%d blocked=%v edges=%v: dominate %v, naive %v", n, blockedLocal, edges, got, want)
		}

		none := make([]bool, 2*n+1)
		if got, want := k.dominate(s, none), newFilterRef().dominate(s, none); !slices.Equal(got, want) {
			t.Fatalf("n=%d edges=%v: dominate %v, filter reference %v", n, edges, got, want)
		}

		tree := len(edges) == n-1
		hasParent := make([]bool, n)
		for _, e := range edges {
			tree = tree && e[1] != 0 && !hasParent[e[1]] && e[0] < e[1]
			hasParent[e[1]] = true
		}
		if _, ok := k.treeSizes(s, blocked); ok != tree {
			t.Fatalf("n=%d edges=%v: tree path taken %v, want %v", n, edges, ok, tree)
		}

		split := k.dominateSplit(s)
		all := reachCount(s, -1)
		for j := range s.OutTo {
			if got, want := split[int32(n)+int32(j)], all-reachCount(s, int32(j)); got != want {
				t.Fatalf("n=%d edges=%v: edge slot %d cuts off %d vertices, split graph says %d", n, edges, j, want, got)
			}
		}
	})
}
