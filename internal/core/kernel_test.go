package core

import (
	"encoding/binary"
	"reflect"
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

// sizesByOrig copies a kernel result into a map keyed by original id,
// leaving out zero sizes (vertices the source does not reach).
func sizesByOrig(orig []graph.V, sizes []int32) map[graph.V]int32 {
	m := make(map[graph.V]int32, len(orig))
	for i, v := range orig {
		if sizes[i] != 0 {
			m[v] = sizes[i]
		}
	}
	return m
}

// TestSampleKernelStampWrap runs the filter across the wrap of its
// generation counter. Vertices the first filter skipped must not read as
// reached when the counter later comes back to the value the wrap left in
// their stamps.
func TestSampleKernelStampWrap(t *testing.T) {
	s := kernelSample(4, [][2]int32{{0, 1}, {1, 2}, {0, 3}})
	blocked := make([]bool, 2*4+1)
	blocked[s.Orig[1]] = true

	k := newSampleKernel()
	k.stampGen = -1 // the next filter wraps the counter to 0
	k.filterAndDominate(s, blocked)
	k.stampGen = -2 // the next filter runs at generation -1
	got := sizesByOrig(k.filterAndDominate(s, nil))

	fresh := newSampleKernel()
	if want := sizesByOrig(fresh.filterAndDominate(s, nil)); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the wrap: sizes %v, want %v", got, want)
	}
}

// TestTreeFastPathMatchesSNCAProperty draws seeded IC and LT samples on the
// serving graph's generator (preferential attachment under trivalency, ten
// unified seeds; nearly every IC sample is a tree) and on a small dense
// graph (many IC samples are not), and runs each without and with blocked
// vertices. dominate must return the filter-and-SNCA path's (vertex, size)
// pairs in the same order, and every tree sample must take the tree path.
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
			fast, ref := newSampleKernel(), newSampleKernel()
			blocked := make([]bool, in.g.N())
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
					if _, _, ok := fast.treeSizes(s, b); ok != isTree {
						t.Fatalf("%s %v sample %d: tree path taken %v, tree %v", c.name, d, i, ok, isTree)
					}
					orig, sizes := fast.dominate(s, b)
					wantOrig, wantSizes := ref.filterAndDominate(s, b)
					if !slices.Equal(orig, wantOrig) || !slices.Equal(sizes, wantSizes) {
						t.Fatalf("%s %v sample %d blocked=%v: dominate %v %v, filter and SNCA %v %v",
							c.name, d, i, withBlocked, orig, sizes, wantOrig, wantSizes)
					}
					if isTree && len(orig) < s.N {
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
// against brute-force references that share none of its filter, shortcut,
// edge-split or dominator code:
//
//   - dominate equals dominator.NaiveSubtreeSizes on the sample with every
//     edge touching a blocked vertex dropped, per original vertex;
//   - the no-blocked shortcut equals the filter path run with an
//     all-false blocked set;
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
		want := sizesByOrig(s.Orig, dominator.NaiveSubtreeSizes(&ref, 0))
		if got := sizesByOrig(k.dominate(s, blocked)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d blocked=%v edges=%v: dominate %v, naive %v", n, blockedLocal, edges, got, want)
		}

		none := make([]bool, 2*n+1)
		short := sizesByOrig(k.dominate(s, none))
		if filtered := sizesByOrig(k.filterAndDominate(s, none)); !reflect.DeepEqual(short, filtered) {
			t.Fatalf("n=%d edges=%v: shortcut %v, filter path %v", n, edges, short, filtered)
		}

		tree := len(edges) == n-1
		hasParent := make([]bool, n)
		for _, e := range edges {
			tree = tree && e[1] != 0 && !hasParent[e[1]] && e[0] < e[1]
			hasParent[e[1]] = true
		}
		if _, _, ok := k.treeSizes(s, blocked); ok != tree {
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
