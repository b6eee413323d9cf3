package core

import (
	"context"
	"slices"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// unifiedBatch maps a mutation batch into UnifySeeds' id space the way a
// session did when it held unified copies: a changed seed row is a change
// of the super-seed's row, appended after the other sources, and seeds,
// fully disconnected in the unified graph, leave the targets.
func unifiedBatch(isSeed []bool, super graph.V, sources, targets []graph.V) (mappedS, mappedT []graph.V) {
	seedChanged := false
	for _, v := range sources {
		if isSeed[v] {
			seedChanged = true
		} else {
			mappedS = append(mappedS, v)
		}
	}
	if seedChanged {
		mappedS = append(mappedS, super)
	}
	for _, v := range targets {
		if !isSeed[v] {
			mappedT = append(mappedT, v)
		}
	}
	return mappedS, mappedT
}

// sameSample compares two samples field for field.
func sameSample(a, b *cascade.SampledGraph) bool {
	return a.N == b.N && slices.Equal(a.Orig, b.Orig) &&
		slices.Equal(a.OutStart, b.OutStart) && slices.Equal(a.OutTo, b.OutTo) &&
		slices.Equal(a.InStart, b.InStart) && slices.Equal(a.InTo, b.InTo)
}

// checkSeedView is the seed view's contract against its oracle, UnifySeeds'
// graph, under IC and LT: on the same rng stream the view's samplers draw
// the unified samplers' samples field for field, with and without
// blockers, and count the same SimulateCount; pools drawn through either
// are byte-identical; and after muts (three bytes each: source, target,
// probability/255) commit, the view's dirty criterion is the unified
// graph's and the pools repaired through either stay byte-identical to a
// fresh draw at the new epoch.
func checkSeedView(t *testing.T, g *graph.Graph, seeds []graph.V, blockBytes, muts []byte) {
	t.Helper()
	unified, super := g.UnifySeeds(seeds)
	view := graph.NewSeedView(g, seeds)
	if view.Super() != super || view.N() != unified.N() {
		t.Fatalf("view id space (%d, %d), unified (%d, %d)", view.Super(), view.N(), super, unified.N())
	}
	isSeed := view.Seeds()
	blockU := make([]bool, unified.N())
	blockV := slices.Clone(isSeed)
	for _, c := range blockBytes {
		if v := graph.V(int(c) % g.N()); !isSeed[v] {
			blockU[v], blockV[v] = true, true
		}
	}

	snap, sources, targets := seedViewMutate(t, g, muts)
	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		sampler := func(g *graph.Graph, v *graph.SeedView) cascade.LiveSampler {
			return (&instance{g: g, view: v}).sampler(d)
		}
		su, sv := sampler(unified, nil), sampler(g, view)
		wu, wv := su.NewWorkspace(), sv.NewWorkspace()
		ru, rv := rng.New(uint64(len(seeds))), rng.New(uint64(len(seeds)))
		for i := 0; i < 40; i++ {
			var bu, bv []bool
			if i%2 == 1 {
				bu, bv = blockU, blockV
			}
			a := su.Sample(super, bu, ru, wu)
			b := sv.Sample(super, bv, rv, wv)
			if !sameSample(a, b) {
				t.Fatalf("%v sample %d (blocked %v): view %+v, unified %+v", d, i, bu != nil, *b, *a)
			}
			if cu, cv := su.SimulateCount(super, bu, ru, wu), sv.SimulateCount(super, bv, rv, wv); cu != cv {
				t.Fatalf("%v SimulateCount %d: view %d, unified %d", d, i, cv, cu)
			}
		}

		const theta = 60
		poolU := NewSamplePool(su, super, theta, 2, rng.New(9))
		poolV := NewSamplePool(sv, super, theta, 2, rng.New(9))
		if !poolsEqual(poolU, poolV) {
			t.Fatalf("%v: pool drawn through the view differs from the unified graph's", d)
		}

		if snap == nil {
			continue
		}
		oldIn := &instance{g: g, view: view}
		critV := oldIn.dirtySet(d, sources, targets)
		critU, mappedT := unifiedBatch(isSeed, super, sources, targets)
		if d == DiffusionLT {
			critU = RepairSetLT(unified, critU, mappedT)
		}
		if !slices.Equal(critV, critU) {
			t.Fatalf("%v: view dirty set %v, unified graph's %v", d, critV, critU)
		}
		unified2, _ := snap.UnifySeeds(seeds)
		view2 := graph.NewSeedView(snap, seeds)
		newU, newV := sampler(unified2, nil), sampler(snap, view2)
		repU, _ := poolU.Repair(newU, critU, 2)
		repV, _ := poolV.Repair(newV, critV, 3)
		fresh := NewSamplePool(newV, super, theta, 1, rng.New(9))
		if !poolsEqual(repV, repU) || !poolsEqual(repV, fresh) {
			t.Fatalf("%v: pool repaired through the view differs (unified repair %v, fresh draw %v)",
				d, poolsEqual(repV, repU), poolsEqual(repV, fresh))
		}
	}
}

// seedViewMutate commits muts (three bytes each: source, target,
// probability/255) to g: an existing edge gets the new probability when
// the byte is even and is removed when it is odd, a missing one is added.
// It returns nil when no mutation applies.
func seedViewMutate(t *testing.T, g *graph.Graph, muts []byte) (*graph.Graph, []graph.V, []graph.V) {
	t.Helper()
	n := g.N()
	var batch []dynamic.Mutation
	touched := map[[2]graph.V]bool{}
	for i := 0; i+2 < len(muts); i += 3 {
		u, v, p := graph.V(int(muts[i])%n), graph.V(int(muts[i+1])%n), muts[i+2]
		if u == v || touched[[2]graph.V{u, v}] {
			continue
		}
		touched[[2]graph.V{u, v}] = true
		switch {
		case !g.HasEdge(u, v):
			batch = append(batch, dynamic.Mutation{Op: dynamic.OpAddEdge, U: u, V: v, P: float64(p) / 255})
		case p%2 == 0:
			batch = append(batch, dynamic.Mutation{Op: dynamic.OpSetProb, U: u, V: v, P: float64(p) / 255})
		default:
			batch = append(batch, dynamic.Mutation{Op: dynamic.OpRemoveEdge, U: u, V: v})
		}
	}
	if len(batch) == 0 {
		return nil, nil, nil
	}
	d := dynamic.New(g, dynamic.Config{})
	info, err := d.Commit(batch)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot()
	return snap, info.ChangedSources, info.ChangedTargets
}

// Property: on random preferential-attachment and Erdős–Rényi graphs, with
// repeated seeds, seeds wired to each other, seeds without out-edges, a
// first seed edge at p=0, and every vertex but one seeded, the seed view
// samples, pools and repairs exactly as UnifySeeds' graph does.
func TestSeedViewMatchesUnifiedProperty(t *testing.T) {
	r := rng.New(0x5eed)
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(60)
		var g *graph.Graph
		if trial%2 == 0 {
			g = datasets.PreferentialAttachment(n, 1+3*r.Float64(), r.Bernoulli(0.7), r)
		} else {
			g = datasets.ErdosRenyi(n, r.Intn(4*n)+1, true, r)
		}
		g = graph.Trivalency.Assign(g, r)
		a, b := graph.V(r.Intn(n)), graph.V(r.Intn(n))
		cases := [][]graph.V{{a, b, a}, {b, a}}
		if nb := g.OutNeighbors(a); len(nb) > 0 {
			cases = append(cases, append([]graph.V{a}, nb...)) // seed-to-seed edges
		}
		var sinks []graph.V
		for v := graph.V(0); int(v) < n; v++ {
			if g.OutDegree(v) == 0 {
				sinks = append(sinks, v)
			}
		}
		if len(sinks) > 0 {
			cases = append(cases, append([]graph.V{a}, sinks...)) // seeds without out-edges
		}
		var allBut []graph.V
		for v := graph.V(0); int(v) < n; v++ {
			if v != b {
				allBut = append(allBut, v)
			}
		}
		cases = append(cases, allBut)
		muts := make([]byte, 3*(1+r.Intn(6)))
		for i := range muts {
			muts[i] = byte(r.Intn(256))
		}
		muts = append(muts, byte(a), byte(r.Intn(n)), 255) // a seed row changes
		blockers := []byte{byte(r.Intn(n)), byte(r.Intn(n)), byte(r.Intn(n))}
		for _, seeds := range cases {
			checkSeedView(t, g, seeds, blockers, muts)
		}
	}

	// A first seed edge at p=0 still lists its target once, folded with
	// the next seed's edge; under LT the super edge weighs the fold.
	g := graph.FromEdges(5, []graph.Edge{{From: 0, To: 2, P: 0}, {From: 1, To: 2, P: 0.5}, {From: 2, To: 3, P: 0.7},
		{From: 4, To: 2, P: 0.3}, {From: 0, To: 1, P: 0.9}, {From: 3, To: 0, P: 1}})
	for _, seeds := range [][]graph.V{{0, 1}, {1, 0}, {0, 0, 1}} {
		checkSeedView(t, g, seeds, []byte{3}, []byte{0, 2, 128, 4, 2, 255})
	}
}

// FuzzSeedView decodes a graph of up to 64 vertices (three bytes per edge:
// source, target, probability/255), a seed list (one byte per seed,
// repeats allowed), blockers (one byte each) and a mutation batch, then
// runs checkSeedView.
func FuzzSeedView(f *testing.F) {
	f.Add(uint8(3), []byte{0, 2, 128, 1, 2, 128, 2, 0, 255}, []byte{0, 1}, []byte{2}, []byte{0, 2, 10})
	f.Add(uint8(4), []byte{0, 2, 0, 1, 2, 128, 2, 3, 128}, []byte{0, 0, 1}, []byte{}, []byte{1, 2, 3, 2, 3, 4})
	f.Add(uint8(5), []byte{0, 1, 255, 1, 0, 255, 1, 2, 10, 3, 4, 200}, []byte{1, 0}, []byte{4}, []byte{0, 1, 7})
	f.Add(uint8(6), []byte{0, 1, 100, 2, 3, 100}, []byte{5, 4}, []byte{1}, []byte{4, 0, 200})
	f.Add(uint8(2), []byte{0, 1, 1}, []byte{0}, []byte{}, []byte{1, 0, 99})
	f.Fuzz(func(t *testing.T, nRaw uint8, edges, seedBytes, blockBytes, muts []byte) {
		n := 1 + int(nRaw%64)
		if len(seedBytes) == 0 || len(seedBytes) > 4*n || len(muts) > 60 {
			return
		}
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(edges); i += 3 {
			b.AddEdge(graph.V(int(edges[i])%n), graph.V(int(edges[i+1])%n), float64(edges[i+2])/255)
		}
		seeds := make([]graph.V, len(seedBytes))
		for i, s := range seedBytes {
			seeds[i] = graph.V(int(s) % n)
		}
		checkSeedView(t, b.Build(), seeds, blockBytes, muts)
	})
}

// A cached 10-seed instance on the serving-size graph costs under 1% of
// the graph's CSR bytes, and the session's count follows it through
// eviction, Advance and Reset.
func TestSessionInstanceBytes(t *testing.T) {
	g := datasets.PreferentialAttachment(20000, 5, true, rng.New(1))
	g = graph.Trivalency.Assign(g, rng.New(2))
	csrBytes := int64(2 * ((g.N()+1)*4 + g.M()*(4+8)))
	seeds, err := datasets.RandomSeeds(g, 10, true, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(g, DiffusionIC, 1)
	h, err := sess.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if _, err := h.Prepare(seeds); err != nil {
		t.Fatal(err)
	}
	one := sess.InstanceBytes()
	if one <= 0 || 100*one >= csrBytes {
		t.Fatalf("10-seed instance reports %d bytes, want in (0, 1%% of %d CSR bytes)", one, csrBytes)
	}
	var want int64
	for i := 0; i < maxSessionInstances+2; i++ { // the last two evict
		if _, err := h.Prepare([]graph.V{graph.V(i), graph.V(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, si := range sess.insts {
		want += si.in.memoryBytes()
	}
	if got := sess.InstanceBytes(); got != want {
		t.Fatalf("after eviction InstanceBytes = %d, cached instances hold %d", got, want)
	}
	h.Advance(g, 1, []graph.V{1, 2}, []graph.V{3})
	if got := sess.InstanceBytes(); got != want {
		t.Fatalf("after Advance InstanceBytes = %d, want %d", got, want)
	}
	h.Reset(g, 2)
	if got := sess.InstanceBytes(); got != 0 {
		t.Fatalf("after Reset InstanceBytes = %d, want 0", got)
	}
}
