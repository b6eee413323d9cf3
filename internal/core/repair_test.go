package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// repairTestGraph builds a sparse random graph whose samples reach only a
// fraction of the vertices, so a mutation batch dirties some but not all of
// the pool — the regime where repair must prove both halves correct.
func repairTestGraph(n int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(graph.V(r.Intn(n)), graph.V(r.Intn(n)), float64(r.Intn(3))*0.15+0.1)
	}
	return b.Build()
}

// repairMutations perturbs a handful of existing edges and adds/removes a
// few, returning the committed batch's snapshot and changed sources/targets.
func repairMutations(t *testing.T, g *graph.Graph, seed uint64) (*graph.Graph, []graph.V, []graph.V) {
	t.Helper()
	d := dynamic.New(g, dynamic.Config{})
	r := rng.New(seed)
	var muts []dynamic.Mutation
	edges := g.Edges()
	for len(muts) < 6 {
		e := edges[r.Intn(len(edges))]
		switch r.Intn(3) {
		case 0:
			muts = append(muts, dynamic.Mutation{Op: dynamic.OpSetProb, U: e.From, V: e.To, P: r.Float64()})
		case 1:
			muts = append(muts, dynamic.Mutation{Op: dynamic.OpRemoveEdge, U: e.From, V: e.To})
		default:
			u, v := graph.V(r.Intn(g.N())), graph.V(r.Intn(g.N()))
			if u != v && !g.HasEdge(u, v) {
				muts = append(muts, dynamic.Mutation{Op: dynamic.OpAddEdge, U: u, V: v, P: r.Float64()})
			}
		}
		// Keep the batch free of duplicate edge touches so it stays valid.
		for i := 0; i < len(muts)-1; i++ {
			last := muts[len(muts)-1]
			if muts[i].U == last.U && muts[i].V == last.V {
				muts = muts[:len(muts)-1]
				break
			}
		}
	}
	info, err := d.Commit(muts)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot()
	return snap, info.ChangedSources, info.ChangedTargets
}

func poolsEqual(a, b *SamplePool) bool {
	return reflect.DeepEqual(a.vertStart, b.vertStart) &&
		reflect.DeepEqual(a.edgeStart, b.edgeStart) &&
		reflect.DeepEqual(a.vertOrig, b.vertOrig) &&
		reflect.DeepEqual(a.csrStart, b.csrStart) &&
		reflect.DeepEqual(a.edgeTo, b.edgeTo) &&
		reflect.DeepEqual(a.csrInStart, b.csrInStart) &&
		reflect.DeepEqual(a.inFrom, b.inFrom) &&
		reflect.DeepEqual(a.idxStart, b.idxStart) &&
		reflect.DeepEqual(a.idxSample, b.idxSample)
}

// TestSamplePoolRepairBitIdentical is the repair contract: for a mutation
// batch, a repaired pool equals one rebuilt from scratch at the new epoch —
// byte for byte, at every worker count, with only the truly affected
// samples redrawn.
func TestSamplePoolRepairBitIdentical(t *testing.T) {
	sawPartial := false // at least one seed must leave clean samples to copy
	for _, seed := range []uint64{1, 2, 42} {
		g := repairTestGraph(40, seed)
		const theta = 300
		pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(seed+9))
		snap, changed, _ := repairMutations(t, g, seed+50)
		freshSampler := cascade.NewIC(snap)
		want := NewSamplePool(freshSampler, 0, theta, 4, rng.New(seed+9))

		for _, w := range []int{1, 2, 4, 8} {
			got, dirty := pool.Repair(freshSampler, changed, w)
			if !poolsEqual(got, want) {
				t.Fatalf("seed=%d workers=%d: repaired pool differs from fresh rebuild", seed, w)
			}
			if len(dirty) == 0 {
				t.Fatalf("seed=%d: mutation batch dirtied no samples — test exercises nothing", seed)
			}
			if len(dirty) < theta {
				sawPartial = true
			}
			// Every clean sample must match the OLD pool too (no redraw).
			mark := make([]bool, theta)
			for _, i := range dirty {
				mark[i] = true
			}
			var ov, nv cascade.SampledGraph
			for i := 0; i < theta; i++ {
				if mark[i] {
					continue
				}
				pool.view(i, &ov)
				got.view(i, &nv)
				if !reflect.DeepEqual(ov.Orig, nv.Orig) || !reflect.DeepEqual(ov.OutTo, nv.OutTo) {
					t.Fatalf("seed=%d: clean sample %d changed content", seed, i)
				}
			}
		}

		// No-op repair (no changed sources) must share and still be equal.
		same, dirty := pool.Repair(cascade.NewIC(g), nil, 2)
		if len(dirty) != 0 || !poolsEqual(same, pool) {
			t.Fatalf("seed=%d: no-op repair redrew %d samples", seed, len(dirty))
		}
	}
	if !sawPartial {
		t.Fatal("every seed dirtied the whole pool — the clean-copy path was never exercised")
	}
}

// TestIncrementalRepairMatchesRebuild drives a primed, mid-trajectory
// incremental estimator through a pool repair and requires its subsequent
// Δ vectors to be bit-identical to a from-scratch estimator on the rebuilt
// pool, at workers 1/2/4/8 — including a worker change in between, which
// must not lose the repair's queued dirty samples.
func TestIncrementalRepairMatchesRebuild(t *testing.T) {
	for _, seed := range []uint64{3, 7} {
		g := repairTestGraph(35, seed)
		const theta = 250
		snap, changed, _ := repairMutations(t, g, seed+50)
		freshPool := NewSamplePool(cascade.NewIC(snap), 0, theta, 3, rng.New(seed+9))

		for _, w := range []int{1, 2, 4, 8} {
			pool := NewSamplePool(cascade.NewIC(g), 0, theta, 3, rng.New(seed+9))
			est := NewIncrementalPooledEstimatorFromPool(pool, w)

			// Prime and walk a short greedy trajectory pre-mutation.
			n := g.N()
			blocked := make([]bool, n)
			dst := make([]float64, n)
			for round := 0; round < 3; round++ {
				copy(dst, est.DecreaseES(blocked))
				best := graph.V(1 + (round*7)%(n-1))
				blocked[best] = true
			}

			newPool, dirty := pool.Repair(cascade.NewIC(snap), changed, w)
			if !poolsEqual(newPool, freshPool) {
				t.Fatalf("seed=%d w=%d: repaired pool != fresh pool", seed, w)
			}
			est.RepairPool(newPool, dirty)
			if w == 4 {
				// Regression: resharding between repair and the next round
				// must carry the queued dirty samples and touched marks.
				est.SetWorkers(2)
			}

			ref := NewIncrementalPooledEstimatorFromPool(freshPool, 3)
			refDst := make([]float64, n)
			for round := 0; round < 4; round++ {
				copy(dst, est.DecreaseES(blocked))
				copy(refDst, ref.DecreaseES(blocked))
				for v := range dst {
					if dst[v] != refDst[v] { // exact float equality, deliberately
						t.Fatalf("seed=%d w=%d round=%d v=%d: repaired %v != rebuilt %v",
							seed, w, round, v, dst[v], refDst[v])
					}
				}
				best := graph.V(2 + (round*5)%(n-2))
				blocked[best] = !blocked[best]
			}
			if st := est.Stats(); st.SamplesReprocessed >= st.Rounds*int64(theta) {
				t.Errorf("seed=%d w=%d: repair degenerated to full re-scans", seed, w)
			}
		}
	}
}

// TestSessionAdvanceKeepsWarmSolvesExact is the end-to-end contract: a warm
// session migrated across a mutation batch returns exactly the blockers a
// cold solve on the mutated graph would, without rebuilding its pools.
func TestSessionAdvanceKeepsWarmSolvesExact(t *testing.T) {
	ctx := context.Background()
	g := repairTestGraph(60, 11)
	seeds := []graph.V{1, 4, 9}
	opt := Options{Theta: 300, Seed: 5, Workers: 2, ReuseSamples: true}

	sess := NewSession(g, DiffusionIC, 2)
	if _, err := sess.Solve(ctx, seeds, 4, AdvancedGreedy, opt); err != nil {
		t.Fatal(err)
	}

	snap, changed, targets := repairMutations(t, g, 77)
	h, err := sess.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Advance(snap, 1, changed, targets)
	if epoch := h.Epoch(); epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", epoch)
	}
	h.Release()
	if st.Instances != 1 || st.PoolsRepaired != 1 || st.PoolsDropped != 0 {
		t.Fatalf("AdvanceStats = %+v, want 1 instance, 1 repaired pool", st)
	}
	if st.SamplesRedrawn == 0 || st.SamplesKept == 0 {
		t.Fatalf("AdvanceStats = %+v — degenerate repair", st)
	}

	warm, err := sess.Solve(ctx, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(snap, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Blockers, cold.Blockers) {
		t.Fatalf("advanced warm blockers %v != cold blockers on mutated graph %v", warm.Blockers, cold.Blockers)
	}
	if warm.SampledGraphs != 0 {
		t.Fatalf("advanced warm solve drew %d samples, want 0 (pool repaired, not rebuilt)", warm.SampledGraphs)
	}
	stats := sess.Stats()
	if stats.PoolBuilds != 1 || stats.Advances != 1 {
		t.Fatalf("Stats = %+v, want PoolBuilds 1, Advances 1", stats)
	}
}

// TestSessionAdvanceVertexGrowth covers the vertex-add paths: a single-seed
// instance repairs across a grown vertex space, while a multi-seed instance
// must drop its pools (the super-seed id moved) yet still solve correctly.
func TestSessionAdvanceVertexGrowth(t *testing.T) {
	ctx := context.Background()
	g := repairTestGraph(50, 21)
	opt := Options{Theta: 200, Seed: 3, Workers: 2, ReuseSamples: true}

	d := dynamic.New(g, dynamic.Config{})
	info, err := d.Commit([]dynamic.Mutation{
		{Op: dynamic.OpAddVertex},
		{Op: dynamic.OpAddEdge, U: 2, V: graph.V(g.N()), P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot()

	for _, tc := range []struct {
		name      string
		seeds     []graph.V
		wantDrops int
	}{
		{"single-seed repairs", []graph.V{2}, 0},
		{"multi-seed drops pools", []graph.V{2, 5}, 1},
	} {
		sess := NewSession(g, DiffusionIC, 2)
		if _, err := sess.Solve(ctx, tc.seeds, 3, GreedyReplace, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h, err := sess.Acquire(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st := h.Advance(snap, 1, info.ChangedSources, info.ChangedTargets)
		h.Release()
		if st.PoolsDropped != tc.wantDrops || st.PoolsRepaired != 1-tc.wantDrops {
			t.Fatalf("%s: AdvanceStats = %+v, want %d dropped", tc.name, st, tc.wantDrops)
		}
		warm, err := sess.Solve(ctx, tc.seeds, 3, GreedyReplace, opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(snap, tc.seeds, 3, GreedyReplace, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm.Blockers, cold.Blockers) {
			t.Fatalf("%s: warm %v != cold %v", tc.name, warm.Blockers, cold.Blockers)
		}
	}
}

// TestSamplePoolRepairLTBitIdentical is the LT regression for the dirty
// criterion: an LT replay reads the in-rows of vertices it inspects but
// never reaches, so a changed edge can invalidate samples containing
// neither endpoint — only an old in-neighbor of the target. The minimal
// case (0→2, 1→2, source 1): removing (0,2) changes no sample's contained
// vertices' out-rows, yet vertex 2's trigger draw shifts. RepairSetLT must
// catch it; the randomized part checks the widened criterion end-to-end at
// several worker counts.
func TestSamplePoolRepairLTBitIdentical(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.Build()
	const theta = 64
	pool := NewSamplePool(cascade.NewLT(g), 1, theta, 2, rng.New(3))

	d := dynamic.New(g, dynamic.Config{})
	info, err := d.Commit([]dynamic.Mutation{{Op: dynamic.OpRemoveEdge, U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot()
	ltSampler := cascade.NewLT(snap)
	want := NewSamplePool(ltSampler, 1, theta, 2, rng.New(3))

	criterion := RepairSetLT(g, info.ChangedSources, info.ChangedTargets)
	if !reflect.DeepEqual(criterion, []graph.V{0, 1}) {
		t.Fatalf("RepairSetLT = %v, want [0 1] (source 0 plus 2's old in-neighbors)", criterion)
	}
	got, dirty := pool.Repair(ltSampler, criterion, 2)
	if !poolsEqual(got, want) {
		t.Fatal("LT repair with the widened criterion differs from a fresh rebuild")
	}
	// Demonstrate the criterion matters: sources alone miss the divergence
	// (vertex 0 is unreachable from source 1, so no sample contains it).
	naive, naiveDirty := pool.Repair(ltSampler, info.ChangedSources, 2)
	if len(naiveDirty) != 0 {
		t.Fatalf("precondition broke: naive criterion dirtied %d samples", len(naiveDirty))
	}
	if poolsEqual(naive, want) {
		t.Fatal("test lost its teeth: the naive source-only criterion no longer diverges")
	}
	if len(dirty) == 0 {
		t.Fatal("widened criterion dirtied nothing")
	}

	for _, seed := range []uint64{4, 9} {
		g := repairTestGraph(35, seed)
		pool := NewSamplePool(cascade.NewLT(g), 0, 300, 3, rng.New(seed+9))
		snap, sources, targets := repairMutations(t, g, seed+50)
		ltSampler := cascade.NewLT(snap)
		want := NewSamplePool(ltSampler, 0, 300, 3, rng.New(seed+9))
		for _, w := range []int{1, 2, 4, 8} {
			got, _ := pool.Repair(ltSampler, RepairSetLT(g, sources, targets), w)
			if !poolsEqual(got, want) {
				t.Fatalf("seed=%d workers=%d: repaired LT pool differs from fresh rebuild", seed, w)
			}
		}
	}
}

// TestSessionAdvanceLTKeepsWarmSolvesExact is the session-level LT
// contract: an advanced LT session's warm solve equals a cold solve on the
// mutated graph — the path the HTTP mutate endpoint drives for LT sessions.
func TestSessionAdvanceLTKeepsWarmSolvesExact(t *testing.T) {
	ctx := context.Background()
	g := repairTestGraph(60, 31)
	seeds := []graph.V{1, 4, 9}
	opt := Options{Theta: 300, Seed: 5, Workers: 2, ReuseSamples: true, Diffusion: DiffusionLT}

	sess := NewSession(g, DiffusionLT, 2)
	if _, err := sess.Solve(ctx, seeds, 4, AdvancedGreedy, opt); err != nil {
		t.Fatal(err)
	}
	snap, sources, targets := repairMutations(t, g, 97)
	h, err := sess.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := h.Advance(snap, 1, sources, targets)
	h.Release()
	if st.PoolsRepaired != 1 {
		t.Fatalf("AdvanceStats = %+v", st)
	}

	warm, err := sess.Solve(ctx, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(snap, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Blockers, cold.Blockers) {
		t.Fatalf("LT advanced warm blockers %v != cold blockers %v", warm.Blockers, cold.Blockers)
	}
	if warm.SampledGraphs != 0 {
		t.Fatalf("LT warm solve drew %d samples after advance", warm.SampledGraphs)
	}
}
