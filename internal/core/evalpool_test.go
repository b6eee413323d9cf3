package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/exact"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// evalOracle is the spread a session's EvaluateSpread must report: a
// fresh pool of rounds samples on the reserved stream, every sample
// recounted by a BFS from the source that skips blocked vertices.
func evalOracle(t *testing.T, g *graph.Graph, d Diffusion, seeds, blockers []graph.V, rounds int) float64 {
	t.Helper()
	in, err := newInstance(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSamplePool(in.sampler(d), in.src, rounds, 1, evalBase())
	blocked := make([]bool, in.n())
	for _, v := range blockers {
		blocked[v] = true
	}
	var total int64
	for i := 0; i < rounds; i++ {
		var sg cascade.SampledGraph
		pool.view(i, &sg)
		seen := make([]bool, sg.N)
		seen[0] = true
		queue := []int32{0}
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range sg.OutTo[sg.OutStart[u]:sg.OutStart[u+1]] {
				if !seen[v] && !blocked[sg.Orig[v]] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		total += int64(len(queue))
	}
	return graph.SpreadFromUnified(float64(total)/float64(rounds), in.numSeeds)
}

// evalCase is one (seed set, blocker set) pair to evaluate.
type evalCase struct {
	seeds, blockers []graph.V
}

// evalCases returns one and several seeds, each without blockers and with
// the first few out-neighbors of the first seed that are not seeds, so the
// blockers cut real samples.
func evalCases(g *graph.Graph, single graph.V, multi []graph.V) []evalCase {
	var cases []evalCase
	for _, seeds := range [][]graph.V{{single}, multi} {
		isSeed := map[graph.V]bool{}
		for _, s := range seeds {
			isSeed[s] = true
		}
		var blockers []graph.V
		for _, v := range g.OutNeighbors(seeds[0]) {
			if !isSeed[v] && len(blockers) < 3 {
				blockers = append(blockers, v)
			}
		}
		cases = append(cases, evalCase{seeds, nil}, evalCase{seeds, blockers})
	}
	return cases
}

// TestSessionEvaluateSpread: the session's spread is evalOracle's bit for
// bit, under IC and LT, with one seed and several, with and without
// blockers.
func TestSessionEvaluateSpread(t *testing.T) {
	ctx := context.Background()
	g := sessionTestGraph(300)
	const rounds = 1500
	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		sess := NewSession(g, d, 2)
		for _, c := range evalCases(g, 3, []graph.V{3, 17, 40}) {
			got, err := sess.EvaluateSpread(ctx, c.seeds, c.blockers, rounds, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if want := evalOracle(t, g, d, c.seeds, c.blockers, rounds); got != want {
				t.Errorf("%v seeds %v blockers %v: session spread %v != oracle %v", d, c.seeds, c.blockers, got, want)
			}
		}
	}
}

// smallEvalGraph is a random graph small enough for exact spreads. Under
// LT each vertex's in-weights sum to at most 0.9.
func smallEvalGraph(seed uint64, n int, lt bool) *graph.Graph {
	r := rng.New(seed)
	type edge struct{ u, v graph.V }
	var edges []edge
	indeg := make([]int, n)
	for len(edges) < 2*n {
		u, v := graph.V(r.Intn(n)), graph.V(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, edge{u, v})
		indeg[v]++
	}
	b := graph.NewBuilder(n)
	for _, e := range edges {
		p := float64(r.Intn(4))*0.2 + 0.2
		if lt {
			p = (0.3 + 0.6*r.Float64()) / float64(indeg[e.v])
		}
		b.AddEdge(e.u, e.v, p)
	}
	return b.Build()
}

// ltExactSpread enumerates every vertex's LT choice — one in-row entry
// with its weight, or none with the rest — and returns the expected number
// of vertices reached from src without entering a blocked vertex.
func ltExactSpread(g *graph.Graph, src graph.V, blocked []bool) float64 {
	n := g.N()
	choice := make([]int, n) // index into v's in-row, -1 for none
	reached := make([]bool, n)
	count := func() int {
		clear(reached)
		reached[src] = true
		c := 1
		for grew := true; grew; {
			grew = false
			for v := 0; v < n; v++ {
				if !reached[v] && !blocked[v] && choice[v] >= 0 && reached[g.InNeighbors(graph.V(v))[choice[v]]] {
					reached[v] = true
					c++
					grew = true
				}
			}
		}
		return c
	}
	var rec func(v int, p float64) float64
	rec = func(v int, p float64) float64 {
		if v == n {
			return p * float64(count())
		}
		if graph.V(v) == src {
			return rec(v+1, p)
		}
		var sum float64
		rest := 1.0
		for j, w := range g.InProbs(graph.V(v)) {
			choice[v] = j
			sum += rec(v+1, p*w)
			rest -= w
		}
		choice[v] = -1
		return sum + rec(v+1, p*rest)
	}
	return rec(0, 1)
}

// TestSessionEvaluateSpreadHoeffding checks the session's spread against
// exact spreads within a Hoeffding bound. A spread sample counts reached
// vertices, an integer in [1, n], so the mean of R samples misses its
// expectation by more than (n−1)·√(ln(2/δ)/2R) with probability at most δ;
// here δ = 1e-6 per comparison. The pool's stream is fixed, so the check
// is deterministic. Under LT only one seed is checked: UnifySeeds folds
// seed weights the IC way, which biases multi-seed LT.
func TestSessionEvaluateSpreadHoeffding(t *testing.T) {
	ctx := context.Background()
	const (
		rounds = 20000
		delta  = 1e-6
	)
	for _, seed := range []uint64{1, 2, 3} {
		for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
			n := 7
			g := smallEvalGraph(seed, n, d == DiffusionLT)
			eps := float64(n-1) * math.Sqrt(math.Log(2/delta)/(2*rounds))
			sess := NewSession(g, d, 2)
			for _, c := range evalCases(g, 0, []graph.V{0, 1}) {
				if d == DiffusionLT && len(c.seeds) > 1 {
					continue
				}
				var want float64
				var err error
				switch {
				case d == DiffusionLT:
					want = ltExactSpread(g, c.seeds[0], toBlocked(n, c.blockers))
				case len(c.seeds) == 1:
					want, err = exact.Spread(g, c.seeds[0], toBlocked(n, c.blockers), 0)
				default:
					want, err = exact.SpreadSeeds(g, c.seeds, c.blockers, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := sess.EvaluateSpread(ctx, c.seeds, c.blockers, rounds, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > eps {
					t.Errorf("graph %d %v seeds %v blockers %v: spread %v, exact %v, bound %.4f", seed, d, c.seeds, c.blockers, got, want, eps)
				}
			}
		}
	}
}

// evalAll evaluates every case on sess and returns the spreads in order.
func evalAll(t *testing.T, sess *Session, cases []evalCase, rounds int, opt Options) []float64 {
	t.Helper()
	out := make([]float64, len(cases))
	for i, c := range cases {
		v, err := sess.EvaluateSpread(context.Background(), c.seeds, c.blockers, rounds, opt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// TestSessionEvalPoolAdvance: after Advance, warm spreads equal a fresh
// session's at the new epoch bit for bit, under IC and LT batches. A batch
// that adds a vertex repairs the single-seed eval pool and drops the
// multi-seed one, whose next evaluation draws afresh.
func TestSessionEvalPoolAdvance(t *testing.T) {
	const rounds = 800
	g := repairTestGraph(60, 41)
	cases := evalCases(g, 2, []graph.V{2, 5})

	dyn := dynamic.New(g, dynamic.Config{})
	info, err := dyn.Commit([]dynamic.Mutation{
		{Op: dynamic.OpAddVertex},
		{Op: dynamic.OpAddEdge, U: 2, V: graph.V(g.N()), P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	grown, _ := dyn.Snapshot()

	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		snap, sources, targets := repairMutations(t, g, 61)
		for _, b := range []struct {
			name             string
			g                *graph.Graph
			sources, targets []graph.V
			drops            int
		}{
			{"edges", snap, sources, targets, 0},
			{"vertex", grown, info.ChangedSources, info.ChangedTargets, 1},
		} {
			sess := NewSession(g, d, 2)
			evalAll(t, sess, cases, rounds, Options{})
			h, err := sess.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := h.Advance(b.g, 1, b.sources, b.targets)
			if st.PoolsDropped != b.drops || st.PoolsRepaired != 2-b.drops {
				t.Fatalf("%v %s: AdvanceStats = %+v, want %d eval pools dropped", d, b.name, st, b.drops)
			}
			for i, c := range cases[:3] { // one seed, then the multi-seed set's first case
				_, drawn, err := h.EvaluateSpreadContext(context.Background(), c.seeds, c.blockers, rounds, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if want := i == 2 && b.drops == 1; drawn != want {
					t.Errorf("%v %s seeds %v: drawn %v after Advance, want %v", d, b.name, c.seeds, drawn, want)
				}
			}
			h.Release()
			warm := evalAll(t, sess, cases, rounds, Options{})
			fresh := evalAll(t, NewSession(b.g, d, 2), cases, rounds, Options{})
			for i := range cases {
				if warm[i] != fresh[i] {
					t.Errorf("%v %s seeds %v blockers %v: warm spread %v != fresh %v", d, b.name, cases[i].seeds, cases[i].blockers, warm[i], fresh[i])
				}
			}
		}
	}
}

// TestSessionEvalPoolWorkerIndependent: spreads are identical at workers
// 1, 2 and 4, whether set on the session or per call.
func TestSessionEvalPoolWorkerIndependent(t *testing.T) {
	g := sessionTestGraph(300)
	cases := evalCases(g, 3, []graph.V{3, 17, 40})
	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		want := evalAll(t, NewSession(g, d, 1), cases, 2500, Options{Workers: 1})
		for _, w := range []int{2, 4} {
			for _, got := range [][]float64{
				evalAll(t, NewSession(g, d, w), cases, 2500, Options{}),
				evalAll(t, NewSession(g, d, 1), cases, 2500, Options{Workers: w}),
			} {
				for i := range cases {
					if got[i] != want[i] {
						t.Errorf("%v workers %d seeds %v blockers %v: spread %v != %v at 1 worker", d, w, cases[i].seeds, cases[i].blockers, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSessionEvalPoolPrefix: a pool of R samples answers fewer rounds from
// its first samples, exactly as a fresh session asked for that many, and
// draws nothing; a larger request redraws the pool at its size.
func TestSessionEvalPoolPrefix(t *testing.T) {
	ctx := context.Background()
	g := sessionTestGraph(300)
	sess := NewSession(g, DiffusionIC, 2)
	h, err := sess.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for _, c := range evalCases(g, 3, []graph.V{3, 17, 40}) {
		if _, drawn, err := h.EvaluateSpreadContext(ctx, c.seeds, c.blockers, 2000, Options{}); err != nil || (drawn != (c.blockers == nil)) {
			t.Fatalf("seeds %v: first call drawn %v, err %v", c.seeds, drawn, err)
		}
		for _, rounds := range []int{1, 700, 2000} {
			got, drawn, err := h.EvaluateSpreadContext(ctx, c.seeds, c.blockers, rounds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if drawn {
				t.Errorf("seeds %v: %d rounds redrew a 2000-sample pool", c.seeds, rounds)
			}
			want, err := NewSession(g, DiffusionIC, 2).EvaluateSpread(ctx, c.seeds, c.blockers, rounds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("seeds %v blockers %v: %d rounds of a 2000-sample pool read %v, a fresh session %v", c.seeds, c.blockers, rounds, got, want)
			}
		}
	}
	if _, drawn, err := h.EvaluateSpreadContext(ctx, []graph.V{3}, nil, 3000, Options{}); err != nil || !drawn {
		t.Fatalf("3000 rounds on a 2000-sample pool: drawn %v, err %v", drawn, err)
	}
	if theta := sess.insts[0].eval.Theta(); theta != 3000 {
		t.Fatalf("redrawn pool holds %d samples, want 3000", theta)
	}
	if _, _, err := h.EvaluateSpreadContext(ctx, []graph.V{3}, nil, 0, Options{}); err == nil {
		t.Error("0 rounds evaluated")
	}
}

// sessionPoolBytes recounts what the pool-bytes gauge should read.
func sessionPoolBytes(s *Session) int64 {
	var n int64
	for _, si := range s.insts {
		for _, sp := range si.pools {
			n += sp.est.MemoryBytes()
		}
		if si.eval != nil {
			n += si.eval.MemoryBytes()
		}
	}
	return n
}

// TestSessionEvalPoolBytes: the pool-bytes gauge counts eval pools through
// draw, redraw, repair and eviction, and reads 0 after Reset.
func TestSessionEvalPoolBytes(t *testing.T) {
	ctx := context.Background()
	g := repairTestGraph(80, 7)
	sess := NewSession(g, DiffusionIC, 2)
	check := func(when string) {
		t.Helper()
		if got, want := sess.Stats().PoolBytes, sessionPoolBytes(sess); got != want {
			t.Fatalf("%s: PoolBytes %d, want %d", when, got, want)
		}
	}
	if _, err := sess.EvaluateSpread(ctx, []graph.V{1}, nil, 500, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.PoolBytes != sess.insts[0].eval.MemoryBytes() || st.PoolBytes <= 0 {
		t.Fatalf("PoolBytes %d after one eval draw of %d bytes", st.PoolBytes, sess.insts[0].eval.MemoryBytes())
	}
	if _, err := sess.EvaluateSpread(ctx, []graph.V{1}, nil, 900, Options{}); err != nil {
		t.Fatal(err)
	}
	check("redraw")
	if _, err := sess.Solve(ctx, []graph.V{1}, 3, GreedyReplace, Options{Theta: 200, Seed: 4, ReuseSamples: true}); err != nil {
		t.Fatal(err)
	}
	check("selection pool")
	for i := 0; i < maxSessionInstances; i++ { // evicts the first seed set
		if _, err := sess.EvaluateSpread(ctx, []graph.V{graph.V(10 + i), 1}, nil, 300, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	check("eviction")
	snap, sources, targets := repairMutations(t, g, 9)
	h, err := sess.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h.Advance(snap, 1, sources, targets)
	h.Release()
	check("repair")
	h, err = sess.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset(snap, 2)
	h.Release()
	if st := sess.Stats(); st.PoolBytes != 0 {
		t.Fatalf("PoolBytes %d after Reset, want 0", st.PoolBytes)
	}
}

// cancelingSampler cancels a context when its after-th sample is drawn.
type cancelingSampler struct {
	cascade.LiveSampler
	after  int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelingSampler) Sample(src graph.V, blocked []bool, r *rng.Source, ws *cascade.Workspace) *cascade.SampledGraph {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.LiveSampler.Sample(src, blocked, r, ws)
}

// TestEvalPoolDrawCanceled: a draw under a canceled context returns
// ctx.Err() and caches nothing, and one canceled mid-way stops within
// drawCheckEvery samples per worker.
func TestEvalPoolDrawCanceled(t *testing.T) {
	g := sessionTestGraph(300)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	sess := NewSession(g, DiffusionIC, 2)
	h, err := sess.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.EvaluateSpreadContext(canceled, []graph.V{3}, nil, 500, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled draw: err %v, want context.Canceled", err)
	}
	if sess.insts[0].eval != nil || sess.poolBytes.Load() != 0 {
		t.Fatal("a canceled draw cached a pool")
	}
	if _, err := h.EvaluateSpread([]graph.V{3}, nil, 100, Options{}); err != nil {
		t.Fatal(err)
	}
	small := sess.insts[0].eval
	if _, _, err := h.EvaluateSpreadContext(canceled, []graph.V{3}, nil, 500, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled redraw: err %v, want context.Canceled", err)
	}
	if sess.insts[0].eval != small || sess.poolBytes.Load() != small.MemoryBytes() {
		t.Fatal("a canceled redraw replaced the cached pool")
	}
	h.Release()

	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		cs := &cancelingSampler{LiveSampler: cascade.NewIC(g), after: 10, cancel: cancel}
		pool, err := drawSamplePool(ctx, cs, 3, 4*drawCheckEvery, workers, evalBase())
		if pool != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: pool %v, err %v after cancel", workers, pool != nil, err)
		}
		if calls := cs.calls.Load(); calls > int64(workers*drawCheckEvery) {
			t.Errorf("workers %d: drew %d samples after a cancel at the 10th, want at most %d", workers, calls, workers*drawCheckEvery)
		}
		cancel()
	}
}

// BenchmarkSessionEvaluateSpread times one spread_before/spread_after pair
// as the service runs it — 2,000 rounds each, on the serving-size instance,
// with the blockers of a GreedyReplace solve:
//
//	warm   the seed set's eval pool is cached, so the pair only counts;
//	       every evaluated solve of a warm session takes this path.
//	draw   a fresh session each iteration, so the pair's first call draws
//	       the pool (the instance build is not timed).
func BenchmarkSessionEvaluateSpread(b *testing.B) {
	ctx := context.Background()
	g, seeds := estBenchGraph(b)
	res, err := Solve(g, seeds, estBenchRounds, GreedyReplace, Options{Theta: estBenchTheta, Seed: 1, ReuseSamples: true})
	if err != nil {
		b.Fatal(err)
	}
	pair := func(h *LockedSession) {
		for _, blockers := range [][]graph.V{nil, res.Blockers} {
			if _, err := h.EvaluateSpread(seeds, blockers, 2000, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		h, err := NewSession(g, DiffusionIC, 0).Acquire(ctx)
		if err != nil {
			b.Fatal(err)
		}
		defer h.Release()
		pair(h)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pair(h)
		}
	})
	b.Run("draw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h, err := NewSession(g, DiffusionIC, 0).Acquire(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.Prepare(seeds); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			pair(h)
			h.Release()
		}
	})
}
