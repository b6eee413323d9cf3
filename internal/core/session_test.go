package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

func sessionTestGraph(n int) *graph.Graph {
	g := datasets.PreferentialAttachment(n, 3, true, rng.New(11))
	return graph.Trivalency.Assign(g, rng.New(12))
}

// A cold Solve runs on a throwaway session, so what this test guards is
// what a reused session carries from one call to the next: prepared
// instances, the fresh estimator re-fanned by SetWorkers, cached
// ReuseSamples pools whose estimator still reflects the previous run's
// blockers (prevBlocked), and the full diff on a run's first round. Every
// algorithm, under IC and LT, fresh and ReuseSamples, at workers 0, 1 and
// 4, runs twice on one session per model — seed sets, pool keys and
// algorithms interleaved between calls — and each Result must equal a cold
// Solve's in everything but Runtime. SampledGraphs is the one expected
// difference: a warm call that reuses its pool drew nothing.
func TestSessionMatchesSolve(t *testing.T) {
	g := sessionTestGraph(300)
	seedSets := [][]graph.V{{3}, {1, 5, 9}, {2, 40, 7, 11}}
	algs := []Algorithm{AdvancedGreedy, BaselineGreedy, GreedyReplace, Rand, OutDegree}
	ctx := context.Background()
	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		model := [...]string{DiffusionIC: "IC", DiffusionLT: "LT"}[d]
		sess := NewSession(g, d, 0)
		var cold []Result
		call := 0
		for pass := 0; pass < 2; pass++ {
			for _, workers := range []int{0, 1, 4} {
				for _, reuse := range []bool{false, true} {
					for _, alg := range algs {
						seeds := seedSets[call%len(seedSets)]
						opt := Options{Theta: 150, MCSRounds: 6, Seed: uint64(7 + call/len(seedSets)%2),
							Workers: workers, Diffusion: d, ReuseSamples: reuse}
						name := fmt.Sprintf("%s pass %d %s workers=%d reuse=%v seeds=%v", model, pass, alg, workers, reuse, seeds)
						if pass == 0 {
							res, err := Solve(g, seeds, 4, alg, opt)
							if err != nil {
								t.Fatalf("%s: cold solve: %v", name, err)
							}
							res.Runtime = 0
							cold = append(cold, res)
						}
						want := cold[call%len(cold)]
						_, builds0, _ := sess.PoolStats()
						got, err := sess.Solve(ctx, seeds, 4, alg, opt)
						if err != nil {
							t.Fatalf("%s: session solve: %v", name, err)
						}
						got.Runtime = 0
						if _, builds1, _ := sess.PoolStats(); reuse && builds1 == builds0 {
							want.SampledGraphs = 0
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: session %+v != cold %+v", name, got, want)
						}
						call++
					}
				}
			}
		}
		st := sess.Stats()
		if st.Rebuilds != int64(len(seedSets)) {
			t.Errorf("%s: rebuilds = %d, want %d (one per seed set)", model, st.Rebuilds, len(seedSets))
		}
		if st.Solves != int64(call) {
			t.Errorf("%s: solves = %d, want %d", model, st.Solves, call)
		}
	}
}

// Changing the seed set must rebuild the unified instance (and count as a
// rebuild), not silently reuse the old one.
func TestSessionRebuildsOnSeedChange(t *testing.T) {
	g := sessionTestGraph(200)
	sess := NewSession(g, DiffusionIC, 2)
	opt := Options{Theta: 100, Seed: 3, Workers: 2}
	ctx := context.Background()

	if _, err := sess.Solve(ctx, []graph.V{0, 1}, 3, AdvancedGreedy, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(ctx, []graph.V{2, 3}, 3, AdvancedGreedy, opt); err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(g, []graph.V{2, 3}, 3, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve(ctx, []graph.V{2, 3}, 3, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Blockers, direct.Blockers) {
		t.Fatalf("after seed change: session %v != direct %v", res.Blockers, direct.Blockers)
	}
	if st := sess.Stats(); st.Rebuilds != 2 || st.Reuses != 1 {
		t.Errorf("stats = %+v, want 2 rebuilds, 1 reuse", st)
	}
}

// Interleaved seed sets on one session must not thrash: each set keeps its
// prepared instance (up to maxSessionInstances), so alternating callers
// rebuild once each, not on every call.
func TestSessionInterleavedSeedSets(t *testing.T) {
	g := sessionTestGraph(200)
	sess := NewSession(g, DiffusionIC, 2)
	opt := Options{Theta: 100, Seed: 3, Workers: 2}
	ctx := context.Background()
	setA, setB := []graph.V{0, 1}, []graph.V{2, 3}
	for i := 0; i < 3; i++ {
		if _, err := sess.Solve(ctx, setA, 2, AdvancedGreedy, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Solve(ctx, setB, 2, AdvancedGreedy, opt); err != nil {
			t.Fatal(err)
		}
	}
	if st := sess.Stats(); st.Rebuilds != 2 || st.Reuses != 4 {
		t.Errorf("stats = %+v, want 2 rebuilds, 4 reuses", st)
	}

	// More distinct seed sets than the cache bound still stay bounded:
	// only eviction victims rebuild.
	for i := 0; i < maxSessionInstances+1; i++ {
		if _, err := sess.Solve(ctx, []graph.V{graph.V(10 + i)}, 1, OutDegree, opt); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(sess.insts); n != maxSessionInstances {
		t.Errorf("cached instances = %d, want %d", n, maxSessionInstances)
	}
}

// Waiting for a busy session is context-aware: a canceled caller stops
// queueing with ctx.Err() instead of blocking until the session frees.
func TestSessionLockContextAware(t *testing.T) {
	g := sessionTestGraph(100)
	sess := NewSession(g, DiffusionIC, 1)
	if err := sess.lock(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Solve(ctx, []graph.V{0}, 1, AdvancedGreedy, Options{Theta: 10}); err == nil {
		t.Fatal("Solve acquired a held session despite a canceled context")
	}
	if _, err := sess.EvaluateSpread(ctx, []graph.V{0}, nil, 10, Options{}); err == nil {
		t.Fatal("EvaluateSpread acquired a held session despite a canceled context")
	}
	sess.unlock()
	if _, err := sess.Solve(context.Background(), []graph.V{0}, 1, AdvancedGreedy, Options{Theta: 10, Seed: 1}); err != nil {
		t.Fatalf("freed session: %v", err)
	}
}

// A canceled context stops the greedy loop at the next round boundary and
// flags the partial result as Canceled, not TimedOut.
func TestSolveContextCanceled(t *testing.T) {
	g := sessionTestGraph(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first round check must fire
	for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace, BaselineGreedy} {
		res, err := SolveContext(ctx, g, []graph.V{0}, 5, alg, Options{Theta: 50, MCSRounds: 50, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.Canceled {
			t.Errorf("%s: Canceled not set", alg)
		}
		if res.TimedOut {
			t.Errorf("%s: TimedOut set on cancellation", alg)
		}
		if len(res.Blockers) != 0 {
			t.Errorf("%s: got %d blockers before first round check", alg, len(res.Blockers))
		}
	}
}

// Prepare builds a seed set's instance once and reports it; the solve that
// follows matches a cold Solve, and bad seed sets fail at Prepare.
func TestLockedSessionPrepare(t *testing.T) {
	g := sessionTestGraph(300)
	seeds := []graph.V{2, 8, 40}
	opt := Options{Theta: 150, Seed: 5, Workers: 1}
	sess := NewSession(g, DiffusionIC, 1)
	h, err := sess.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		built, err := h.Prepare(seeds)
		if err != nil || built != want {
			t.Fatalf("prepare %d: built %v err %v, want %v", i, built, err, want)
		}
	}
	got, err := h.Solve(context.Background(), seeds, 5, GreedyReplace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Prepare([]graph.V{graph.V(g.N())}); err == nil {
		t.Error("out-of-range seed prepared")
	}
	h.Release()
	if st := sess.Stats(); st.Rebuilds != 1 || st.Reuses != 2 {
		t.Errorf("rebuilds/reuses = %d/%d, want 1/2", st.Rebuilds, st.Reuses)
	}
	want, err := Solve(g, seeds, 5, GreedyReplace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Blockers, want.Blockers) {
		t.Fatalf("prepared session blockers %v != cold %v", got.Blockers, want.Blockers)
	}
}

// A seed listed twice is one seed: Solve and EvaluateSpread give the same
// answers for [a,a,b] as for [a,b], under both diffusion models.
func TestRepeatedSeedMatchesDistinct(t *testing.T) {
	tiny := graph.FromEdges(4, []graph.Edge{{From: 0, To: 2, P: 0.5}, {From: 1, To: 2, P: 0.5}, {From: 2, To: 3, P: 0.5}})
	opt := Options{Seed: 3, Workers: 1}
	rep, err := EvaluateSpread(tiny, []graph.V{0, 0, 1}, nil, 20000, opt)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := EvaluateSpread(tiny, []graph.V{0, 1}, nil, 20000, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Exact spread: 2 seeds + P(2 active) 0.75 + P(3 active) 0.375.
	if rep != dist || math.Abs(rep-3.125) > 0.03 {
		t.Fatalf("spread of [0,0,1] = %v, of [0,1] = %v, want both ≈ 3.125", rep, dist)
	}

	g := sessionTestGraph(300)
	a, b := graph.V(4), graph.V(21)
	for _, d := range []Diffusion{DiffusionIC, DiffusionLT} {
		opt := Options{Theta: 150, Seed: 9, Workers: 1, Diffusion: d}
		for _, alg := range []Algorithm{AdvancedGreedy, GreedyReplace} {
			x, err := Solve(g, []graph.V{a, a, b}, 5, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			y, err := Solve(g, []graph.V{a, b}, 5, alg, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(x.Blockers, y.Blockers) {
				t.Fatalf("%s/%v: blockers %v for [a,a,b], %v for [a,b]", alg, d, x.Blockers, y.Blockers)
			}
			sx, err := EvaluateSpread(g, []graph.V{a, a, b}, x.Blockers, 500, opt)
			if err != nil {
				t.Fatal(err)
			}
			sy, err := EvaluateSpread(g, []graph.V{a, b}, y.Blockers, 500, opt)
			if err != nil {
				t.Fatal(err)
			}
			if sx != sy {
				t.Fatalf("%s/%v: spread %v for [a,a,b], %v for [a,b]", alg, d, sx, sy)
			}
		}
	}
}

// A ReuseSamples solve whose context is already canceled stops before its
// pool draw finishes: it returns a partial Result with Canceled set and no
// error, caches no pool, and leaves the pool counters as they were, so the
// next solve draws the pool afresh and matches a cold solve.
func TestSessionCanceledFirstReuseSolveDrawsNoPool(t *testing.T) {
	g := sessionTestGraph(300)
	seeds := []graph.V{1, 5, 9}
	opt := Options{Theta: 5000, Seed: 3, Workers: 2, ReuseSamples: true}
	sess := NewSession(g, DiffusionIC, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Solve(ctx, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatalf("canceled solve returned error %v, want a partial Result", err)
	}
	if !res.Canceled || len(res.Blockers) != 0 || res.SampledGraphs != 0 {
		t.Fatalf("canceled solve = %+v, want Canceled, no blockers, no samples", res)
	}
	if bytes, builds, reuses := sess.PoolStats(); bytes != 0 || builds != 0 || reuses != 0 {
		t.Fatalf("PoolStats after canceled draw = (%d, %d, %d), want zeros", bytes, builds, reuses)
	}

	warm, err := sess.Solve(context.Background(), seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(g, seeds, 4, AdvancedGreedy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Blockers, cold.Blockers) || warm.SampledGraphs != int64(opt.Theta) {
		t.Fatalf("solve after cancel = %v (drew %d), cold = %v", warm.Blockers, warm.SampledGraphs, cold.Blockers)
	}
	if _, builds, _ := sess.PoolStats(); builds != 1 {
		t.Fatalf("PoolBuilds = %d after the live solve, want 1", builds)
	}
}
