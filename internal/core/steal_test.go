package core

import (
	"reflect"
	"testing"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/rng"
)

// TestSumAccOrderIndependent guards the determinism of the shard reduction:
// because accumulators are exact int64 counts, the pairwise tree in sumAcc
// must equal a plain left-to-right sum for every shard count, and must not
// care how shards are ordered. If someone ever switches the accumulator to
// floating point or makes the tree shape depend on scheduling, this fails.
func TestSumAccOrderIndependent(t *testing.T) {
	r := rng.New(99)
	for p := 1; p <= 9; p++ {
		shards := make([]*incShard, p)
		for s := range shards {
			acc := make([]int64, 50)
			for v := range acc {
				acc[v] = int64(r.Intn(1<<20)) - 1<<19
			}
			shards[s] = &incShard{acc: acc}
		}
		for v := graph.V(0); v < 50; v++ {
			var serial int64
			for _, sh := range shards {
				serial += sh.acc[v]
			}
			if got := sumAcc(shards, v); got != serial {
				t.Fatalf("p=%d v=%d: tree sum %d != serial sum %d", p, v, got, serial)
			}
			// Reverse the shard order: the result may not change.
			rev := make([]*incShard, p)
			for s := range shards {
				rev[p-1-s] = shards[s]
			}
			if got := sumAcc(rev, v); got != serial {
				t.Fatalf("p=%d v=%d: reversed tree sum %d != serial sum %d", p, v, got, serial)
			}
		}
	}
}

// TestSkewedDirtyBatchBitIdentical stages a maximally skewed round — every
// dirty sample owned by shard 0 — and requires the parallel path (stealing
// enabled) to produce exactly the serial estimator's values, with the work
// accounting intact. Whether steals actually occur depends on scheduling;
// correctness may not.
func TestSkewedDirtyBatchBitIdentical(t *testing.T) {
	g := denseTestGraph(120, 31)
	const theta = 256
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(7))
	inc4 := NewIncrementalPooledEstimatorFromPool(pool, 4)
	inc1 := NewIncrementalPooledEstimatorFromPool(pool, 1)

	n := g.N()
	blocked := make([]bool, n)
	d4 := make([]float64, n)
	d1 := make([]float64, n)
	copy(d4, inc4.DecreaseES(blocked))
	copy(d1, inc1.DecreaseES(blocked))
	if !reflect.DeepEqual(d4, d1) {
		t.Fatal("priming differs between workers 1 and 4")
	}

	for round := 0; round < 4; round++ {
		// Stage only shard 0's samples dirty — with unchanged blocked the
		// recompute is a no-op on the values, but the whole batch lands on
		// one shard and the other three workers have nothing of their own.
		sh0 := inc4.shards[0]
		before := inc4.Stats()
		for i := sh0.lo; i < sh0.hi; i++ {
			inc4.markDirty(int32(i))
		}
		copy(d4, inc4.DecreaseESFlips(blocked, nil))
		after := inc4.Stats()
		if got, want := after.SamplesReprocessed-before.SamplesReprocessed, int64(sh0.hi-sh0.lo); got != want {
			t.Fatalf("round %d: reprocessed %d samples, staged %d", round, got, want)
		}
		copy(d1, inc1.DecreaseES(blocked))
		if !reflect.DeepEqual(d4, d1) {
			t.Fatalf("round %d: skewed parallel round diverged from serial", round)
		}

		// Now a real flip, verified against the serial twin.
		blocked[(round*11)%(n-1)+1] = true
		copy(d4, inc4.DecreaseES(blocked))
		copy(d1, inc1.DecreaseES(blocked))
		if !reflect.DeepEqual(d4, d1) {
			t.Fatalf("round %d: post-flip values diverged", round)
		}
	}

	// Work accounting: a stolen sample is one of the reprocessed ones.
	if st := inc4.Stats(); st.SamplesStolen > st.SamplesReprocessed {
		t.Fatalf("stolen %d exceeds reprocessed %d", st.SamplesStolen, st.SamplesReprocessed)
	}
}

// TestStealDrainFoldsIntoThief pins the work-stealing arithmetic without
// depending on scheduling: it drives drain directly, making one shard steal
// a victim's entire batch, and requires the estimator to keep answering
// bit-identically afterwards. This is the invariant stealing rests on —
// only the cross-shard SUM of accumulators matters, so contributions may
// land in any shard.
func TestStealDrainFoldsIntoThief(t *testing.T) {
	g := denseTestGraph(100, 13)
	const theta = 200
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(21))
	est := NewIncrementalPooledEstimatorFromPool(pool, 4)
	ref := NewPooledEstimatorFromPool(pool, 2)

	n := g.N()
	blocked := make([]bool, n)
	dst := make([]float64, n)
	refDst := make([]float64, n)
	copy(dst, est.DecreaseES(blocked))

	// Force shard 3 to steal shard 0's whole range, outside a round. The
	// priming round may already have stolen (an early worker drains late
	// workers' batches), so assert the delta from this drain alone.
	victim, thief := est.shards[0], est.shards[3]
	stolenBefore, statsBefore := thief.stolen, est.Stats().SamplesStolen
	batch := make([]int32, 0, victim.hi-victim.lo)
	for i := victim.lo; i < victim.hi; i++ {
		batch = append(batch, int32(i))
	}
	victim.batch = batch
	victim.cur.Store(0)
	est.drain(victim, thief, blocked, true)
	victim.batch = nil
	if got := thief.stolen - stolenBefore; got != int64(len(batch)) {
		t.Fatalf("thief stole %d samples, want %d", got, len(batch))
	}
	if got := est.Stats().SamplesStolen - statsBefore; got != int64(len(batch)) {
		t.Fatalf("Stats().SamplesStolen grew by %d, want %d", got, len(batch))
	}

	// The stolen contributions were retracted and re-added under the same
	// blocked set, so every subsequent answer must still be exact.
	for round := 0; round < 3; round++ {
		blocked[(round*13)%(n-1)+1] = true
		copy(dst, est.DecreaseES(blocked))
		ref.DecreaseES(refDst, blocked)
		if !reflect.DeepEqual(dst, refDst) {
			t.Fatalf("round %d: values diverged after forced steal", round)
		}
	}

	// A reshard must fold the stolen counter into the lifetime total.
	lifetime := est.Stats().SamplesStolen
	est.SetWorkers(2)
	if st := est.Stats(); st.SamplesStolen < lifetime {
		t.Fatalf("reshard lost stolen counter: %d, want at least %d", st.SamplesStolen, lifetime)
	}
	copy(dst, est.DecreaseES(blocked))
	ref.DecreaseES(refDst, blocked)
	if !reflect.DeepEqual(dst, refDst) {
		t.Fatal("values diverged after reshard following forced steal")
	}
}

// TestParallelReductionLargeRound forces the fused parallel tree reduction
// (large touched union, many workers) and checks bit-identity against the
// serial path round by round. Run under -race this is the test that
// exercises concurrent reducers scanning all shards' touched lists.
func TestParallelReductionLargeRound(t *testing.T) {
	g := denseTestGraph(400, 5)
	const theta = 300
	pool := NewSamplePool(cascade.NewIC(g), 0, theta, 4, rng.New(11))
	inc8 := NewIncrementalPooledEstimatorFromPool(pool, 8)
	inc1 := NewIncrementalPooledEstimatorFromPool(pool, 1)

	n := g.N()
	blocked := make([]bool, n)
	d8 := make([]float64, n)
	d1 := make([]float64, n)
	for round := 0; round < 5; round++ {
		copy(d8, inc8.DecreaseES(blocked))
		copy(d1, inc1.DecreaseES(blocked))
		if !reflect.DeepEqual(d8, d1) {
			t.Fatalf("round %d: workers 8 diverged from workers 1", round)
		}
		// Flip a fresh vertex each round; the priming round and the dense
		// graph keep the touched union far above the inline threshold.
		blocked[(round*17)%(n-1)+1] = true
	}
	if st := inc8.Stats(); st.Rounds != 5 {
		t.Fatalf("rounds = %d, want 5", st.Rounds)
	}
}

// TestSkewedCascadeStealBitIdentical drives the estimator with the graph
// gengraph -skew generates — a few giant chain samples among hundreds of
// tiny ones, so per-shard work is maximally unbalanced and the stealing
// path actually has something to steal. Parallel results must stay
// bit-identical to the single-worker reference through a trajectory that
// keeps dirtying the giant samples.
func TestSkewedCascadeStealBitIdentical(t *testing.T) {
	g := datasets.SkewedCascade(3000, 8, 0.1, 0.03, rng.New(21))
	pool := NewSamplePool(cascade.NewIC(g), 0, 400, 4, rng.New(22))
	ref := NewIncrementalPooledEstimatorFromPool(pool, 1)
	par := NewIncrementalPooledEstimatorFromPool(pool, 4)
	blocked := make([]bool, g.N())
	dR := make([]float64, g.N())
	dP := make([]float64, g.N())
	for round := 0; round < 6; round++ {
		copy(dR, ref.DecreaseES(blocked))
		copy(dP, par.DecreaseES(blocked))
		if !reflect.DeepEqual(dR, dP) {
			t.Fatalf("round %d: Δ vectors differ between 1 and 4 workers", round)
		}
		best := -1
		for v := range dR {
			if v != 0 && !blocked[v] && (best == -1 || dR[v] > dR[best]) {
				best = v
			}
		}
		blocked[best] = true
	}
	if st := par.Stats(); st.SamplesStolen > st.SamplesReprocessed {
		t.Fatalf("stolen %d exceeds reprocessed %d", st.SamplesStolen, st.SamplesReprocessed)
	}
}
