// benchcore.go measures the per-round cost of the two DecreaseES
// estimator modes (fresh and incremental) outside the Go testing framework, so cmd/experiments can
// emit a committed JSON baseline (BENCH_core.json) that future changes are
// regressed against. The workload mirrors internal/core's
// BenchmarkDecreaseES_* benchmarks: a b-round AdvancedGreedy trajectory on
// the ~100k-edge serving benchmark graph, replayed per estimator. On top of
// the two modes it sweeps the incremental estimator across worker counts
// (1, 2, 4, GOMAXPROCS) to record the sharded fast path's scaling curve —
// and, because the shard reduction is deterministic, it asserts along the
// way that every worker count selects bit-identical blockers.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/imin-dev/imin/internal/cascade"
	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/datasets"
	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/obs"
	"github.com/imin-dev/imin/internal/rng"
	"github.com/imin-dev/imin/internal/store"
)

// BenchCoreOptions parameterizes the estimator benchmark.
type BenchCoreOptions struct {
	// N and EdgesPerVertex shape the preferential-attachment graph
	// (defaults 20000 and 5, the serving benchmark's ~100k edges).
	N              int
	EdgesPerVertex float64
	// Budget is the greedy round count b (default 10).
	Budget int
	// MinTime is the minimum measuring time per mode and per sweep point
	// (default 2s).
	MinTime time.Duration
	// JSONPath, when non-empty, receives the report as indented JSON.
	JSONPath string
	// Force overwrites an existing JSONPath whose worker configuration
	// (requested workers, GOMAXPROCS, sweep points) differs from this
	// run's. Without it the run fails instead of silently replacing
	// numbers measured under different parallelism — the provenance
	// guard that keeps BENCH_core.json comparable across regenerations.
	Force bool
	// ScalingFloor, when > 0, fails the run if the 4-worker sweep point's
	// speedup over 1 worker falls below it — but only on machines with at
	// least 4 CPUs, where the comparison is meaningful. CI passes 0.9 so a
	// 4-worker regression of more than 10% cannot land silently; a real
	// multi-core runner is expected to clear 2x.
	ScalingFloor float64
}

// BenchCoreMode is one estimator's measurement.
type BenchCoreMode struct {
	NsPerRound    float64 `json:"ns_per_round"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	BytesPerRound float64 `json:"bytes_per_round"`
	// DirtySamplesPerRound is how many stored samples the round actually
	// re-processed (θ for the full-scan modes; the measured average for
	// the incremental mode, including its priming scan).
	DirtySamplesPerRound float64 `json:"dirty_samples_per_round"`
	// Workers is the effective worker count this measurement ran with
	// (the requested count resolved against GOMAXPROCS and clamped to θ)
	// — per-measurement provenance, so a single-threaded number can never
	// masquerade as a parallel one. NumCPU is the machine's core count;
	// together with Workers it tells a reader whether the workers actually
	// ran in parallel or timeshared one core.
	Workers int `json:"workers"`
	NumCPU  int `json:"num_cpu"`
}

// BenchCoreMutatePoint is one mutate-then-solve measurement: a batch of
// edge-probability mutations lands on the serving graph, then one
// estimation round runs — either through incremental repair of the warm
// pool (SamplePool.Repair + RepairPool + a dirty-only round) or through a
// full rebuild (fresh pool draw + priming scan). The repair path is what a
// warm session pays per mutation batch; the rebuild path is what it paid
// before the dynamic subsystem existed.
type BenchCoreMutatePoint struct {
	// BatchEdges is the number of mutated edges, FracOfEdges that count
	// relative to the serving graph's edge count.
	BatchEdges  int     `json:"batch_edges"`
	FracOfEdges float64 `json:"frac_of_edges"`
	// DirtySamples is how many of the θ stored samples the batch touched
	// (and repair redrew).
	DirtySamples int     `json:"dirty_samples"`
	RepairNs     float64 `json:"repair_ns"`
	RebuildNs    float64 `json:"rebuild_ns"`
	// Speedup is RebuildNs / RepairNs.
	Speedup float64 `json:"speedup_repair_vs_rebuild"`
	// RepairBitIdentical records that the repaired estimator's Δ vector
	// exactly equals the rebuilt one's — the correctness contract, asserted
	// on the serving-size instance.
	RepairBitIdentical bool `json:"repair_bit_identical"`
	Workers            int  `json:"workers"`
	NumCPU             int  `json:"num_cpu"`
}

// BenchCoreScalingPoint is one point of the incremental worker sweep.
type BenchCoreScalingPoint struct {
	// Workers is the estimator's shard count for this point; GoMaxProcs
	// is the scheduler parallelism it actually ran under (points above
	// GOMAXPROCS timeshare and are expected to flatline).
	Workers    int     `json:"workers"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	NsPerRound float64 `json:"ns_per_round"`
	// Speedup is workers=1 ns/round divided by this point's, Efficiency
	// is Speedup/Workers (1.0 = perfect linear scaling).
	Speedup    float64 `json:"speedup_vs_workers_1"`
	Efficiency float64 `json:"scaling_efficiency"`
}

// BenchCoreShard is one worker shard's share of the headline incremental
// measurement — the contention profile. Balanced Processed with zero Stolen
// means the static θ-range partition alone kept the workers busy; heavy
// Stolen means the dirty samples skewed and the work-stealing fallback
// carried the imbalance.
type BenchCoreShard struct {
	Shard int `json:"shard"`
	// Lo, Hi is the shard's owned sample range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Processed counts dirty samples this worker recomputed (own and
	// stolen); Stolen is the subset claimed from other shards' batches.
	Processed int64 `json:"processed"`
	Stolen    int64 `json:"stolen"`
	// Ns is the worker's cumulative wall-clock nanoseconds in the parallel
	// dirty-processing phase across the timed rounds.
	Ns int64 `json:"ns"`
}

// BenchCorePersistPolicy is the WAL write-through cost of one fsync policy:
// what a durable mutate pays per batch (in-memory commit + WAL append +
// policy-dependent fsync), against the bare in-memory commit baseline.
type BenchCorePersistPolicy struct {
	Policy string `json:"policy"`
	// CommitAppendNs is commit + WAL append per batch under this policy.
	CommitAppendNs float64 `json:"commit_append_ns"`
	// AppendNs is the WAL's share (CommitAppendNs − bare commit).
	AppendNs float64 `json:"append_ns"`
	// OverheadPct is AppendNs as a percentage of the bare commit cost —
	// the "WAL append overhead per mutate" headline number.
	OverheadPct float64 `json:"overhead_pct"`
}

// BenchCoreRecoveryPoint is one recovery-time measurement: open the store,
// load the snapshot, replay a WAL of the given length.
type BenchCoreRecoveryPoint struct {
	WALBatches      int     `json:"wal_batches"`
	WALMutations    int     `json:"wal_mutations"`
	WALBytes        int64   `json:"wal_bytes"`
	RecoverMS       float64 `json:"recover_ms"`
	ReplayedBatches int     `json:"replayed_batches"`
}

// BenchCorePersist is the durable-store section of BENCH_core.json: WAL
// append overhead per mutate batch at each fsync policy, and recovery time
// as a function of WAL length, both on the serving benchmark graph.
type BenchCorePersist struct {
	// BatchMutations is the set-prob mutations per measured batch.
	BatchMutations int `json:"batch_mutations"`
	// CommitNs is the bare in-memory commit per batch — the mutate latency
	// the WAL overhead is relative to.
	CommitNs float64                  `json:"commit_ns"`
	Policies []BenchCorePersistPolicy `json:"wal_append"`
	Recovery []BenchCoreRecoveryPoint `json:"recovery"`
}

// BenchCoreInstrumentation is the observability tax measurement: the same
// AdvancedGreedy solve run with Options.OnRound nil versus wired to the
// serving layer's instrument set (one histogram observation and three
// counter adds per round, the exact work internal/service's hook does).
// The acceptance bar is OverheadPct <= 2.
type BenchCoreInstrumentation struct {
	UninstrumentedNsPerRound float64 `json:"uninstrumented_ns_per_round"`
	InstrumentedNsPerRound   float64 `json:"instrumented_ns_per_round"`
	// OverheadPct is the instrumented slowdown in percent; small negative
	// values are measurement noise.
	OverheadPct float64 `json:"overhead_pct"`
	// RoundsObserved is how many OnRound callbacks actually fired during
	// the instrumented timing (sanity: > 0 or the hook never ran).
	RoundsObserved int64 `json:"rounds_observed"`
	// BlockersIdentical records that hooked and unhooked solves selected
	// the same blockers — the observer-purity contract at serving size.
	BlockersIdentical bool `json:"blockers_identical"`
	Workers           int  `json:"workers"`
}

// BenchCoreReport is the BENCH_core.json schema.
type BenchCoreReport struct {
	Graph struct {
		Generator      string  `json:"generator"`
		N              int     `json:"n"`
		EdgesPerVertex float64 `json:"edges_per_vertex"`
		Edges          int     `json:"edges"`
		NumSeeds       int     `json:"num_seeds"`
	} `json:"graph"`
	Theta  int `json:"theta"`
	Budget int `json:"budget"`
	// Workers is the requested configuration (0 = all cores); every
	// measurement additionally records the effective count it used.
	Workers     int           `json:"workers"`
	PoolBytes   int64         `json:"pool_bytes"`
	PoolBuildMS float64       `json:"pool_build_ms"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	NumCPU      int           `json:"num_cpu"`
	GoVersion   string        `json:"go_version"`
	GeneratedBy string        `json:"generated_by"`
	Fresh       BenchCoreMode `json:"fresh"`
	Incremental BenchCoreMode `json:"incremental"`
	// ContentionProfile is the per-shard work breakdown of the headline
	// incremental measurement; SamplesStolen is its total cross-shard
	// steal count.
	ContentionProfile []BenchCoreShard `json:"contention_profile"`
	SamplesStolen     int64            `json:"samples_stolen"`
	// IncrementalScaling sweeps the incremental estimator's worker count;
	// BlockersIdenticalAcrossWorkers records that every sweep point
	// re-derived the same greedy blocker sequence (the sharded reduction's
	// determinism guarantee, asserted here on the serving-size instance).
	IncrementalScaling             []BenchCoreScalingPoint `json:"incremental_scaling"`
	BlockersIdenticalAcrossWorkers bool                    `json:"blockers_identical_across_workers"`
	// MutateRepair measures pool repair against full rebuild after mutation
	// batches of increasing size on the serving graph.
	MutateRepair []BenchCoreMutatePoint `json:"mutate_repair"`
	// Persist measures the durable store: WAL append overhead per mutate at
	// each fsync policy, and recovery time vs WAL length.
	Persist *BenchCorePersist `json:"persist,omitempty"`
	// Instrumentation measures the per-round cost of the OnRound
	// observability hook against the identical unhooked solve.
	Instrumentation           *BenchCoreInstrumentation `json:"instrumentation,omitempty"`
	SpeedupIncrementalVsFresh float64                   `json:"speedup_incremental_vs_fresh"`
	SpeedupIncremental4WVs1W  float64                   `json:"speedup_incremental_4w_vs_1w"`
}

// sweepWorkers returns the deduplicated ascending worker counts to sweep:
// 1, 2, 4, and GOMAXPROCS.
func sweepWorkers() []int {
	ws := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// workerConfigMatches reports whether an existing report was produced
// under the same parallelism configuration as the pending one.
func workerConfigMatches(old, cur *BenchCoreReport) bool {
	if old.Workers != cur.Workers || old.GoMaxProcs != cur.GoMaxProcs {
		return false
	}
	if len(old.IncrementalScaling) != len(cur.IncrementalScaling) {
		return false
	}
	for i := range old.IncrementalScaling {
		if old.IncrementalScaling[i].Workers != cur.IncrementalScaling[i].Workers {
			return false
		}
	}
	return true
}

// checkOverwrite enforces the provenance guard on an existing JSON
// baseline. A file that fails to parse (pre-sweep schema, manual edits) is
// treated as a configuration mismatch: only -force may replace it.
func checkOverwrite(path string, cur *BenchCoreReport, force bool) error {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if force {
		return nil
	}
	var old BenchCoreReport
	if err := json.Unmarshal(buf, &old); err != nil {
		return fmt.Errorf("benchcore: %s exists but does not parse (%v); pass -force to replace it", path, err)
	}
	if old.GoMaxProcs > cur.GoMaxProcs {
		return fmt.Errorf("benchcore: %s was measured at gomaxprocs=%d but this run has only %d — a lower-parallelism regeneration would silently degrade the committed scaling baseline; pass -force to overwrite",
			path, old.GoMaxProcs, cur.GoMaxProcs)
	}
	if !workerConfigMatches(&old, cur) {
		return fmt.Errorf("benchcore: %s was measured with workers=%d gomaxprocs=%d sweep=%v, this run is workers=%d gomaxprocs=%d sweep=%v; pass -force to overwrite",
			path, old.Workers, old.GoMaxProcs, scalingWorkers(old.IncrementalScaling),
			cur.Workers, cur.GoMaxProcs, scalingWorkers(cur.IncrementalScaling))
	}
	return nil
}

func scalingWorkers(pts []BenchCoreScalingPoint) []int {
	ws := make([]int, len(pts))
	for i, p := range pts {
		ws[i] = p.Workers
	}
	return ws
}

// effectiveWorkers resolves a requested worker count the way the
// estimators do: 0 → GOMAXPROCS, then clamped to θ.
func effectiveWorkers(workers, theta int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > theta {
		workers = theta
	}
	return workers
}

// RunBenchCore builds the benchmark instance, measures the two modes and
// the incremental worker sweep, and writes the report table to cfg.Out
// (and JSON to opt.JSONPath, if set).
func RunBenchCore(cfg Config, opt BenchCoreOptions) (*BenchCoreReport, error) {
	cfg = cfg.WithDefaults()
	if opt.N <= 0 {
		opt.N = 20_000
	}
	if opt.EdgesPerVertex <= 0 {
		opt.EdgesPerVertex = 5
	}
	if opt.Budget <= 0 {
		opt.Budget = 10
	}
	if opt.MinTime <= 0 {
		opt.MinTime = 2 * time.Second
	}

	g := datasets.PreferentialAttachment(opt.N, opt.EdgesPerVertex, true, rng.New(1))
	g = graph.Trivalency.Assign(g, rng.New(2))
	seeds, err := datasets.RandomSeeds(g, cfg.NumSeeds, true, rng.New(3))
	if err != nil {
		return nil, err
	}
	unified, super := g.UnifySeeds(seeds)
	sampler := cascade.NewIC(unified)
	isSeed := make([]bool, unified.N())
	for _, s := range seeds {
		isSeed[s] = true
	}

	rep := &BenchCoreReport{
		Theta:       cfg.Theta,
		Budget:      opt.Budget,
		Workers:     cfg.Workers,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GeneratedBy: "cmd/experiments -exp benchcore",
	}
	rep.Graph.Generator = "preferential-attachment"
	rep.Graph.N = opt.N
	rep.Graph.EdgesPerVertex = opt.EdgesPerVertex
	rep.Graph.Edges = g.M()
	rep.Graph.NumSeeds = cfg.NumSeeds
	for _, w := range sweepWorkers() {
		rep.IncrementalScaling = append(rep.IncrementalScaling,
			BenchCoreScalingPoint{Workers: w, GoMaxProcs: rep.GoMaxProcs, NumCPU: rep.NumCPU})
	}

	// Fail the provenance check before spending minutes measuring.
	if opt.JSONPath != "" {
		if err := checkOverwrite(opt.JSONPath, rep, opt.Force); err != nil {
			return nil, err
		}
	}

	mainWorkers := effectiveWorkers(cfg.Workers, cfg.Theta)

	t0 := time.Now()
	pool := core.NewSamplePool(sampler, super, cfg.Theta, cfg.Workers, rng.New(cfg.Seed).Split(^uint64(0)))
	rep.PoolBuildMS = float64(time.Since(t0)) / float64(time.Millisecond)
	rep.PoolBytes = pool.MemoryBytes()

	// One greedy trajectory, recorded over a fresh incremental estimator,
	// replayed by every mode so the measurement isolates DecreaseES.
	n := unified.N()
	blocked := make([]bool, n)
	delta := make([]float64, n)
	recorder := core.NewIncrementalPooledEstimatorFromPool(pool, cfg.Workers)
	pickBest := func(delta []float64) graph.V {
		best := graph.V(-1)
		for v := graph.V(0); int(v) < g.N(); v++ {
			if isSeed[v] || blocked[v] {
				continue
			}
			if best == -1 || delta[v] > delta[best] {
				best = v
			}
		}
		return best
	}
	traj := make([]graph.V, 0, opt.Budget)
	for round := 0; round < opt.Budget; round++ {
		recorder.DecreaseES(delta, blocked)
		best := pickBest(delta)
		if best == -1 {
			return nil, fmt.Errorf("benchcore: ran out of candidates at round %d", round)
		}
		blocked[best] = true
		traj = append(traj, best)
	}
	clear(blocked)

	measure := func(oneRun func()) (nsPerRound, bytesPerRound float64, rounds int64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for time.Since(start) < opt.MinTime {
			oneRun()
			rounds += int64(opt.Budget)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		return float64(elapsed.Nanoseconds()) / float64(rounds),
			float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(rounds), rounds
	}

	// Fresh: θ new samples every round.
	fresh := core.NewEstimator(sampler, cfg.Workers)
	base := rng.New(cfg.Seed)
	round := uint64(0)
	ns, by, _ := measure(func() {
		for _, v := range traj {
			fresh.DecreaseES(delta, super, blocked, cfg.Theta, base.Split(round))
			round++
			blocked[v] = true
		}
		clear(blocked)
	})
	rep.Fresh = BenchCoreMode{NsPerRound: ns, BytesPerRound: by,
		SamplesPerSec: float64(cfg.Theta) / ns * 1e9, DirtySamplesPerRound: float64(cfg.Theta),
		Workers: mainWorkers, NumCPU: rep.NumCPU}

	// Incremental: persistent estimator per sweep point, flips reported,
	// priming included in the first run and amortized like a warm session
	// would. The measurement goes through the zero-copy view API — the
	// path the greedy loops run — so it excludes the O(n) dst fill that
	// only the compatibility wrappers pay. Before timing a point, one
	// greedy selection re-derives the trajectory at that worker count and
	// is checked against the recorded trajectory — the
	// bit-identical-blockers guarantee, exercised at serving size.
	rep.BlockersIdenticalAcrossWorkers = true
	measureIncremental := func(workers int) (BenchCoreMode, []core.ShardProfile, int64, error) {
		incr := core.NewIncrementalPooledEstimatorFromPool(pool, workers)
		reTraj := make([]graph.V, 0, opt.Budget)
		flips := make([]graph.V, 0, opt.Budget)
		for range traj {
			vals := incr.DecreaseESFlipsView(blocked, flips)
			flips = flips[:0]
			best := pickBest(vals)
			if best == -1 {
				return BenchCoreMode{}, nil, 0, fmt.Errorf("benchcore: sweep at workers=%d ran out of candidates", workers)
			}
			blocked[best] = true
			flips = append(flips, best)
			reTraj = append(reTraj, best)
		}
		if !slices.Equal(reTraj, traj) {
			rep.BlockersIdenticalAcrossWorkers = false
		}
		for _, v := range traj {
			blocked[v] = false
			flips = append(flips, v)
		}
		st0 := incr.Stats()
		ns, by, rounds := measure(func() {
			for _, v := range traj {
				incr.DecreaseESFlipsView(blocked, flips)
				flips = flips[:0]
				blocked[v] = true
				flips = append(flips, v)
			}
			for _, v := range traj {
				blocked[v] = false
				flips = append(flips, v)
			}
		})
		st1 := incr.Stats()
		dirtyPerRound := float64(st1.SamplesReprocessed-st0.SamplesReprocessed) / float64(rounds)
		mode := BenchCoreMode{NsPerRound: ns, BytesPerRound: by,
			SamplesPerSec: dirtyPerRound / ns * 1e9, DirtySamplesPerRound: dirtyPerRound,
			Workers: effectiveWorkers(workers, cfg.Theta), NumCPU: rep.NumCPU}
		return mode, incr.ShardProfiles(), incr.Stats().SamplesStolen, nil
	}

	m, profs, stolen, err := measureIncremental(cfg.Workers)
	if err != nil {
		return nil, err
	}
	rep.Incremental = m
	rep.SamplesStolen = stolen
	for s, pr := range profs {
		rep.ContentionProfile = append(rep.ContentionProfile, BenchCoreShard{
			Shard: s, Lo: pr.Lo, Hi: pr.Hi,
			Processed: pr.Processed, Stolen: pr.Stolen, Ns: pr.Ns,
		})
	}

	var oneWorkerNs float64
	for i := range rep.IncrementalScaling {
		pt := &rep.IncrementalScaling[i]
		m := rep.Incremental
		if pt.Workers != rep.Incremental.Workers {
			// The sweep point matching the headline configuration reuses
			// that measurement instead of paying another priming pass and
			// MinTime of timed rounds for identical numbers.
			var err error
			m, _, _, err = measureIncremental(pt.Workers)
			if err != nil {
				return nil, err
			}
		}
		pt.NsPerRound = m.NsPerRound
		if pt.Workers == 1 {
			oneWorkerNs = m.NsPerRound
		}
		if oneWorkerNs > 0 {
			pt.Speedup = oneWorkerNs / m.NsPerRound
			pt.Efficiency = pt.Speedup / float64(pt.Workers)
		}
		if pt.Workers == 4 {
			rep.SpeedupIncremental4WVs1W = pt.Speedup
		}
	}

	rep.SpeedupIncrementalVsFresh = rep.Fresh.NsPerRound / rep.Incremental.NsPerRound

	if opt.ScalingFloor > 0 {
		if rep.NumCPU >= 4 && rep.GoMaxProcs >= 4 {
			if rep.SpeedupIncremental4WVs1W < opt.ScalingFloor {
				return nil, fmt.Errorf("benchcore: 4-worker speedup %.2fx is below the %.2fx floor (gomaxprocs=%d, num_cpu=%d)",
					rep.SpeedupIncremental4WVs1W, opt.ScalingFloor, rep.GoMaxProcs, rep.NumCPU)
			}
		} else if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "scaling floor check skipped: gomaxprocs=%d num_cpu=%d (need 4 of each)\n",
				rep.GoMaxProcs, rep.NumCPU)
		}
	}

	// Mutate-then-solve: per batch size, perturb that many random edges of
	// the serving instance through the dynamic overlay, then answer one
	// estimation round via warm-pool repair versus full rebuild. Priming the
	// warm estimator happens outside the timed section — a session carries
	// it from before the mutation.
	edges := unified.Edges()
	candidates := make([]int, 0, len(edges))
	for i, e := range edges {
		if e.From != super { // a super-seed edge would dirty every sample
			candidates = append(candidates, i)
		}
	}
	for _, frac := range []float64{0.001, 0.01} {
		k := int(frac * float64(g.M()))
		if k < 1 {
			k = 1
		}
		if k > len(candidates) {
			k = len(candidates)
		}
		// Deterministic distinct edge choice per fraction.
		sel := rng.New(cfg.Seed ^ uint64(k))
		perm := sel.Perm(len(candidates))
		muts := make([]dynamic.Mutation, k)
		for j := 0; j < k; j++ {
			e := edges[candidates[perm[j]]]
			muts[j] = dynamic.Mutation{Op: dynamic.OpSetProb, U: e.From, V: e.To, P: sel.Float64()}
		}
		dyn := dynamic.New(unified, dynamic.Config{})
		info, err := dyn.Commit(muts)
		if err != nil {
			return nil, fmt.Errorf("benchcore: mutate batch k=%d: %v", k, err)
		}
		snap, _ := dyn.Snapshot()
		newSampler := cascade.NewIC(snap)
		poolBase := func() *rng.Source { return rng.New(cfg.Seed).Split(^uint64(0)) }

		pt := BenchCoreMutatePoint{
			BatchEdges: k, FracOfEdges: float64(k) / float64(g.M()),
			Workers: mainWorkers, NumCPU: rep.NumCPU,
		}

		var repairVals, rebuildVals []float64
		var elapsed time.Duration
		var iters int64
		for elapsed < opt.MinTime {
			warm := core.NewIncrementalPooledEstimatorFromPool(pool, cfg.Workers)
			warm.DecreaseESView(nil) // priming, untimed: the session did this pre-mutation
			t0 := time.Now()
			repaired, dirtyIDs := pool.Repair(newSampler, info.ChangedSources, cfg.Workers)
			warm.RepairPool(repaired, dirtyIDs)
			repairVals = append(repairVals[:0], warm.DecreaseESView(nil)...)
			elapsed += time.Since(t0)
			iters++
			pt.DirtySamples = len(dirtyIDs)
		}
		pt.RepairNs = float64(elapsed.Nanoseconds()) / float64(iters)

		elapsed, iters = 0, 0
		for elapsed < opt.MinTime {
			t0 := time.Now()
			rebuilt := core.NewSamplePool(newSampler, super, cfg.Theta, cfg.Workers, poolBase())
			cold := core.NewIncrementalPooledEstimatorFromPool(rebuilt, cfg.Workers)
			rebuildVals = append(rebuildVals[:0], cold.DecreaseESView(nil)...)
			elapsed += time.Since(t0)
			iters++
		}
		pt.RebuildNs = float64(elapsed.Nanoseconds()) / float64(iters)

		pt.Speedup = pt.RebuildNs / pt.RepairNs
		pt.RepairBitIdentical = slices.Equal(repairVals, rebuildVals)
		rep.MutateRepair = append(rep.MutateRepair, pt)
	}

	persist, err := measureBenchPersist(g, cfg.Seed, opt.MinTime)
	if err != nil {
		return nil, fmt.Errorf("benchcore: persist measurements: %v", err)
	}
	rep.Persist = persist

	instr, err := measureInstrumentation(g, seeds, cfg, opt)
	if err != nil {
		return nil, fmt.Errorf("benchcore: instrumentation measurements: %v", err)
	}
	rep.Instrumentation = instr

	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "graph: PA n=%d epv=%g (%d edges), %d seeds; θ=%d b=%d workers=%d (effective %d, gomaxprocs %d, num_cpu %d)\n",
			opt.N, opt.EdgesPerVertex, g.M(), cfg.NumSeeds, cfg.Theta, opt.Budget, cfg.Workers, mainWorkers, rep.GoMaxProcs, rep.NumCPU)
		fmt.Fprintf(cfg.Out, "pool: %d samples, %.1f MB, built in %.0f ms\n",
			cfg.Theta, float64(rep.PoolBytes)/(1<<20), rep.PoolBuildMS)
		fmt.Fprintf(cfg.Out, "%-12s %8s %14s %16s %14s %18s\n", "mode", "workers", "ns/round", "samples/sec", "bytes/round", "dirty samples/rnd")
		for _, row := range []struct {
			name string
			m    BenchCoreMode
		}{{"fresh", rep.Fresh}, {"incremental", rep.Incremental}} {
			fmt.Fprintf(cfg.Out, "%-12s %8d %14.0f %16.0f %14.0f %18.1f\n",
				row.name, row.m.Workers, row.m.NsPerRound, row.m.SamplesPerSec, row.m.BytesPerRound, row.m.DirtySamplesPerRound)
		}
		fmt.Fprintf(cfg.Out, "speedup: incremental/fresh %.2fx\n", rep.SpeedupIncrementalVsFresh)
		fmt.Fprintf(cfg.Out, "incremental worker sweep (blockers identical across counts: %v):\n",
			rep.BlockersIdenticalAcrossWorkers)
		for _, pt := range rep.IncrementalScaling {
			fmt.Fprintf(cfg.Out, "  workers=%-3d %12.0f ns/round  speedup %.2fx  efficiency %.2f\n",
				pt.Workers, pt.NsPerRound, pt.Speedup, pt.Efficiency)
		}
		fmt.Fprintf(cfg.Out, "contention profile (headline incremental, %d stolen total):\n", rep.SamplesStolen)
		for _, sh := range rep.ContentionProfile {
			fmt.Fprintf(cfg.Out, "  shard %-3d [%6d,%6d) processed %-10d stolen %-8d %12d ns\n",
				sh.Shard, sh.Lo, sh.Hi, sh.Processed, sh.Stolen, sh.Ns)
		}
		fmt.Fprintf(cfg.Out, "mutate-then-solve (repair vs rebuild, θ=%d):\n", cfg.Theta)
		for _, pt := range rep.MutateRepair {
			fmt.Fprintf(cfg.Out, "  batch=%-6d (%.2f%% of edges) dirty=%-5d repair %11.0f ns, rebuild %11.0f ns, speedup %.2fx, bit-identical %v\n",
				pt.BatchEdges, 100*pt.FracOfEdges, pt.DirtySamples, pt.RepairNs, pt.RebuildNs, pt.Speedup, pt.RepairBitIdentical)
		}
		fmt.Fprintf(cfg.Out, "persist: WAL write-through per %d-mutation batch (bare commit %0.f ns):\n",
			rep.Persist.BatchMutations, rep.Persist.CommitNs)
		for _, p := range rep.Persist.Policies {
			fmt.Fprintf(cfg.Out, "  fsync=%-9s %11.0f ns/batch (WAL share %8.0f ns, overhead %5.1f%%)\n",
				p.Policy, p.CommitAppendNs, p.AppendNs, p.OverheadPct)
		}
		fmt.Fprintf(cfg.Out, "persist: recovery time vs WAL length:\n")
		for _, p := range rep.Persist.Recovery {
			fmt.Fprintf(cfg.Out, "  wal=%-5d batches (%8d bytes) recover %8.1f ms (replayed %d)\n",
				p.WALBatches, p.WALBytes, p.RecoverMS, p.ReplayedBatches)
		}
		fmt.Fprintf(cfg.Out, "instrumentation (OnRound hook, workers=%d): off %0.f ns/round, on %0.f ns/round, overhead %+.2f%% (rounds observed %d, blockers identical %v)\n",
			rep.Instrumentation.Workers, rep.Instrumentation.UninstrumentedNsPerRound,
			rep.Instrumentation.InstrumentedNsPerRound, rep.Instrumentation.OverheadPct,
			rep.Instrumentation.RoundsObserved, rep.Instrumentation.BlockersIdentical)
	}

	if opt.JSONPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(opt.JSONPath, buf, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// persistBatchMutations is the mutate-batch size the persist measurements
// use, and persistMaxBatches caps how many batches a timed loop writes so
// a fast disk cannot balloon the scratch WAL past tens of megabytes.
const (
	persistBatchMutations = 100
	persistMaxBatches     = 16384
)

// measureBenchPersist times the durable store against the serving graph:
// per fsync policy, the cost of one durable mutate (in-memory commit + WAL
// append) relative to the bare commit; then recovery time as the WAL tail
// grows. Everything runs in throwaway temp directories.
func measureBenchPersist(g *graph.Graph, seed uint64, minTime time.Duration) (*BenchCorePersist, error) {
	edges := g.Edges()
	if len(edges) == 0 {
		return nil, fmt.Errorf("serving graph has no edges")
	}
	// A fixed cycle of deterministic set-prob batches, reused by every
	// measurement so baseline and policies replay identical work.
	const cycle = 256
	batches := make([][]dynamic.Mutation, cycle)
	sel := rng.New(seed ^ 0x9e15)
	for i := range batches {
		muts := make([]dynamic.Mutation, persistBatchMutations)
		for j := range muts {
			e := edges[sel.Intn(len(edges))]
			muts[j] = dynamic.Mutation{Op: dynamic.OpSetProb, U: e.From, V: e.To, P: sel.Float64()}
		}
		batches[i] = muts
	}

	out := &BenchCorePersist{BatchMutations: persistBatchMutations}

	// Baseline: bare in-memory commit latency, the denominator the WAL
	// overhead is expressed against. Min of interleavable rounds would
	// change nothing here (the loop is self-contained), so one pass.
	{
		d := dynamic.New(g, dynamic.Config{})
		var iters int64
		start := time.Now()
		for time.Since(start) < minTime && iters < persistMaxBatches {
			if _, err := d.Commit(batches[iters%cycle]); err != nil {
				return nil, err
			}
			iters++
		}
		out.CommitNs = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}

	// Per policy, the WAL append is measured in isolation — encode, frame,
	// write, and the policy's fsync behavior — rather than as the
	// difference of two commit-dominated totals, whose machine noise (the
	// commit is ~30x the append) would swamp the quantity under test.
	// Epochs just count up; the WAL does not care that no graph is
	// attached.
	for _, policy := range []store.FsyncPolicy{store.FsyncNone, store.FsyncInterval, store.FsyncAlways} {
		dir, err := os.MkdirTemp("", "imind-bench-persist-*")
		if err != nil {
			return nil, err
		}
		measure := func() (float64, error) {
			st, err := store.Open(dir, store.Config{Fsync: policy})
			if err != nil {
				return 0, err
			}
			defer st.Close()
			gs, err := st.Create("bench", g, 0, "benchcore", "TR")
			if err != nil {
				return 0, err
			}
			epoch := uint64(0)
			var iters int64
			var enc []byte
			start := time.Now()
			for time.Since(start) < minTime && iters < persistMaxBatches {
				epoch++
				// Encode inside the timed loop: it is part of what a
				// durable mutate pays per batch.
				enc, err = dynamic.EncodeBatch(enc[:0], batches[iters%cycle])
				if err != nil {
					return 0, err
				}
				if err := gs.Append(context.Background(), epoch, enc); err != nil {
					return 0, err
				}
				iters++
			}
			return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
		}
		ns, err := measure()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		out.Policies = append(out.Policies, BenchCorePersistPolicy{
			Policy:         string(policy),
			CommitAppendNs: out.CommitNs + ns,
			AppendNs:       ns,
			OverheadPct:    100 * ns / out.CommitNs,
		})
	}

	// Recovery time vs WAL length: write k batches under fsync none (the
	// content, not the write path, is under test), then time Open+Recover.
	for _, k := range []int{0, 64, 512} {
		dir, err := os.MkdirTemp("", "imind-bench-recover-*")
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir, store.Config{Fsync: store.FsyncNone})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		gs, err := st.Create("bench", g, 0, "benchcore", "TR")
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		d := dynamic.New(g, dynamic.Config{})
		for i := 0; i < k; i++ {
			info, err := d.Commit(batches[i%cycle])
			if err == nil {
				var enc []byte
				if enc, err = dynamic.EncodeBatch(nil, batches[i%cycle]); err == nil {
					err = gs.Append(context.Background(), info.Epoch, enc)
				}
			}
			if err != nil {
				st.Close()
				os.RemoveAll(dir)
				return nil, err
			}
		}
		walBytes := gs.WALSize()
		if err := st.Close(); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}

		pt := BenchCoreRecoveryPoint{WALBatches: k, WALMutations: k * persistBatchMutations, WALBytes: walBytes}
		var elapsed time.Duration
		var iters int64
		for elapsed < minTime/2 && iters < 16 {
			t0 := time.Now()
			st2, err := store.Open(dir, store.Config{Fsync: store.FsyncNone})
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			recs, err := st2.Recover()
			if err != nil {
				st2.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			if len(recs) != 1 {
				st2.Close()
				os.RemoveAll(dir)
				return nil, fmt.Errorf("recovery sanity: %d graphs, want 1", len(recs))
			}
			if recs[0].Epoch() != uint64(k) {
				st2.Close()
				os.RemoveAll(dir)
				return nil, fmt.Errorf("recovery sanity: epoch %d, want %d", recs[0].Epoch(), k)
			}
			pt.ReplayedBatches = recs[0].ReplayedBatches
			elapsed += time.Since(t0)
			iters++
			if err := st2.Close(); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		pt.RecoverMS = float64(elapsed) / float64(time.Millisecond) / float64(iters)
		os.RemoveAll(dir)
		out.Recovery = append(out.Recovery, pt)
	}
	return out, nil
}

// measureInstrumentation times the same warm-pool AdvancedGreedy solve with
// the OnRound hook absent and present. The hooked variant performs exactly
// the per-round work internal/service's observer does — one latency
// histogram observation, a labeled-counter resolve + increment, two counter
// adds, and the flight recorder's SolveCost accumulation — so the measured
// delta is the real serving-path tax of turning metrics plus cost
// accounting on, and the committed ≤2% bar covers both.
func measureInstrumentation(g *graph.Graph, seeds []graph.V, cfg Config, opt BenchCoreOptions) (*BenchCoreInstrumentation, error) {
	reg := obs.NewRegistry()
	roundSeconds := reg.Histogram("bench_solve_round_seconds", "per-round latency", obs.DefTimeBuckets)
	rounds := reg.CounterVec("bench_solve_rounds_total", "rounds by phase", "phase")
	dirty := reg.Counter("bench_solve_dirty_samples_total", "dirty samples")
	stolen := reg.Counter("bench_solve_stolen_samples_total", "stolen samples")

	var observed int64
	var cost diag.SolveCost
	hook := func(ri core.RoundInfo) {
		observed++
		cost.AddRound(ri.Duration, ri.SamplesDirty, ri.SamplesStolen)
		roundSeconds.Observe(ri.Duration.Seconds())
		rounds.With(ri.Phase).Inc()
		dirty.Add(float64(ri.SamplesDirty))
		stolen.Add(float64(ri.SamplesStolen))
	}

	solveOpt := core.Options{
		Theta: cfg.Theta, Seed: cfg.Seed, Workers: cfg.Workers, ReuseSamples: true,
	}
	run := func(onRound func(core.RoundInfo), budget time.Duration) (nsPerRound float64, blockers []graph.V, err error) {
		o := solveOpt
		o.OnRound = onRound
		var elapsed time.Duration
		var timedRounds int64
		for elapsed < budget {
			t0 := time.Now()
			res, err := core.Solve(g, seeds, opt.Budget, core.AdvancedGreedy, o)
			if err != nil {
				return 0, nil, err
			}
			elapsed += time.Since(t0)
			timedRounds += int64(opt.Budget)
			if blockers == nil {
				blockers = res.Blockers
			}
		}
		return float64(elapsed.Nanoseconds()) / float64(timedRounds), blockers, nil
	}

	// The true hook cost is a handful of field updates per round, far below
	// run-to-run scheduler noise. Alternating off/on segments and keeping
	// each arm's minimum ns/round (the classic low-noise estimator) makes
	// the reported overhead reflect the hook, not which arm drew the
	// noisier scheduling — the ≤2% acceptance bar gates on this number.
	const pairs = 3
	var offNs, onNs float64
	var offBlockers, onBlockers []graph.V
	segment := opt.MinTime / (2 * pairs)
	for i := 0; i < pairs; i++ {
		ns, blockers, err := run(nil, segment)
		if err != nil {
			return nil, err
		}
		if offNs == 0 || ns < offNs {
			offNs = ns
		}
		offBlockers = blockers
		if ns, blockers, err = run(hook, segment); err != nil {
			return nil, err
		}
		if onNs == 0 || ns < onNs {
			onNs = ns
		}
		onBlockers = blockers
	}
	return &BenchCoreInstrumentation{
		UninstrumentedNsPerRound: offNs,
		InstrumentedNsPerRound:   onNs,
		OverheadPct:              100 * (onNs - offNs) / offNs,
		RoundsObserved:           observed,
		BlockersIdentical:        slices.Equal(offBlockers, onBlockers),
		Workers:                  effectiveWorkers(cfg.Workers, cfg.Theta),
	}, nil
}
