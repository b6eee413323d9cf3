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
//
// The report is one provenance block plus one flat list of named metrics.
// Each metric carries its class, and the class alone decides how benchdiff
// gates it, so a new metric needs no gate code.
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

// The benchmark instance: the serving benchmark's preferential-attachment
// graph (~100k edges) and the greedy round count b of every trajectory.
const (
	benchN              = 20_000
	benchEdgesPerVertex = 5
	benchBudget         = 10
)

// BenchCoreOptions parameterizes the estimator benchmark.
type BenchCoreOptions struct {
	// MinTime is the minimum measuring time of each timed loop (default
	// 2s).
	MinTime time.Duration
	// JSONPath, when non-empty, receives the report as indented JSON.
	JSONPath string
	// Force overwrites an existing JSONPath whose provenance differs from
	// this run's. Without it the run fails instead of silently replacing
	// numbers measured under a different configuration or machine.
	Force bool
	// ScalingFloor, when > 0, fails the run if the 4-worker sweep point's
	// speedup over 1 worker falls below it — but only on machines with at
	// least 4 CPUs, where the comparison is meaningful. CI passes 0.9 so a
	// 4-worker regression of more than 10% cannot land silently; a real
	// multi-core runner is expected to clear 2x.
	ScalingFloor float64
}

// Metric classes: a metric's class decides how benchdiff gates it.
const (
	// ClassTiming is an absolute cost, lower is better. It gates only
	// when the baseline's gomaxprocs, num_cpu and workers match.
	ClassTiming = "timing"
	// ClassRatio is a dimensionless speedup, higher is better. Hardware
	// mostly cancels out of a ratio, so it gates on every run.
	ClassRatio = "ratio"
	// ClassBar is an acceptance bar: the value must not exceed Limit.
	ClassBar = "bar"
	// ClassBool is a contract that must hold: Value 1 is true, 0 false.
	ClassBool = "bool"
	// ClassInfo is recorded for readers and never gated.
	ClassInfo = "info"
)

// BenchMetric is one measured number of a benchcore report.
type BenchMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Class string  `json:"class"`
	// Limit is a bar metric's upper limit; other classes leave it 0.
	Limit float64 `json:"limit,omitempty"`
}

// BenchProvenance records what a report measured (graph, θ, budget) and
// where (requested workers, scheduler parallelism, cores, Go version).
type BenchProvenance struct {
	Graph struct {
		Generator      string  `json:"generator"`
		N              int     `json:"n"`
		EdgesPerVertex float64 `json:"edges_per_vertex"`
		Edges          int     `json:"edges"`
		NumSeeds       int     `json:"num_seeds"`
	} `json:"graph"`
	Theta  int `json:"theta"`
	Budget int `json:"budget"`
	// Workers is the requested configuration (0 = all cores); the metric
	// effective_workers is what it resolved to.
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

// String formats the provenance on one line, for benchcore's table header
// and the overwrite-guard and hardware-mismatch messages.
func (p BenchProvenance) String() string {
	return fmt.Sprintf("graph %s n=%d epv=%g edges=%d seeds=%d, theta=%d budget=%d, workers=%d gomaxprocs=%d num_cpu=%d, %s",
		p.Graph.Generator, p.Graph.N, p.Graph.EdgesPerVertex, p.Graph.Edges, p.Graph.NumSeeds,
		p.Theta, p.Budget, p.Workers, p.GoMaxProcs, p.NumCPU, p.GoVersion)
}

// BenchCoreReport is the BENCH_core.json schema.
type BenchCoreReport struct {
	Provenance BenchProvenance `json:"provenance"`
	Metrics    []BenchMetric   `json:"metrics"`
}

func (r *BenchCoreReport) add(name string, value float64, unit, class string) {
	r.Metrics = append(r.Metrics, BenchMetric{Name: name, Value: value, Unit: unit, Class: class})
}

func (r *BenchCoreReport) addBool(name string, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	r.add(name, v, "bool", ClassBool)
}

// sweepWorkers returns the deduplicated ascending worker counts to sweep:
// 1, 2, 4, and GOMAXPROCS.
func sweepWorkers() []int {
	ws := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(ws)
	return slices.Compact(ws)
}

// checkOverwrite enforces the provenance guard on an existing JSON
// baseline. A file that does not load as a flat report (an older schema,
// manual edits) is treated as a mismatch: only -force may replace it.
func checkOverwrite(path string, cur BenchProvenance, force bool) error {
	if force {
		return nil
	}
	old, err := LoadBenchCoreReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("benchcore: %v; pass -force to replace it", err)
	}
	if old.Provenance != cur {
		return fmt.Errorf("benchcore: %s was measured under %v, this run is %v; pass -force to overwrite",
			path, old.Provenance, cur)
	}
	return nil
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

// timeRuns calls run until minTime has passed and returns the mean
// nanoseconds and heap bytes allocated per call, and the call count.
func timeRuns(minTime time.Duration, run func()) (nsPerRun, bytesPerRun float64, runs int64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for time.Since(start) < minTime {
		run()
		runs++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(runs),
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(runs), runs
}

// RunBenchCore builds the benchmark instance, measures the two modes, the
// incremental worker sweep, mutation repair, the durable store and the
// instrumentation hook, and writes the report table to cfg.Out (and JSON
// to opt.JSONPath, if set).
func RunBenchCore(cfg Config, opt BenchCoreOptions) (*BenchCoreReport, error) {
	cfg = cfg.WithDefaults()
	if opt.MinTime <= 0 {
		opt.MinTime = 2 * time.Second
	}

	g := datasets.PreferentialAttachment(benchN, benchEdgesPerVertex, true, rng.New(1))
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

	rep := &BenchCoreReport{}
	prov := &rep.Provenance
	prov.Graph.Generator = "preferential-attachment"
	prov.Graph.N = benchN
	prov.Graph.EdgesPerVertex = benchEdgesPerVertex
	prov.Graph.Edges = g.M()
	prov.Graph.NumSeeds = cfg.NumSeeds
	prov.Theta, prov.Budget, prov.Workers = cfg.Theta, benchBudget, cfg.Workers
	prov.GoMaxProcs, prov.NumCPU, prov.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()

	// Fail the provenance check before spending minutes measuring.
	if opt.JSONPath != "" {
		if err := checkOverwrite(opt.JSONPath, rep.Provenance, opt.Force); err != nil {
			return nil, err
		}
	}

	// Every measurement but the sweep points runs at this worker count.
	mainWorkers := effectiveWorkers(cfg.Workers, cfg.Theta)
	rep.add("effective_workers", float64(mainWorkers), "workers", ClassInfo)

	// One build takes about a millisecond, too short to time alone, so it
	// is timed like every other cost: repeated for MinTime and averaged.
	var pool *core.SamplePool
	buildNs, _, _ := timeRuns(opt.MinTime, func() {
		pool = core.NewSamplePool(sampler, super, cfg.Theta, cfg.Workers, rng.New(cfg.Seed).Split(^uint64(0)))
	})
	rep.add("pool_build_ms", buildNs/1e6, "ms", ClassTiming)
	rep.add("pool_bytes", float64(pool.MemoryBytes()), "bytes", ClassInfo)

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
	traj := make([]graph.V, 0, benchBudget)
	for round := 0; round < benchBudget; round++ {
		recorder.DecreaseES(delta, blocked)
		best := pickBest(delta)
		if best == -1 {
			return nil, fmt.Errorf("benchcore: ran out of candidates at round %d", round)
		}
		blocked[best] = true
		traj = append(traj, best)
	}
	clear(blocked)

	// Fresh: θ new samples every round.
	fresh := core.NewEstimator(sampler, cfg.Workers)
	base := rng.New(cfg.Seed)
	round := uint64(0)
	freshNs, by, _ := timeRuns(opt.MinTime, func() {
		for _, v := range traj {
			fresh.DecreaseES(delta, super, blocked, cfg.Theta, base.Split(round))
			round++
			blocked[v] = true
		}
		clear(blocked)
	})
	freshNs /= benchBudget
	rep.add("fresh.ns_per_round", freshNs, "ns", ClassTiming)
	rep.add("fresh.samples_per_sec", float64(cfg.Theta)/freshNs*1e9, "samples/s", ClassInfo)
	rep.add("fresh.bytes_per_round", by/benchBudget, "bytes", ClassInfo)
	rep.add("fresh.dirty_samples_per_round", float64(cfg.Theta), "samples", ClassInfo)

	// Incremental: persistent estimator per sweep point, flips reported,
	// priming included in the first run and amortized like a warm session
	// would. The measurement goes through the zero-copy view API — the
	// path the greedy loops run — so it excludes the O(n) dst fill that
	// only the compatibility wrappers pay. Before timing a point, one
	// greedy selection re-derives the trajectory at that worker count and
	// is checked against the recorded trajectory — the
	// bit-identical-blockers guarantee, exercised at serving size.
	blockersIdentical := true
	measureIncremental := func(workers int) (incr *core.IncrementalPooledEstimator, nsPerRound, bytesPerRound, dirtyPerRound float64, err error) {
		incr = core.NewIncrementalPooledEstimatorFromPool(pool, workers)
		reTraj := make([]graph.V, 0, benchBudget)
		flips := make([]graph.V, 0, benchBudget)
		for range traj {
			vals := incr.DecreaseESFlipsView(blocked, flips)
			flips = flips[:0]
			best := pickBest(vals)
			if best == -1 {
				return nil, 0, 0, 0, fmt.Errorf("benchcore: sweep at workers=%d ran out of candidates", workers)
			}
			blocked[best] = true
			flips = append(flips, best)
			reTraj = append(reTraj, best)
		}
		if !slices.Equal(reTraj, traj) {
			blockersIdentical = false
		}
		for _, v := range traj {
			blocked[v] = false
			flips = append(flips, v)
		}
		st0 := incr.Stats()
		ns, by, runs := timeRuns(opt.MinTime, func() {
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
		rounds := float64(runs * benchBudget)
		dirty := float64(incr.Stats().SamplesReprocessed-st0.SamplesReprocessed) / rounds
		return incr, ns / benchBudget, by / benchBudget, dirty, nil
	}

	incr, incrNs, by, dirty, err := measureIncremental(cfg.Workers)
	if err != nil {
		return nil, err
	}
	rep.add("incremental.ns_per_round", incrNs, "ns", ClassTiming)
	rep.add("incremental.samples_per_sec", dirty/incrNs*1e9, "samples/s", ClassInfo)
	rep.add("incremental.bytes_per_round", by, "bytes", ClassInfo)
	rep.add("incremental.dirty_samples_per_round", dirty, "samples", ClassInfo)
	// The contention profile: each worker shard's share of the headline
	// measurement. Balanced processed counts with zero stolen mean the
	// static θ-range partition alone kept the workers busy.
	for s, pr := range incr.ShardProfiles() {
		name := fmt.Sprintf("contention_profile[shard_%d].", s)
		rep.add(name+"lo", float64(pr.Lo), "index", ClassInfo)
		rep.add(name+"hi", float64(pr.Hi), "index", ClassInfo)
		rep.add(name+"processed", float64(pr.Processed), "samples", ClassInfo)
		rep.add(name+"stolen", float64(pr.Stolen), "samples", ClassInfo)
		rep.add(name+"ns", float64(pr.Ns), "ns", ClassInfo)
	}
	rep.add("samples_stolen", float64(incr.Stats().SamplesStolen), "samples", ClassInfo)

	var oneWorkerNs, speedup4W float64
	for _, w := range sweepWorkers() {
		ns := incrNs
		if w != mainWorkers {
			// The sweep point matching the headline configuration reuses
			// that measurement instead of paying another priming pass and
			// MinTime of timed rounds for identical numbers.
			if _, ns, _, _, err = measureIncremental(w); err != nil {
				return nil, err
			}
		}
		if w == 1 {
			oneWorkerNs = ns
		}
		speedup := oneWorkerNs / ns
		if w == 4 {
			speedup4W = speedup
		}
		name := fmt.Sprintf("incremental_scaling[%d_workers].", w)
		rep.add(name+"ns_per_round", ns, "ns", ClassInfo)
		rep.add(name+"speedup_vs_workers_1", speedup, "x", ClassInfo)
		rep.add(name+"scaling_efficiency", speedup/float64(w), "fraction", ClassInfo)
	}
	rep.addBool("blockers_identical_across_workers", blockersIdentical)
	rep.add("speedup_incremental_vs_fresh", freshNs/incrNs, "x", ClassRatio)
	rep.add("speedup_incremental_4w_vs_1w", speedup4W, "x", ClassRatio)

	if opt.ScalingFloor > 0 {
		if prov.NumCPU >= 4 && prov.GoMaxProcs >= 4 {
			if speedup4W < opt.ScalingFloor {
				return nil, fmt.Errorf("benchcore: 4-worker speedup %.2fx is below the %.2fx floor (gomaxprocs=%d, num_cpu=%d)",
					speedup4W, opt.ScalingFloor, prov.GoMaxProcs, prov.NumCPU)
			}
		} else {
			fmt.Fprintf(cfg.Out, "scaling floor check skipped: gomaxprocs=%d num_cpu=%d (need 4 of each)\n",
				prov.GoMaxProcs, prov.NumCPU)
		}
	}

	// Mutate-then-solve: per batch size, perturb that many random edges of
	// the serving instance through the dynamic overlay, then answer one
	// estimation round via warm-pool repair (SamplePool.Repair +
	// RepairPool + a dirty-only round) versus full rebuild (fresh pool
	// draw + priming scan). The repair path is what a warm session pays per
	// mutation batch. Priming the warm estimator happens outside the timed
	// section — a session carries it from before the mutation.
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

		var repairVals, rebuildVals []float64
		var elapsed time.Duration
		var iters int64
		dirtySamples := 0
		for elapsed < opt.MinTime {
			warm := core.NewIncrementalPooledEstimatorFromPool(pool, cfg.Workers)
			warm.DecreaseESView(nil) // priming, untimed: the session did this pre-mutation
			t0 := time.Now()
			repaired, dirtyIDs := pool.Repair(newSampler, info.ChangedSources, cfg.Workers)
			warm.RepairPool(repaired, dirtyIDs)
			repairVals = append(repairVals[:0], warm.DecreaseESView(nil)...)
			elapsed += time.Since(t0)
			iters++
			dirtySamples = len(dirtyIDs)
		}
		repairNs := float64(elapsed.Nanoseconds()) / float64(iters)

		rebuildNs, _, _ := timeRuns(opt.MinTime, func() {
			rebuilt := core.NewSamplePool(newSampler, super, cfg.Theta, cfg.Workers, rng.New(cfg.Seed).Split(^uint64(0)))
			cold := core.NewIncrementalPooledEstimatorFromPool(rebuilt, cfg.Workers)
			rebuildVals = append(rebuildVals[:0], cold.DecreaseESView(nil)...)
		})

		name := fmt.Sprintf("mutate_repair[%d_edges].", k)
		rep.add(name+"frac_of_edges", float64(k)/float64(g.M()), "fraction", ClassInfo)
		rep.add(name+"dirty_samples", float64(dirtySamples), "samples", ClassInfo)
		rep.add(name+"repair_ns", repairNs, "ns", ClassInfo)
		rep.add(name+"rebuild_ns", rebuildNs, "ns", ClassInfo)
		rep.add(name+"speedup_repair_vs_rebuild", rebuildNs/repairNs, "x", ClassInfo)
		// The repaired estimator's Δ vector must exactly equal the rebuilt
		// one's: the repair correctness contract at serving size.
		rep.addBool(name+"repair_bit_identical", slices.Equal(repairVals, rebuildVals))
	}

	if err := measureBenchPersist(rep, g, cfg.Seed, opt.MinTime); err != nil {
		return nil, fmt.Errorf("benchcore: persist measurements: %v", err)
	}
	if err := measureInstrumentation(rep, g, seeds, cfg, opt.MinTime); err != nil {
		return nil, fmt.Errorf("benchcore: instrumentation measurements: %v", err)
	}

	fmt.Fprintln(cfg.Out, rep.Provenance)
	for _, m := range rep.Metrics {
		fmt.Fprintf(cfg.Out, "  %-52s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Class)
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
func measureBenchPersist(rep *BenchCoreReport, g *graph.Graph, seed uint64, minTime time.Duration) error {
	edges := g.Edges()
	if len(edges) == 0 {
		return fmt.Errorf("serving graph has no edges")
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
	rep.add("persist.batch_mutations", persistBatchMutations, "mutations", ClassInfo)

	// Baseline: bare in-memory commit latency, the denominator the WAL
	// overhead is expressed against. Min of interleavable rounds would
	// change nothing here (the loop is self-contained), so one pass.
	var commitNs float64
	{
		d := dynamic.New(g, dynamic.Config{})
		var iters int64
		start := time.Now()
		for time.Since(start) < minTime && iters < persistMaxBatches {
			if _, err := d.Commit(batches[iters%cycle]); err != nil {
				return err
			}
			iters++
		}
		commitNs = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	rep.add("persist.commit_ns", commitNs, "ns", ClassInfo)

	// Per policy, the WAL append is measured in isolation — encode, frame,
	// write, and the policy's fsync behavior — rather than as the
	// difference of two commit-dominated totals, whose machine noise (the
	// commit is ~30x the append) would swamp the quantity under test.
	// Epochs just count up; the WAL does not care that no graph is
	// attached.
	for _, policy := range []store.FsyncPolicy{store.FsyncNone, store.FsyncInterval, store.FsyncAlways} {
		dir, err := os.MkdirTemp("", "imind-bench-persist-*")
		if err != nil {
			return err
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
			return err
		}
		// overhead_pct is the WAL's share as a percentage of the bare
		// commit: the "WAL append overhead per mutate" headline number.
		name := fmt.Sprintf("persist.wal_append[%s].", policy)
		rep.add(name+"commit_append_ns", commitNs+ns, "ns", ClassInfo)
		rep.add(name+"append_ns", ns, "ns", ClassInfo)
		rep.add(name+"overhead_pct", 100*ns/commitNs, "%", ClassInfo)
	}

	// Recovery time vs WAL length: write k batches under fsync none (the
	// content, not the write path, is under test), then time Open+Recover.
	for _, k := range []int{0, 64, 512} {
		dir, err := os.MkdirTemp("", "imind-bench-recover-*")
		if err != nil {
			return err
		}
		st, err := store.Open(dir, store.Config{Fsync: store.FsyncNone})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		gs, err := st.Create("bench", g, 0, "benchcore", "TR")
		if err != nil {
			st.Close()
			os.RemoveAll(dir)
			return err
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
				return err
			}
		}
		walBytes := gs.WALSize()
		if err := st.Close(); err != nil {
			os.RemoveAll(dir)
			return err
		}

		replayed := 0
		var elapsed time.Duration
		var iters int64
		for elapsed < minTime/2 && iters < 16 {
			t0 := time.Now()
			st2, err := store.Open(dir, store.Config{Fsync: store.FsyncNone})
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			recs, err := st2.Recover()
			if err != nil {
				st2.Close()
				os.RemoveAll(dir)
				return err
			}
			if len(recs) != 1 {
				st2.Close()
				os.RemoveAll(dir)
				return fmt.Errorf("recovery sanity: %d graphs, want 1", len(recs))
			}
			if recs[0].Epoch() != uint64(k) {
				st2.Close()
				os.RemoveAll(dir)
				return fmt.Errorf("recovery sanity: epoch %d, want %d", recs[0].Epoch(), k)
			}
			replayed = recs[0].ReplayedBatches
			elapsed += time.Since(t0)
			iters++
			if err := st2.Close(); err != nil {
				os.RemoveAll(dir)
				return err
			}
		}
		os.RemoveAll(dir)
		name := fmt.Sprintf("persist.recovery[%d_batches].", k)
		rep.add(name+"wal_mutations", float64(k*persistBatchMutations), "mutations", ClassInfo)
		rep.add(name+"wal_bytes", float64(walBytes), "bytes", ClassInfo)
		rep.add(name+"recover_ms", float64(elapsed)/float64(time.Millisecond)/float64(iters), "ms", ClassInfo)
		rep.add(name+"replayed_batches", float64(replayed), "batches", ClassInfo)
	}
	return nil
}

// instrumentationOverheadBar is the acceptance bar, in percent, on the
// OnRound hook's per-round cost.
const instrumentationOverheadBar = 2

// measureInstrumentation times the same warm-pool AdvancedGreedy solve with
// the OnRound hook absent and present. The hooked variant performs exactly
// the per-round work internal/service's observer does — one latency
// histogram observation, a labeled-counter resolve + increment, two counter
// adds, and the flight recorder's SolveCost accumulation — so the measured
// delta is the real serving-path tax of turning metrics plus cost
// accounting on, and the committed ≤2% bar covers both.
func measureInstrumentation(rep *BenchCoreReport, g *graph.Graph, seeds []graph.V, cfg Config, minTime time.Duration) error {
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
			res, err := core.Solve(g, seeds, benchBudget, core.AdvancedGreedy, o)
			if err != nil {
				return 0, nil, err
			}
			elapsed += time.Since(t0)
			timedRounds += benchBudget
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
	segment := minTime / (2 * pairs)
	for i := 0; i < pairs; i++ {
		ns, blockers, err := run(nil, segment)
		if err != nil {
			return err
		}
		if offNs == 0 || ns < offNs {
			offNs = ns
		}
		offBlockers = blockers
		if ns, blockers, err = run(hook, segment); err != nil {
			return err
		}
		if onNs == 0 || ns < onNs {
			onNs = ns
		}
		onBlockers = blockers
	}
	rep.add("instrumentation.uninstrumented_ns_per_round", offNs, "ns", ClassInfo)
	rep.add("instrumentation.instrumented_ns_per_round", onNs, "ns", ClassInfo)
	// Small negative overheads are measurement noise.
	rep.Metrics = append(rep.Metrics, BenchMetric{Name: "instrumentation.overhead_pct",
		Value: 100 * (onNs - offNs) / offNs, Unit: "%", Class: ClassBar, Limit: instrumentationOverheadBar})
	// rounds_observed is how many OnRound callbacks fired during the
	// timing (> 0, or the hook never ran).
	rep.add("instrumentation.rounds_observed", float64(observed), "rounds", ClassInfo)
	// Hooked and unhooked solves must select the same blockers: the
	// observer-purity contract at serving size.
	rep.addBool("instrumentation.blockers_identical", slices.Equal(offBlockers, onBlockers))
	return nil
}
