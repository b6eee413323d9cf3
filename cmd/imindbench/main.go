// Command imindbench is the repository's end-to-end benchmark of imind,
// the blocking daemon. It builds cmd/imind from the module it runs in,
// starts it as a child process with its default flags (plus -data and a
// durable -data-dir in a scratch directory), registers a generated serving
// graph from a file, and drives one workload over two keep-alive loopback
// connections. BENCHMARK.json at the repository root lists the workloads
// and metrics; layers.json beside this file maps each per-layer metric to
// the end-to-end metric it should move, and names the default and
// held-out workload seeds.
//
// Run it from the repository root. Every run drives the daemon for the
// timed phase, then replays the ops it served in process, calling the
// layers' public functions in the order the daemon's handlers do. The
// untraced run reports the end-to-end metrics:
//
//	go run ./cmd/imindbench --workload hot-solve --seed 1 --seconds 10 --trace 0
//
// The traced run records a span around every call into a layer during the
// replay, replays once more without spans to price the tracing, and
// reports per-layer metrics:
//
//	go run ./cmd/imindbench --workload mutate-mix --seed 1 --seconds 10 --trace 1
//
// Both build cmd/imind into .bench_build in the current directory and keep
// the run's scratch state there. cmd/imindbench/run.sh, which BENCHMARK.json
// invokes, also keeps the Go build cache and temporary files there, so a
// run writes nothing outside the checkout.
//
// Every run checks the daemon's answers: each solve's blockers against the
// replay's for the same op, a seeded sample of them against cold solves on
// the same snapshot, and each mutate's acknowledged epoch. It prints host
// provenance and a per-kind report as JSON lines and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/imin-dev/imin/internal/graph"
)

// callers is the number of closed-loop callers and loopback connections:
// the two CPUs of the host the benchmark was defined on.
const callers = 2

// config is one benchmark run. The smoke test shrinks the graph, the
// set-ups and the op count.
type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	vertices int
	setups   int // set-ups per run; setup_s is their median
	maxOps   int // 0: no limit besides duration
	workDir  string
}

func main() {
	cfg := config{vertices: 20000, setups: 3, workDir: ".bench_build"}
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graph, seed sets, mutations")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	cfg.duration = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := run(ctx, cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imindbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the last line of a run's output.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run, printing the provenance and report lines
// and then the result line to out.
func run(ctx context.Context, cfg config, out io.Writer) (benchResult, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return benchResult{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	prov := newProvenance()
	prov.Calib["before"] = calibrate()

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return benchResult{}, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return benchResult{}, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	bin := filepath.Join(cfg.workDir, "imind")
	if err := buildDaemon(bin); err != nil {
		return benchResult{}, err
	}

	g := generateGraph(cfg.vertices, cfg.seed)
	dataDir := filepath.Join(dir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return benchResult{}, err
	}
	graphPath := filepath.Join(dataDir, "graph.bin")
	if err := g.WriteBinaryFile(graphPath); err != nil {
		return benchResult{}, err
	}

	ph, err := daemonPhase(ctx, cfg, bin, dir, g)
	if err != nil {
		return benchResult{}, err
	}
	prov.StealShare = ph.stealShare

	rep := report{Workload: cfg.workload, Seed: cfg.seed, SetupS: ph.setups, SetupWallS: ph.setupWall, DaemonStop: errString(ph.stopErr)}
	g0, err := graph.ReadBinaryFile(graphPath)
	if err != nil {
		return benchResult{}, err
	}
	// Every run replays the served ops in process, which every served
	// blocker set is checked against; only the traced run records spans.
	rr, err := runReplay(ctx, cfg, g, graphPath, filepath.Join(dir, "replay"), cfg.trace, len(ph.served))
	if err != nil {
		return benchResult{}, err
	}
	replayed := map[int]result{}
	for _, r := range rr.results {
		replayed[r.op.id] = r
	}
	for i, r := range ph.served {
		if rp, ok := replayed[r.op.id]; ok && rp.err != "" && r.err == "" {
			ph.served[i].err = "replay failed: " + rp.err
		}
	}
	chk := newChecker(g0, ph.served)
	checks, matched, err := chk.checkServed(ctx, ph.served, replayed, cfg.seed)
	if err != nil {
		return benchResult{}, err
	}
	res := benchResult{Metrics: map[string]metric{}}
	if cfg.trace {
		off, err := runReplay(ctx, cfg, g, graphPath, filepath.Join(dir, "replay-off"), false, len(ph.served))
		if err != nil {
			return benchResult{}, err
		}
		if rep.Accounting, err = layerMetrics(res.Metrics, rr, off, ph.served); err != nil {
			return benchResult{}, err
		}
	} else {
		if checks.SpreadAfter, checks.QualitySolve, err = chk.quality(ph.served, matched); err != nil {
			return benchResult{}, err
		}
		endToEndMetrics(res.Metrics, ph, checks.SpreadAfter)
	}
	rep.Checks = checks
	rep.fill(ph)

	res.Attempted = len(ph.served)
	for _, r := range ph.served {
		if r.err != "" {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0 && ph.stopErr == nil && res.Attempted > 0 &&
		(rep.Accounting == nil || rep.Accounting.Failures == 0)
	prov.Calib["after"] = calibrate()

	enc := json.NewEncoder(out)
	for _, line := range []any{map[string]any{"provenance": prov}, map[string]any{"report": rep}, res} {
		if err := enc.Encode(line); err != nil {
			return res, err
		}
	}
	return res, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// phase is what the daemon run measured.
type phase struct {
	// setups is the daemon's CPU time over each set-up, setupWall its wall
	// time, in seconds.
	setups     []float64
	setupWall  []float64
	served     []result
	wall       time.Duration
	cpu        time.Duration
	rssBytes   int64
	stealShare float64
	stopErr    error
}

// daemonPhase sets the daemon up cfg.setups times, keeping the last one,
// then runs the timed phase against it and stops it. A set-up is measured
// by the daemon's CPU time from its start to the first timed op: on a
// shared host the wall time of the same work follows the hypervisor's
// steal, while its CPU time does not.
func daemonPhase(ctx context.Context, cfg config, bin, dir string, g *graph.Graph) (*phase, error) {
	gen, err := newGenerator(cfg.workload, cfg.seed, g)
	if err != nil {
		return nil, err
	}
	warm, err := gen.warmup()
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	var d *daemon
	for i := 0; i < max(cfg.setups, 1); i++ {
		if d != nil {
			if err := d.stop(30 * time.Second); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
		}
		start := time.Now()
		if d, err = setupDaemon(ctx, cfg, bin, dir, i, warm); err != nil {
			return nil, err
		}
		ph.setupWall = append(ph.setupWall, time.Since(start).Seconds())
		cpu, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, errors.Join(err, d.stop(30*time.Second))
		}
		ph.setups = append(ph.setups, cpu.Seconds())
	}

	pid := d.cmd.Process.Pid
	cpu0, err0 := procCPU(pid)
	tot0, steal0, err1 := cpuTicks()
	ph.served, ph.wall, err = drive(ctx, gen, time.Now().Add(cfg.duration), cfg.maxOps, d.exec)
	cpu1, err2 := procCPU(pid)
	tot1, steal1, err3 := cpuTicks()
	rss, err4 := procPeakRSS(pid)
	ph.stopErr = d.stop(30 * time.Second)
	if err := errors.Join(err, err0, err1, err2, err3, err4); err != nil {
		return nil, err
	}
	ph.cpu, ph.rssBytes = cpu1-cpu0, rss
	if tot1 > tot0 {
		ph.stealShare = float64(steal1-steal0) / float64(tot1-tot0)
	}
	return ph, nil
}

// setupDaemon starts a daemon on a fresh state directory, waits for
// /readyz, registers the graph file and sends the warm-up solves.
func setupDaemon(ctx context.Context, cfg config, bin, dir string, i int, warm []op) (*daemon, error) {
	logPath := filepath.Join(dir, fmt.Sprintf("imind-%d.log", i))
	d, err := startDaemon(bin, filepath.Join(dir, "data"), filepath.Join(dir, fmt.Sprintf("state-%d", i)), logPath)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*daemon, error) {
		stopErr := d.stop(5 * time.Second)
		return nil, errors.Join(fmt.Errorf("%w\nimind log:\n%s", err, logTail(logPath)), stopErr)
	}
	if err := d.waitReady(ctx, 30*time.Second); err != nil {
		return fail(err)
	}
	if err := d.register(ctx, "graph.bin"); err != nil {
		return fail(err)
	}
	for _, o := range warm {
		var res result
		d.exec(ctx, o, &res)
		if res.err != "" {
			return fail(fmt.Errorf("warm-up solve: %s", res.err))
		}
	}
	return d, nil
}

// replayRun is one in-process replay of the served op sequence.
type replayRun struct {
	results  []result
	traces   []*opTrace
	cpu      time.Duration // this process's CPU time over the timed phase
	c        counters      // timed phase
	poolHits float64
	poolByte int64
	rebuilds int64
	sessHits float64
}

// runReplay registers the graph in process, sends the same warm-up solves
// and then the first nOps ops of the same sequence over the same callers.
func runReplay(ctx context.Context, cfg config, g *graph.Graph, graphPath, stateDir string, spans bool, nOps int) (*replayRun, error) {
	r, reg, err := openReplay(stateDir, graphPath, spans)
	if err != nil {
		return nil, err
	}
	gen, err := newGenerator(cfg.workload, cfg.seed, g)
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	warm, err := gen.warmup()
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	for _, o := range warm {
		var res result
		r.exec(ctx, o, &res)
		if res.err != "" {
			return nil, errors.Join(fmt.Errorf("replay warm-up solve: %s", res.err), r.close())
		}
	}
	c0, s0, h0 := r.counters(), r.sessionStats(), r.sessions.Stats()
	cpu0, cpuErr0 := procCPU(os.Getpid())
	out := &replayRun{}
	out.results, _, err = drive(ctx, gen, time.Now().Add(24*time.Hour), nOps, r.exec)
	cpu1, cpuErr1 := procCPU(os.Getpid())
	out.cpu = cpu1 - cpu0
	c1, s1, h1 := r.counters(), r.sessionStats(), r.sessions.Stats()
	err = errors.Join(err, cpuErr0, cpuErr1)
	if err := errors.Join(err, r.close()); err != nil {
		return nil, err
	}
	out.traces = append([]*opTrace{reg}, r.traces...)
	out.c = c1.minus(c0)
	reuses, builds := s1.PoolReuses-s0.PoolReuses, s1.PoolBuilds-s0.PoolBuilds
	out.poolHits = ratio(float64(reuses), float64(reuses+builds))
	out.poolByte = s1.PoolBytes
	out.rebuilds = s1.Rebuilds - s0.Rebuilds
	out.sessHits = ratio(float64(h1.Hits-h0.Hits), float64(h1.Hits-h0.Hits+h1.Misses-h0.Misses))
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// latencies returns the sorted latencies (ms) of the served ops of the
// given kinds; a failed op counts as infinitely slow.
func latencies(served []result, kinds ...opKind) []float64 {
	var xs []float64
	for _, r := range served {
		if !slices.Contains(kinds, r.op.kind) {
			continue
		}
		if r.err != "" {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(r.latency))
		}
	}
	sort.Float64s(xs)
	return xs
}

// completed counts the served ops that succeeded.
func (ph *phase) completed() int {
	n := 0
	for _, r := range ph.served {
		if r.err == "" {
			n++
		}
	}
	return n
}

// endToEndMetrics fills the untraced run's metrics. Wall-clock throughput
// and latency are not among them: on a shared host they follow the
// hypervisor's steal, so they are printed in the report line instead.
func endToEndMetrics(m map[string]metric, ph *phase, spreadAfter float64) {
	setups := slices.Clone(ph.setups)
	sort.Float64s(setups)
	m["setup_s"] = metric{quantile(setups, 0.5), "s"}
	m["cpu_ms_per_op"] = metric{ms(ph.cpu) / float64(max(ph.completed(), 1)), "ms"}
	m["rss_peak_mb"] = metric{float64(ph.rssBytes) / (1 << 20), "MB"}
	m["spread_after"] = metric{spreadAfter, "vertices"}
}

// accountingReport is the traced replay's span accounting.
type accountingReport struct {
	Ops           int     `json:"ops"`
	Failures      int     `json:"failures"`
	WorstOp       int     `json:"worst_covered_op"`
	WorstCoverage float64 `json:"worst_coverage"`
	// Breakdown is each op kind's mean self time per op by span name, in
	// ms; "bench.gap" is the time no layer span covers. The entries of a
	// kind add up to its mean traced op time.
	Breakdown map[string]map[string]float64 `json:"breakdown_ms"`
	MeanOpMS  map[string]float64            `json:"mean_op_ms"`
}

// layerMetrics fills the traced run's per-layer metrics from the replay
// with spans on, the replay with spans off, and the daemon's latencies.
func layerMetrics(m map[string]metric, on, off *replayRun, served []result) (*accountingReport, error) {
	acc := &accountingReport{WorstOp: -1, WorstCoverage: 1, Breakdown: map[string]map[string]float64{}, MeanOpMS: map[string]float64{}}
	self := map[opKind]map[string]time.Duration{kindSolve: {}, kindMutate: {}}
	setup := map[string]time.Duration{}
	count := map[opKind]int{}
	var opTimes []float64
	for _, t := range on.traces {
		st := t.selfTimes()
		if t.setup {
			for i, s := range t.spans {
				setup[s.name] += st[i]
			}
			continue
		}
		total, cov, ok := t.accounting()
		acc.Ops++
		if !ok {
			acc.Failures++
		}
		if cov < acc.WorstCoverage {
			acc.WorstCoverage, acc.WorstOp = cov, t.id
		}
		count[t.kind]++
		opTimes = append(opTimes, ms(total))
		for i, s := range t.spans {
			name := s.name
			if i == 0 {
				name = "bench.gap"
			}
			self[t.kind][name] += st[i]
			if s.name == "core.pool_build" {
				setup[s.name] += st[i]
			}
		}
	}
	if acc.Ops == 0 {
		return nil, fmt.Errorf("traced replay recorded no ops")
	}
	for _, k := range []opKind{kindSolve, kindMutate} {
		if count[k] == 0 {
			continue
		}
		b := map[string]float64{}
		var sum float64
		for name, d := range self[k] {
			b[name] = ms(d) / float64(count[k])
			sum += b[name]
		}
		acc.Breakdown[k.String()] = b
		acc.MeanOpMS[k.String()] = sum
	}
	per := func(k opKind, name string) float64 {
		if count[k] == 0 {
			return 0
		}
		return ms(self[k][name]) / float64(count[k])
	}
	solves, mutates := float64(max(count[kindSolve], 1)), float64(max(count[kindMutate], 1))
	c := on.c
	sort.Float64s(opTimes)
	var daemonAll []float64
	for _, r := range served {
		daemonAll = append(daemonAll, ms(r.latency))
	}
	sort.Float64s(daemonAll)

	m["core.prepare_ms"] = metric{per(kindSolve, "core.prepare"), "ms"}
	m["core.instance_builds"] = metric{float64(on.rebuilds) / solves, "count"}
	m["core.round_ms"] = metric{per(kindSolve, "core.round"), "ms"}
	m["core.rounds"] = metric{float64(c.rounds) / solves, "count"}
	m["core.samples_per_round"] = metric{ratio(float64(c.samplesDirty), float64(c.rounds)), "count"}
	m["core.eval_ms"] = metric{per(kindSolve, "core.eval"), "ms"}
	m["core.eval_calls"] = metric{float64(c.evalCalls) / solves, "count"}
	m["core.solve_self_ms"] = metric{per(kindSolve, "core.solve"), "ms"}
	m["core.pool_build_ms"] = metric{ms(setup["core.pool_build"]), "ms"}
	m["core.pool_hit_ratio"] = metric{on.poolHits, "ratio"}
	m["core.pool_bytes"] = metric{float64(on.poolByte), "bytes"}
	m["core.migrate_ms"] = metric{per(kindMutate, "core.migrate"), "ms"}
	m["core.redraw_ratio"] = metric{ratio(float64(c.redrawn), float64(c.redrawn+c.kept)), "ratio"}
	m["dynamic.commit_ms"] = metric{per(kindMutate, "dynamic.commit"), "ms"}
	m["dynamic.snapshot_ms"] = metric{per(kindMutate, "dynamic.snapshot"), "ms"}
	m["dynamic.changed_sources"] = metric{float64(c.changedSources) / mutates, "count"}
	m["store.append_ms"] = metric{per(kindMutate, "store.append"), "ms"}
	m["store.wal_bytes"] = metric{float64(c.walBytes) / mutates, "bytes"}
	m["store.fsync_ms"] = metric{ms(time.Duration(c.fsyncNS)), "ms"}
	m["store.fsyncs"] = metric{float64(c.fsyncs), "count"}
	m["store.create_ms"] = metric{ms(setup["store.create"]), "ms"}
	m["graph.load_ms"] = metric{ms(setup["graph.load"]), "ms"}
	m["service.session_wait_ms"] = metric{per(kindSolve, "service.session_wait"), "ms"}
	m["service.session_hit_ratio"] = metric{on.sessHits, "ratio"}
	m["service.codec_ms"] = metric{ms(self[kindSolve]["service.codec"]+self[kindMutate]["service.codec"]) / float64(acc.Ops), "ms"}
	m["service.unattributed_ms"] = metric{quantile(daemonAll, 0.5) - quantile(opTimes, 0.5), "ms"}
	m["trace.worst_coverage"] = metric{acc.WorstCoverage, "ratio"}
	// CPU time, not wall time: the replays run minutes apart on a shared
	// host, and tracing costs CPU on the callers' own goroutines.
	m["trace.overhead_ratio"] = metric{ratio(float64(on.cpu), float64(off.cpu)) - 1, "ratio"}
	return acc, nil
}

// kindReport is one op kind's end-to-end numbers.
type kindReport struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	P50MS     float64 `json:"p50_ms,omitempty"`
	// P90MS is reported only with at least ten samples beyond it.
	P90MS float64 `json:"p90_ms,omitempty"`
}

// report is the human-readable summary printed before the result line.
type report struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	SetupS     []float64 `json:"setup_s_each"` // daemon CPU time
	SetupWallS []float64 `json:"setup_wall_s_each"`
	DaemonStop string    `json:"daemon_stop_error,omitempty"`
	WallS      float64   `json:"timed_phase_s"`
	// OpsPerS and OpP50 are the wall-clock end-to-end numbers. OpP50 is the
	// median over all ops: in mutate-mix about half the solves queue behind
	// a mutate's session migration, so the solve median alone falls between
	// the two modes.
	OpsPerS    metric                `json:"ops_per_s"`
	OpP50      *metric               `json:"op_p50_ms,omitempty"` // nil when a failed op is the median
	Kinds      map[string]kindReport `json:"kinds"`
	Checks     checkReport           `json:"checks"`
	Accounting *accountingReport     `json:"trace_accounting,omitempty"`
}

func (rep *report) fill(ph *phase) {
	rep.WallS = ph.wall.Seconds()
	rep.OpsPerS = metric{float64(ph.completed()) / ph.wall.Seconds(), "1/s"}
	if p50 := quantile(latencies(ph.served, kindSolve, kindMutate), 0.5); !math.IsInf(p50, 0) && !math.IsNaN(p50) {
		rep.OpP50 = &metric{p50, "ms"}
	}
	rep.Kinds = map[string]kindReport{}
	for _, k := range []opKind{kindSolve, kindMutate} {
		xs := latencies(ph.served, k)
		if len(xs) == 0 {
			continue
		}
		kr := kindReport{Attempted: len(xs)}
		for _, r := range ph.served {
			if r.op.kind == k && r.err != "" {
				kr.Failed++
			}
		}
		if kr.Failed == 0 {
			kr.P50MS = quantile(xs, 0.5)
			if len(xs) >= 100 {
				kr.P90MS = quantile(xs, 0.9)
			}
		}
		rep.Kinds[k.String()] = kr
	}
}
