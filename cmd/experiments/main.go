// Command experiments reruns the paper's evaluation: every table and
// figure of Section VI, on scaled synthetic stand-ins of the 8 datasets.
//
// Examples:
//
//	experiments -exp all                       # everything, laptop scale
//	experiments -exp table7 -scale 0.05        # one experiment, bigger
//	experiments -exp fig7 -datasets EC,F,W     # subset of datasets
//	experiments -exp table5 -exp table6        # repeatable flag
//	experiments -exp all -csv-dir ./results    # also dump CSV series
//
// Experiment names: table3, table5, table6, table7, fig5 (= fig6), fig7,
// fig8, fig9, fig10, fig11, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/harness"
)

type expFlag []string

func (e *expFlag) String() string     { return strings.Join(*e, ",") }
func (e *expFlag) Set(v string) error { *e = append(*e, strings.ToLower(v)); return nil }

func main() {
	var exps expFlag
	flag.Var(&exps, "exp", "experiment to run (repeatable): table3, table5, table6, table7, fig5, fig7, fig8, fig9, fig10, fig11, all, benchcore, benchdiff (explicit only, not in all)")
	var (
		scale      = flag.Float64("scale", 0.02, "dataset scale")
		theta      = flag.Int("theta", 1000, "sampled graphs per round")
		mcs        = flag.Int("mcs", 1000, "Monte-Carlo rounds for baseline greedy")
		evalR      = flag.Int("eval", 10000, "Monte-Carlo rounds for spread evaluation")
		seeds      = flag.Int("seeds", 10, "seed-set size")
		seed       = flag.Uint64("rng", 1, "random seed")
		timeout    = flag.Duration("timeout", 15*time.Second, "per-run timeout (the paper's 24h cap, scaled)")
		workers    = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		datasets   = flag.String("datasets", "", "comma-separated dataset filter (full or short names)")
		csvDir     = flag.String("csv-dir", "", "also write each experiment's rows as CSV into this directory")
		benchOut   = flag.String("bench-out", "BENCH_core.json", "JSON output path for -exp benchcore")
		benchMin   = flag.Duration("bench-mintime", 2*time.Second, "minimum measuring time of each benchcore timed loop")
		benchForce = flag.Bool("force", false, "overwrite an existing -bench-out measured under a different provenance")
		benchFloor = flag.Float64("bench-scaling-floor", 0, "fail benchcore if the 4-worker speedup over 1 worker is below this (only on >=4-CPU machines; 0 disables)")

		benchBaseline  = flag.String("bench-baseline", "BENCH_core.json", "committed baseline report for -exp benchdiff")
		benchCandidate = flag.String("bench-candidate", "", "candidate report for -exp benchdiff (empty = measure a fresh one now)")
		benchHistory   = flag.String("bench-history", "BENCH_history.jsonl", "JSONL perf-trajectory ledger benchdiff appends to (empty disables)")
	)
	flag.Parse()
	if len(exps) == 0 {
		exps = expFlag{"all"}
	}

	cfg := harness.Config{
		Scale:      *scale,
		Theta:      *theta,
		MCSRounds:  *mcs,
		EvalRounds: *evalR,
		NumSeeds:   *seeds,
		Workers:    *workers,
		Seed:       *seed,
		Timeout:    *timeout,
		Out:        os.Stdout,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}

	want := map[string]bool{}
	for _, e := range exps {
		want[e] = true
	}
	run := func(name string) bool { return want["all"] || want[name] }
	start := time.Now()

	if run("table3") {
		section("Table III (toy-graph blockers)")
		rows, err := harness.RunTable3(cfg)
		failIf(err)
		dumpCSV(*csvDir, "table3.csv", func(w io.Writer) error { return harness.WriteTable3CSV(w, rows) })
	}
	if run("table5") {
		section("Table V (Exact vs GreedyReplace, TR)")
		rows, err := harness.RunTable56(cfg, graph.Trivalency, harness.Table56Options{})
		failIf(err)
		dumpCSV(*csvDir, "table5.csv", func(w io.Writer) error { return harness.WriteTable56CSV(w, rows) })
	}
	if run("table6") {
		section("Table VI (Exact vs GreedyReplace, WC)")
		rows, err := harness.RunTable56(cfg, graph.WeightedCascade, harness.Table56Options{})
		failIf(err)
		dumpCSV(*csvDir, "table6.csv", func(w io.Writer) error { return harness.WriteTable56CSV(w, rows) })
	}
	if run("table7") {
		section("Table VII (heuristic comparison)")
		rows, err := harness.RunTable7(cfg, harness.Table7Options{})
		failIf(err)
		dumpCSV(*csvDir, "table7.csv", func(w io.Writer) error { return harness.WriteTable7CSV(w, rows) })
	}
	if run("fig5") || run("fig6") {
		section("Figures 5+6 (quality and time vs θ)")
		pts, err := harness.RunFig56(cfg, harness.Fig56Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig56.csv", func(w io.Writer) error { return harness.WriteFig56CSV(w, pts) })
	}
	if run("fig7") {
		section("Figure 7 (BG/AG/GR time, TR)")
		rows, err := harness.RunFig78(cfg, graph.Trivalency, harness.Fig78Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig7.csv", func(w io.Writer) error { return harness.WriteFig78CSV(w, rows) })
	}
	if run("fig8") {
		section("Figure 8 (BG/AG/GR time, WC)")
		rows, err := harness.RunFig78(cfg, graph.WeightedCascade, harness.Fig78Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig8.csv", func(w io.Writer) error { return harness.WriteFig78CSV(w, rows) })
	}
	if run("fig9") {
		section("Figure 9 (time vs budget)")
		pts, err := harness.RunFig9(cfg, harness.Fig9Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig9.csv", func(w io.Writer) error { return harness.WriteFig9CSV(w, pts) })
	}
	if run("fig10") {
		section("Figure 10 (time vs seeds, TR)")
		pts, err := harness.RunFig1011(cfg, graph.Trivalency, harness.Fig1011Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig10.csv", func(w io.Writer) error { return harness.WriteFig1011CSV(w, pts) })
	}
	// benchcore is the estimator cost baseline, not a paper experiment; it
	// writes BENCH_core.json and only runs when named explicitly.
	if want["benchcore"] {
		section("Estimator benchmark (DecreaseES fresh vs incremental)")
		_, err := harness.RunBenchCore(cfg, harness.BenchCoreOptions{
			MinTime:      *benchMin,
			JSONPath:     *benchOut,
			Force:        *benchForce,
			ScalingFloor: *benchFloor,
		})
		failIf(err)
		if *benchOut != "" {
			fmt.Printf("wrote %s\n", *benchOut)
		}
	}
	// benchdiff is the perf-trajectory regression gate: compare a candidate
	// benchcore report (fresh by default) against the committed baseline and
	// exit nonzero on regression. Explicit only, like benchcore.
	if want["benchdiff"] {
		section("Benchmark regression gate (candidate vs committed baseline)")
		base, err := harness.LoadBenchCoreReport(*benchBaseline)
		if err != nil {
			fail(fmt.Errorf("loading baseline: %v", err))
		}
		var cand *harness.BenchCoreReport
		if *benchCandidate != "" {
			if cand, err = harness.LoadBenchCoreReport(*benchCandidate); err != nil {
				fail(fmt.Errorf("loading candidate: %v", err))
			}
		} else {
			cand, err = harness.RunBenchCore(cfg, harness.BenchCoreOptions{MinTime: *benchMin})
			failIf(err)
		}
		res, err := harness.RunBenchDiff(base, cand, os.Stdout)
		failIf(err)
		if *benchHistory != "" {
			if err := harness.AppendBenchHistory(*benchHistory, cand, res); err != nil {
				fail(fmt.Errorf("appending %s: %v", *benchHistory, err))
			}
			fmt.Printf("(history appended to %s)\n", *benchHistory)
		}
		if len(res.Regressions) > 0 {
			fail(fmt.Errorf("%d benchmark regression(s):\n  %s",
				len(res.Regressions), strings.Join(res.Regressions, "\n  ")))
		}
		fmt.Println("benchdiff: no regressions")
	}
	if run("fig11") {
		section("Figure 11 (time vs seeds, WC)")
		pts, err := harness.RunFig1011(cfg, graph.WeightedCascade, harness.Fig1011Options{})
		failIf(err)
		dumpCSV(*csvDir, "fig11.csv", func(w io.Writer) error { return harness.WriteFig1011CSV(w, pts) })
	}

	fmt.Printf("\ntotal experiment time: %v\n", time.Since(start).Round(time.Millisecond))
}

func section(title string) {
	fmt.Printf("\n================ %s ================\n", title)
}

func failIf(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// dumpCSV writes one experiment's rows when -csv-dir is set.
func dumpCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("(csv written to %s)\n", filepath.Join(dir, name))
}
