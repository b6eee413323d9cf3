// benchdiff.go compares a fresh benchcore report against the committed
// BENCH_core.json baseline and turns the delta into a pass/fail verdict —
// the perf-trajectory regression gate. Metrics fall into four classes:
//
//   - timing:  absolute ns/round and build-time numbers. Only comparable
//     when the baseline was measured on matching hardware provenance
//     (GOMAXPROCS, NumCPU, requested workers); otherwise reported but
//     ungated.
//   - ratio:   dimensionless speedups. Hardware mostly cancels out of a
//     ratio, so these gate on every run — they are the trajectory the
//     paper's claims rest on (the incremental estimator beats fresh
//     sampling, workers scale).
//   - bar:     absolute acceptance bars (instrumentation overhead ≤ 2%).
//   - bool:    determinism contracts that must simply hold (bit-identical
//     blockers across workers, bit-identical pool repair).
//
// Every skipped or ungated metric is logged — a gate that silently narrows
// its own coverage reads as "all green" when it is not.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// BenchDiffOptions parameterizes the comparison.
type BenchDiffOptions struct {
	// TimingTolerancePct is the allowed worsening of absolute timing
	// metrics before they count as regressions (default 10). Benchcore
	// numbers on shared runners are noisy; the tolerance is the noise
	// floor, not a license.
	TimingTolerancePct float64
	// RatioTolerancePct is the allowed worsening of dimensionless ratio
	// metrics (default 10).
	RatioTolerancePct float64
	// Out receives the human-readable comparison table (default discard).
	Out io.Writer
}

// BenchDiffMetric is one compared metric.
type BenchDiffMetric struct {
	Name  string  `json:"name"`
	Class string  `json:"class"` // timing | ratio | bar | bool
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	// DeltaPct is the signed change in percent, oriented so positive is
	// worse (slower, smaller speedup, bigger ratio).
	DeltaPct float64 `json:"delta_pct"`
	// Gated reports whether this metric participated in the verdict;
	// Regressed whether it exceeded its tolerance or broke its bar.
	Gated     bool `json:"gated"`
	Regressed bool `json:"regressed"`
}

// BenchDiffResult is the full comparison outcome.
type BenchDiffResult struct {
	// HardwareMatch reports whether the baseline's provenance
	// (GOMAXPROCS, NumCPU, requested workers) matches the candidate's.
	// Without it, absolute timings are reported but not gated.
	HardwareMatch bool              `json:"hardware_match"`
	Metrics       []BenchDiffMetric `json:"metrics"`
	// Regressions is the human-readable gate failures; empty means pass.
	Regressions []string `json:"regressions"`
}

// LoadBenchCoreReport reads a benchcore JSON report from disk.
func LoadBenchCoreReport(path string) (*BenchCoreReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchCoreReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return &rep, nil
}

// workloadMatches reports whether two reports measured the same workload.
// Comparing different workloads is meaningless, so a mismatch is an error,
// not an ungated metric.
func workloadMatches(base, cand *BenchCoreReport) error {
	if base.Graph != cand.Graph {
		return fmt.Errorf("graph mismatch: baseline %+v vs candidate %+v", base.Graph, cand.Graph)
	}
	if base.Theta != cand.Theta {
		return fmt.Errorf("theta mismatch: baseline %d vs candidate %d", base.Theta, cand.Theta)
	}
	if base.Budget != cand.Budget {
		return fmt.Errorf("budget mismatch: baseline %d vs candidate %d", base.Budget, cand.Budget)
	}
	return nil
}

// hardwareMatches reports whether the baseline's timing numbers were
// measured under the candidate's parallelism provenance.
func hardwareMatches(base, cand *BenchCoreReport) bool {
	return base.GoMaxProcs == cand.GoMaxProcs &&
		base.NumCPU == cand.NumCPU &&
		base.Workers == cand.Workers
}

// RunBenchDiff compares a candidate benchcore report against a baseline and
// returns the per-metric deltas plus the list of gate failures. It returns
// an error only when the two reports are incomparable (different workload);
// regressions are reported in the result, not as errors.
func RunBenchDiff(base, cand *BenchCoreReport, opt BenchDiffOptions) (*BenchDiffResult, error) {
	if opt.TimingTolerancePct <= 0 {
		opt.TimingTolerancePct = 10
	}
	if opt.RatioTolerancePct <= 0 {
		opt.RatioTolerancePct = 10
	}
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	if err := workloadMatches(base, cand); err != nil {
		return nil, fmt.Errorf("benchdiff: baselines incomparable: %v", err)
	}

	res := &BenchDiffResult{HardwareMatch: hardwareMatches(base, cand)}
	if !res.HardwareMatch {
		fmt.Fprintf(opt.Out, "hardware provenance differs (baseline %d/%d cpu, workers=%d; candidate %d/%d cpu, workers=%d): absolute timings reported but NOT gated, ratios still gate\n",
			base.GoMaxProcs, base.NumCPU, base.Workers,
			cand.GoMaxProcs, cand.NumCPU, cand.Workers)
	}

	// worse converts a raw delta into "positive = worse" percent.
	add := func(name, class string, baseV, curV, worsePct, tolPct float64, gated bool) {
		m := BenchDiffMetric{Name: name, Class: class, Base: baseV, Cur: curV, DeltaPct: worsePct, Gated: gated}
		if gated && worsePct > tolPct {
			m.Regressed = true
			res.Regressions = append(res.Regressions,
				fmt.Sprintf("%s: %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)", name, baseV, curV, worsePct, tolPct))
		}
		res.Metrics = append(res.Metrics, m)
		flag := ""
		if m.Regressed {
			flag = "  << REGRESSION"
		} else if !gated {
			flag = "  (ungated)"
		}
		fmt.Fprintf(opt.Out, "%-36s %12.4g -> %12.4g  %+7.1f%%%s\n", name, baseV, curV, worsePct, flag)
	}

	// higherWorse / lowerWorse skip metrics the baseline never measured
	// (zero value) — and say so, no silent narrowing.
	higherWorse := func(name, class string, baseV, curV, tol float64, gated bool) {
		if baseV == 0 {
			fmt.Fprintf(opt.Out, "%-36s skipped: baseline has no measurement\n", name)
			return
		}
		add(name, class, baseV, curV, 100*(curV-baseV)/baseV, tol, gated)
	}
	lowerWorse := func(name, class string, baseV, curV, tol float64, gated bool) {
		if baseV == 0 {
			fmt.Fprintf(opt.Out, "%-36s skipped: baseline has no measurement\n", name)
			return
		}
		add(name, class, baseV, curV, 100*(baseV-curV)/baseV, tol, gated)
	}

	tt, rt := opt.TimingTolerancePct, opt.RatioTolerancePct
	hw := res.HardwareMatch

	// Absolute timings: gated only on matching hardware provenance.
	higherWorse("fresh.ns_per_round", "timing", base.Fresh.NsPerRound, cand.Fresh.NsPerRound, tt, hw)
	higherWorse("incremental.ns_per_round", "timing", base.Incremental.NsPerRound, cand.Incremental.NsPerRound, tt, hw)
	higherWorse("pool_build_ms", "timing", base.PoolBuildMS, cand.PoolBuildMS, tt, hw)

	// Dimensionless ratios: always gated.
	lowerWorse("speedup_incremental_vs_fresh", "ratio", base.SpeedupIncrementalVsFresh, cand.SpeedupIncrementalVsFresh, rt, true)
	lowerWorse("speedup_incremental_4w_vs_1w", "ratio", base.SpeedupIncremental4WVs1W, cand.SpeedupIncremental4WVs1W, rt, true)

	// Absolute bars and determinism contracts on the candidate.
	if cand.Instrumentation != nil {
		// The acceptance bar on the hook's true cost is 2%, but the
		// measurement is a ratio of two noisy timings, so the gate allows
		// the timing tolerance on top — it catches a hook that grew real
		// per-round work (a lock, an allocation), not a noisy arm.
		const overheadBar = 2.0
		gateAt := overheadBar + tt
		m := BenchDiffMetric{
			Name: "instrumentation.overhead_pct", Class: "bar",
			Cur: cand.Instrumentation.OverheadPct, Gated: true,
		}
		if base.Instrumentation != nil {
			m.Base = base.Instrumentation.OverheadPct
		}
		if cand.Instrumentation.OverheadPct > gateAt {
			m.Regressed = true
			res.Regressions = append(res.Regressions,
				fmt.Sprintf("instrumentation.overhead_pct: %.2f%% exceeds the %.0f%% bar (+%.0f%% timing tolerance)",
					cand.Instrumentation.OverheadPct, overheadBar, tt))
		}
		res.Metrics = append(res.Metrics, m)
		fmt.Fprintf(opt.Out, "%-36s %12.4g -> %12.4g  (bar ≤ %.0f%% + %.0f%% tolerance)\n", m.Name, m.Base, m.Cur, overheadBar, tt)
		boolGate(res, opt.Out, "instrumentation.blockers_identical", cand.Instrumentation.BlockersIdentical)
	} else {
		fmt.Fprintf(opt.Out, "%-36s skipped: candidate has no measurement\n", "instrumentation.overhead_pct")
	}
	boolGate(res, opt.Out, "blockers_identical_across_workers", cand.BlockersIdenticalAcrossWorkers)
	for _, mp := range cand.MutateRepair {
		boolGate(res, opt.Out, fmt.Sprintf("mutate_repair[%d_edges].repair_bit_identical", mp.BatchEdges), mp.RepairBitIdentical)
	}

	return res, nil
}

// boolGate records one must-hold determinism contract.
func boolGate(res *BenchDiffResult, out io.Writer, name string, ok bool) {
	m := BenchDiffMetric{Name: name, Class: "bool", Base: 1, Cur: b2f(ok), Gated: true, Regressed: !ok}
	if !ok {
		res.Regressions = append(res.Regressions, fmt.Sprintf("%s: false", name))
	}
	res.Metrics = append(res.Metrics, m)
	fmt.Fprintf(out, "%-36s %v\n", name, ok)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// BenchHistoryEntry is one JSONL row of BENCH_history.jsonl — the
// perf-trajectory ledger every benchdiff run appends to, so the numbers'
// drift over time stays reviewable in-repo.
type BenchHistoryEntry struct {
	Time          string   `json:"time"`
	GoVersion     string   `json:"go_version"`
	GoMaxProcs    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	Workers       int      `json:"workers"`
	HardwareMatch bool     `json:"hardware_match"`
	Regressions   []string `json:"regressions,omitempty"`

	FreshNsPerRound            float64 `json:"fresh_ns_per_round"`
	IncrementalNsPerRound      float64 `json:"incremental_ns_per_round"`
	SpeedupIncrementalVsFresh  float64 `json:"speedup_incremental_vs_fresh"`
	InstrumentationOverheadPct float64 `json:"instrumentation_overhead_pct,omitempty"`
}

// AppendBenchHistory appends one candidate's headline numbers plus the gate
// verdict to the JSONL history file, creating it if absent.
func AppendBenchHistory(path string, cand *BenchCoreReport, res *BenchDiffResult) error {
	e := BenchHistoryEntry{
		Time:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     cand.GoVersion,
		GoMaxProcs:    cand.GoMaxProcs,
		NumCPU:        cand.NumCPU,
		Workers:       cand.Workers,
		HardwareMatch: res.HardwareMatch,
		Regressions:   res.Regressions,

		FreshNsPerRound:           round4(cand.Fresh.NsPerRound),
		IncrementalNsPerRound:     round4(cand.Incremental.NsPerRound),
		SpeedupIncrementalVsFresh: round4(cand.SpeedupIncrementalVsFresh),
	}
	if cand.Instrumentation != nil {
		e.InstrumentationOverheadPct = round4(cand.Instrumentation.OverheadPct)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// round4 trims float noise before it lands in the committed history file.
func round4(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Round(v*1e4) / 1e4
}
