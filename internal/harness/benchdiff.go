// benchdiff.go compares a candidate benchcore report against the committed
// BENCH_core.json baseline and turns the delta into a pass/fail verdict —
// the perf-trajectory regression gate. It names no metric: each metric's
// class, carried in its record, decides how it gates (see ClassTiming …
// ClassInfo). The baseline's record decides for a name the baseline has,
// so a candidate cannot ungate a metric by reclassifying it; the
// candidate's record decides for a name only the candidate has.
//
// Coverage never narrows silently. A non-info metric of the baseline that
// the candidate lacks is a regression, and so is a timing or ratio that is
// not a positive number or a class benchdiff does not know. Every ungated
// comparison is printed as such.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The allowed worsening, in percent, of a timing and of a ratio: the noise
// floor of benchcore numbers on shared runners, not a license.
const (
	timingTolerancePct = 10
	ratioTolerancePct  = 10
)

// barTolerance is added to every bar's limit, in the bar's unit. Today's
// only bar is the hook-overhead percentage, timed on the hook alone and
// reading 0.03–0.05 %, so a quarter point absorbs its noise and the ≤2 %
// bar still means 2 %.
const barTolerance = 0.25

// BenchDiffMetric is one compared metric.
type BenchDiffMetric struct {
	Name  string  `json:"name"`
	Class string  `json:"class"`
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	// DeltaPct is the signed change of a timing or ratio in percent,
	// oriented so positive is worse (slower, smaller speedup).
	DeltaPct float64 `json:"delta_pct"`
	// Gated reports whether this metric participated in the verdict;
	// Regressed whether it exceeded its tolerance, broke its bar or
	// contract, or is missing from the candidate.
	Gated     bool `json:"gated"`
	Regressed bool `json:"regressed"`
}

// BenchDiffResult is the full comparison outcome.
type BenchDiffResult struct {
	// HardwareMatch reports whether the baseline's provenance
	// (GOMAXPROCS, NumCPU, requested workers) matches the candidate's.
	// Without it, timings are reported but not gated.
	HardwareMatch bool              `json:"hardware_match"`
	Metrics       []BenchDiffMetric `json:"metrics"`
	// Regressions is the human-readable gate failures; empty means pass.
	Regressions []string `json:"regressions"`
}

// LoadBenchCoreReport reads a benchcore JSON report from disk. A field the
// flat schema does not have (an older report) is an error.
func LoadBenchCoreReport(path string) (*BenchCoreReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep BenchCoreReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return &rep, nil
}

// workloadMatches reports whether two reports measured the same workload.
// Comparing different workloads is meaningless, so a mismatch is an error,
// not an ungated metric.
func workloadMatches(base, cand BenchProvenance) error {
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
func hardwareMatches(base, cand BenchProvenance) bool {
	return base.GoMaxProcs == cand.GoMaxProcs &&
		base.NumCPU == cand.NumCPU &&
		base.Workers == cand.Workers
}

// RunBenchDiff compares a candidate benchcore report against a baseline,
// prints one row per metric to out (nil discards), and returns the
// per-metric deltas plus the list of gate failures. It returns an error
// only when the two reports are incomparable (different workload);
// regressions are reported in the result, not as errors.
func RunBenchDiff(base, cand *BenchCoreReport, out io.Writer) (*BenchDiffResult, error) {
	if out == nil {
		out = io.Discard
	}
	if err := workloadMatches(base.Provenance, cand.Provenance); err != nil {
		return nil, fmt.Errorf("benchdiff: baselines incomparable: %v", err)
	}
	res := &BenchDiffResult{HardwareMatch: hardwareMatches(base.Provenance, cand.Provenance)}
	if !res.HardwareMatch {
		fmt.Fprintf(out, "hardware provenance differs (baseline %v; candidate %v): timings reported but NOT gated, every other class still gates\n",
			base.Provenance, cand.Provenance)
	}

	inBase := make(map[string]BenchMetric, len(base.Metrics))
	for _, b := range base.Metrics {
		inBase[b.Name] = b
	}
	inCand := make(map[string]bool, len(cand.Metrics))
	for _, c := range cand.Metrics {
		inCand[c.Name] = true
		b, ok := inBase[c.Name]
		res.compare(out, b, ok, c)
	}
	for _, b := range base.Metrics {
		if !inCand[b.Name] && b.Class != ClassInfo {
			res.record(out, BenchDiffMetric{Name: b.Name, Class: b.Class, Base: b.Value, Gated: true},
				"missing from the candidate")
		}
	}
	return res, nil
}

// compare gates one candidate metric c against its baseline record b
// (hasBase false: the baseline lacks the name).
func (res *BenchDiffResult) compare(out io.Writer, b BenchMetric, hasBase bool, c BenchMetric) {
	rule, from := c, "-"
	if hasBase {
		rule, from = b, fmt.Sprintf("%.4g", b.Value)
	}
	m := BenchDiffMetric{Name: c.Name, Class: rule.Class, Base: b.Value, Cur: c.Value}
	var fail, note string
	switch rule.Class {
	case ClassTiming, ClassRatio:
		switch {
		case !(c.Value > 0) || math.IsInf(c.Value, 0):
			m.Gated, fail = true, "not a positive measurement"
		case !hasBase || !(b.Value > 0):
			note = "ungated: no baseline measurement"
		default:
			m.Gated = true
			tol := ratioTolerancePct
			m.DeltaPct = 100 * (b.Value - c.Value) / b.Value // a smaller ratio is worse
			if rule.Class == ClassTiming {
				m.Gated = res.HardwareMatch
				tol = timingTolerancePct
				m.DeltaPct = 100 * (c.Value - b.Value) / b.Value // a larger timing is worse
			}
			note = fmt.Sprintf("%+.1f%%", m.DeltaPct)
			if !m.Gated {
				note += " (ungated: hardware differs)"
			} else if m.DeltaPct > float64(tol) {
				fail = fmt.Sprintf("%+.1f%%, tolerance %d%%", m.DeltaPct, tol)
			}
		}
	case ClassBar:
		m.Gated = true
		note = fmt.Sprintf("bar ≤ %g + %g", rule.Limit, barTolerance)
		if !(c.Value <= rule.Limit+barTolerance) {
			fail = "exceeds the " + note
		}
	case ClassBool:
		m.Gated, note = true, "must be true"
		if c.Value != 1 {
			fail = "false"
		}
	case ClassInfo: // reported, never gated
	default:
		m.Gated, fail = true, fmt.Sprintf("unknown class %q", rule.Class)
	}
	if fail != "" {
		res.record(out, m, fmt.Sprintf("%s -> %.4g: %s", from, m.Cur, fail))
		return
	}
	res.Metrics = append(res.Metrics, m)
	fmt.Fprintf(out, "%-48s %-6s %12s -> %12.4g  %s\n", m.Name, m.Class, from, m.Cur, note)
}

// record adds a regressed metric with the reason it failed.
func (res *BenchDiffResult) record(out io.Writer, m BenchDiffMetric, why string) {
	m.Regressed = true
	res.Metrics = append(res.Metrics, m)
	msg := fmt.Sprintf("%s (%s): %s", m.Name, m.Class, why)
	res.Regressions = append(res.Regressions, msg)
	fmt.Fprintf(out, "%s  << REGRESSION\n", msg)
}

// BenchHistoryEntry is one JSONL row of BENCH_history.jsonl — the
// perf-trajectory ledger every benchdiff run appends to, so the numbers'
// drift over time stays reviewable in-repo.
type BenchHistoryEntry struct {
	Time          string          `json:"time"`
	Provenance    BenchProvenance `json:"provenance"`
	HardwareMatch bool            `json:"hardware_match"`
	Regressions   []string        `json:"regressions,omitempty"`
	// Metrics holds the candidate's value of every metric that is not
	// info, by name.
	Metrics map[string]float64 `json:"metrics"`
}

// AppendBenchHistory appends one candidate's gated numbers plus the gate
// verdict to the JSONL history file, creating it if absent.
func AppendBenchHistory(path string, cand *BenchCoreReport, res *BenchDiffResult) error {
	e := BenchHistoryEntry{
		Time:          time.Now().UTC().Format(time.RFC3339),
		Provenance:    cand.Provenance,
		HardwareMatch: res.HardwareMatch,
		Regressions:   res.Regressions,
		Metrics:       map[string]float64{},
	}
	for _, m := range cand.Metrics {
		if m.Class != ClassInfo {
			e.Metrics[m.Name] = round4(m.Value)
		}
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
