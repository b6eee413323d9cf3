package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/obs"
)

// solveOnce posts one small deterministic solve against g1.
func solveOnce(t *testing.T, baseURL string) SolveResponse {
	t.Helper()
	var resp SolveResponse
	req := SolveRequest{
		Seeds: []int{5, 9}, Budget: 3, Algorithm: "advanced-greedy",
		Theta: 300, Seed: 11, EvalRounds: -1,
	}
	if code, body := postJSON(t, baseURL+"/graphs/g1/solve", req, &resp); code != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", code, body)
	}
	return resp
}

// TestSolveResponseCarriesCost checks the tentpole's cost model surface:
// every solve response carries a cost block whose phases and counters are
// populated and internally consistent.
func TestSolveResponseCarriesCost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	resp := solveOnce(t, ts.URL)
	c := resp.Cost
	if c == nil {
		t.Fatal("solve response has no cost block")
	}
	if c.Rounds == 0 || c.RoundNS <= 0 {
		t.Fatalf("cost rounds not accounted: %+v", c)
	}
	if c.SolveNS <= 0 || c.TotalNS < c.SolveNS {
		t.Fatalf("cost timings inconsistent: solve %d total %d", c.SolveNS, c.TotalNS)
	}
	if c.SamplesDrawn <= 0 {
		t.Fatalf("cost samples_drawn = %d", c.SamplesDrawn)
	}
	if c.QueueSessionNS < 0 || c.QueueSlotNS < 0 {
		t.Fatalf("negative queue waits: %+v", c)
	}

	// The cost histograms saw the same solve.
	_, vals := scrapeMetrics(t, ts.URL)
	if n := vals[`imind_solve_cost_seconds_count{phase="solve"}`]; n != 1 {
		t.Fatalf("cost histogram count = %v, want 1", n)
	}
	if n := vals[`imind_solve_cost_samples_count{kind="drawn"}`]; n != 1 {
		t.Fatalf("cost samples histogram count = %v, want 1", n)
	}
}

// TestSLOBreachCapturesBundle is the acceptance e2e: a solve under an
// unmeetable -slo-solve-ms must produce a diagnostic bundle containing the
// offending trace, the goroutine and heap profiles and a metrics snapshot,
// served via GET /debug/bundles — even though the client never asked for a
// trace and the trace ring is on by default.
func TestSLOBreachCapturesBundle(t *testing.T) {
	_, ts := newTestServer(t, Config{
		SLOSolve:     time.Nanosecond,
		DiagDir:      t.TempDir(),
		DiagCooldown: -1,
		TraceRing:    8,
	})
	registerTestGraphs(t, ts)
	solveOnce(t, ts.URL)

	// The capture runs on a background goroutine; poll for it.
	var bundles BundlesResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getJSONBody(t, ts.URL+"/debug/bundles", &bundles)
		if code != http.StatusOK {
			t.Fatalf("GET /debug/bundles: status %d, body %s", code, body)
		}
		if len(bundles.Bundles) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(bundles.Bundles) != 1 {
		t.Fatalf("bundles = %+v, want exactly one", bundles.Bundles)
	}
	info := bundles.Bundles[0]
	if info.Reason != "slo_solve" {
		t.Fatalf("bundle reason = %q, want slo_solve", info.Reason)
	}

	resp, err := http.Get(ts.URL + "/debug/bundles/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET bundle: status %d", resp.StatusCode)
	}
	var b diag.Bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatalf("decoding bundle: %v", err)
	}
	if b.Trigger.Reason != "slo_solve" || b.Trigger.Route != "solve" || b.Trigger.Graph != "g1" {
		t.Fatalf("trigger = %+v", b.Trigger)
	}
	if b.Trigger.RequestID == "" || b.Trigger.ElapsedMS <= 0 {
		t.Fatalf("trigger missing request id or elapsed: %+v", b.Trigger)
	}
	if b.Trace == nil || b.Trace.Op != "solve" {
		t.Fatalf("offending trace missing: %+v", b.Trace)
	}
	if len(b.RecentTraces) == 0 {
		t.Fatal("trace ring missing from bundle")
	}
	if !strings.Contains(b.Goroutine, "goroutine") {
		t.Fatal("goroutine profile missing")
	}
	if b.Heap == "" {
		t.Fatal("heap profile missing")
	}
	if !strings.Contains(b.Metrics, "imind_") {
		t.Fatal("metrics snapshot missing")
	}

	// The breach is also visible on the metrics surface.
	_, vals := scrapeMetrics(t, ts.URL)
	if n := vals[`imind_slo_breaches_total{route="solve"}`]; n != 1 {
		t.Fatalf("slo breaches = %v, want 1", n)
	}
	if n := sumSamples(vals, `imind_diag_bundles_total`); n != 1 {
		t.Fatalf("bundles captured = %v, want 1", n)
	}
}

// TestBundlesDisabledWithoutDiagDir: without -diag-dir the endpoints are
// 404 and an SLO breach still logs/counts but captures nothing.
func TestBundlesDisabledWithoutDiagDir(t *testing.T) {
	_, ts := newTestServer(t, Config{SLOSolve: time.Nanosecond})
	registerTestGraphs(t, ts)
	solveOnce(t, ts.URL)

	resp, err := http.Get(ts.URL + "/debug/bundles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/bundles without -diag-dir: status %d, want 404", resp.StatusCode)
	}
	_, vals := scrapeMetrics(t, ts.URL)
	if n := vals[`imind_slo_breaches_total{route="solve"}`]; n != 1 {
		t.Fatalf("slo breaches = %v, want 1 (breach detection is independent of the recorder)", n)
	}
}

// TestTraceFilters exercises the /debug/traces query filters.
func TestTraceFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: 8})
	registerTestGraphs(t, ts)
	solveOnce(t, ts.URL)
	solveOnce(t, ts.URL)

	get := func(query string) (int, TracesResponse) {
		t.Helper()
		var tr TracesResponse
		resp, err := http.Get(ts.URL + "/debug/traces" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, tr
	}

	if code, tr := get(""); code != http.StatusOK || len(tr.Traces) != 2 {
		t.Fatalf("unfiltered: code %d, %d traces", code, len(tr.Traces))
	}
	if code, tr := get("?route=solve"); code != http.StatusOK || len(tr.Traces) != 2 {
		t.Fatalf("route=solve: code %d, %d traces", code, len(tr.Traces))
	}
	if code, tr := get("?route=mutate"); code != http.StatusOK || len(tr.Traces) != 0 {
		t.Fatalf("route=mutate: code %d, %d traces, want 0", code, len(tr.Traces))
	}
	if code, tr := get("?min_duration_ms=0.000001"); code != http.StatusOK || len(tr.Traces) != 2 {
		t.Fatalf("tiny min_duration: code %d, %d traces", code, len(tr.Traces))
	}
	if code, tr := get(fmt.Sprintf("?min_duration_ms=%d", int64(time.Hour/time.Millisecond))); code != http.StatusOK || len(tr.Traces) != 0 {
		t.Fatalf("huge min_duration: code %d, %d traces, want 0", code, len(tr.Traces))
	}
	if code, _ := get("?min_duration_ms=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad min_duration: code %d, want 400", code)
	}
	if code, _ := get("?min_duration_ms=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative min_duration: code %d, want 400", code)
	}
}

// TestCostBitNeutralThroughService asserts the acceptance bar end to end:
// the same solve answered by a server with the full flight recorder armed
// and by a bare server selects identical blockers.
func TestCostBitNeutralThroughService(t *testing.T) {
	_, plain := newTestServer(t, Config{TraceRing: -1})
	registerTestGraphs(t, plain)
	base := solveOnce(t, plain.URL)

	_, armed := newTestServer(t, Config{
		SLOSolve:     time.Nanosecond,
		DiagDir:      t.TempDir(),
		DiagCooldown: -1,
		TraceRing:    8,
	})
	registerTestGraphs(t, armed)
	got := solveOnce(t, armed.URL)

	if len(base.Blockers) == 0 {
		t.Fatal("baseline solve selected no blockers")
	}
	if fmt.Sprint(base.Blockers) != fmt.Sprint(got.Blockers) {
		t.Fatalf("blockers diverge with flight recorder armed: %v vs %v", base.Blockers, got.Blockers)
	}
}

// TestSolveCostsInstanceBuild checks that a cold solve charges its
// instance build (seed unification, candidate list, estimator scratch) to
// prepare — the prepare_ns cost field, a prepare span and the
// phase="prepare" histogram — while a repeat solve, which finds the
// instance cached, omits prepare_ns. Tracing leaves the blockers alone.
func TestSolveCostsInstanceBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: -1})
	registerTestGraphs(t, ts)
	req := SolveRequest{
		Seeds: []int{5, 9}, Budget: 3, Algorithm: "advanced-greedy",
		Theta: 300, Seed: 11, EvalRounds: -1, Trace: true,
	}
	var cold, warm SolveResponse
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &cold); code != http.StatusOK {
		t.Fatalf("cold solve: status %d, body %s", code, body)
	}
	if cold.Cost == nil || cold.Cost.PrepareNS <= 0 {
		t.Fatalf("cold solve cost has no prepare_ns: %+v", cold.Cost)
	}
	var prepare *obs.SpanOut
	for _, sp := range cold.Trace.Root.Children {
		if sp.Name == "prepare" {
			prepare = sp
		}
	}
	if prepare == nil || len(prepare.Attrs) != 1 || prepare.Attrs[0] != (obs.Attr{Key: "built", Value: true}) {
		t.Fatalf("cold trace prepare span = %+v", prepare)
	}

	req.Trace = false
	code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &warm)
	if code != http.StatusOK {
		t.Fatalf("warm solve: status %d, body %s", code, body)
	}
	if strings.Contains(body, "prepare_ns") {
		t.Fatalf("warm solve reports prepare_ns: %s", body)
	}
	if fmt.Sprint(cold.Blockers) != fmt.Sprint(warm.Blockers) {
		t.Fatalf("traced cold blockers %v != untraced warm %v", cold.Blockers, warm.Blockers)
	}

	_, vals := scrapeMetrics(t, ts.URL)
	if n := vals[`imind_solve_cost_seconds_count{phase="prepare"}`]; n != 1 {
		t.Fatalf("prepare cost histogram count = %v, want 1", n)
	}
}

// TestRejectedSolveBuildsNoInstance checks that a request the service
// rejects after acquiring the graph session — here shed while queued for a
// solve slot — leaves the session's instance cache alone: the next valid
// solve with the same seeds still pays the build.
func TestRejectedSolveBuildsNoInstance(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 30 * time.Millisecond})
	registerTestGraphs(t, ts)
	req := SolveRequest{
		Seeds: []int{5, 9}, Budget: 3, Algorithm: "advanced-greedy",
		Theta: 300, Seed: 11, EvalRounds: -1,
	}
	srv.sem <- struct{}{} // occupy the only solve slot
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, nil); code != http.StatusTooManyRequests {
		t.Fatalf("solve with the pool full: status %d, body %s", code, body)
	}
	<-srv.sem
	var resp SolveResponse
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &resp); code != http.StatusOK {
		t.Fatalf("valid solve: status %d, body %s", code, body)
	}
	if resp.Cost == nil || resp.Cost.PrepareNS <= 0 {
		t.Fatalf("rejected request built the instance: cost %+v", resp.Cost)
	}
}
