package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/graph"
)

// newTestServer returns the service and an httptest front end. SolveWorkers
// is pinned to 2 so responses are comparable with direct core.Solve calls
// (the estimator's sample split depends on the worker count).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SolveWorkers == 0 {
		cfg.SolveWorkers = 2
	}
	if cfg.DefaultEvalRounds == 0 {
		cfg.DefaultEvalRounds = 500
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

func registerTestGraphs(t *testing.T, ts *httptest.Server) {
	t.Helper()
	for _, req := range []RegisterGraphRequest{
		{Name: "g1", Generator: "preferential-attachment", N: 400, EdgesPerVertex: 4, Directed: true, Seed: 1},
		{Name: "g2", Generator: "erdos-renyi", N: 300, M: 1500, Directed: true, Seed: 2},
	} {
		if code, body := postJSON(t, ts.URL+"/graphs", req, nil); code != http.StatusCreated {
			t.Fatalf("register %s: status %d, body %s", req.Name, code, body)
		}
	}
}

func TestRegisterAndList(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	resp, err := http.Get(ts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Name != "g1" || list[1].Name != "g2" {
		t.Fatalf("list = %+v, want g1, g2", list)
	}
	if list[0].Vertices != 400 || list[0].Edges == 0 {
		t.Errorf("g1 info = %+v", list[0])
	}
	if srv.Registry().Len() != 2 {
		t.Errorf("registry len = %d", srv.Registry().Len())
	}

	// Names are single-use: re-registering must conflict, not replace.
	code, _ := postJSON(t, ts.URL+"/graphs",
		RegisterGraphRequest{Name: "g1", Generator: "erdos-renyi", N: 10, M: 20}, nil)
	if code != http.StatusConflict {
		t.Errorf("duplicate register: status %d, want 409", code)
	}

	// Unknown graph solves 404.
	code, _ = postJSON(t, ts.URL+"/graphs/nope/solve", SolveRequest{Budget: 1}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d, want 404", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// The heart of the acceptance criteria: parallel solves on the same and on
// different graphs must return exactly what a direct core.Solve on the
// registered graph returns.
func TestConcurrentSolvesMatchDirect(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 4})
	registerTestGraphs(t, ts)

	type testCase struct {
		graph string
		req   SolveRequest
	}
	cases := []testCase{
		{"g1", SolveRequest{Seeds: []int{1, 7}, Budget: 5, Algorithm: "advanced-greedy", Theta: 200, Seed: 42, EvalRounds: -1}},
		{"g1", SolveRequest{Seeds: []int{1, 7}, Budget: 5, Algorithm: "greedy-replace", Theta: 200, Seed: 42, EvalRounds: -1}},
		{"g2", SolveRequest{Seeds: []int{3}, Budget: 4, Algorithm: "advanced-greedy", Theta: 150, Seed: 9, EvalRounds: -1}},
		{"g2", SolveRequest{Seeds: []int{3}, Budget: 4, Algorithm: "outdegree", Theta: 150, Seed: 9, EvalRounds: -1}},
	}

	// Direct reference answers on the very graphs the server registered.
	want := make([][]int, len(cases))
	for i, tc := range cases {
		entry, ok := srv.Registry().Get(tc.graph)
		if !ok {
			t.Fatalf("graph %s not registered", tc.graph)
		}
		seeds := make([]graph.V, len(tc.req.Seeds))
		for j, s := range tc.req.Seeds {
			seeds[j] = graph.V(s)
		}
		entryG, _ := entry.Current()
		res, err := core.Solve(entryG, seeds, tc.req.Budget, core.Algorithm(tc.req.Algorithm),
			core.Options{Theta: tc.req.Theta, Seed: tc.req.Seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = verticesToInts(res.Blockers)
	}

	// Fire every case several times in parallel: same-graph requests race
	// on one session, different graphs on different sessions.
	const repeats = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*repeats)
	for rep := 0; rep < repeats; rep++ {
		for i, tc := range cases {
			wg.Add(1)
			go func(i int, tc testCase) {
				defer wg.Done()
				var resp SolveResponse
				code, body := postJSON(t, fmt.Sprintf("%s/graphs/%s/solve", ts.URL, tc.graph), tc.req, &resp)
				if code != http.StatusOK {
					errs <- fmt.Errorf("case %d: status %d body %s", i, code, body)
					return
				}
				if !reflect.DeepEqual(resp.Blockers, want[i]) {
					errs <- fmt.Errorf("case %d: blockers %v, want %v", i, resp.Blockers, want[i])
				}
			}(i, tc)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A second solve on the same (graph, model) must hit the warm session and
// skip setup, observable through the response flag and /stats.
func TestWarmSolveHitsSessionCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	req := SolveRequest{Seeds: []int{2, 5}, Budget: 3, Algorithm: "advanced-greedy", Theta: 150, Seed: 7}
	var first, second SolveResponse
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &first); code != http.StatusOK {
		t.Fatalf("first solve: %d %s", code, body)
	}
	if first.SessionCacheHit {
		t.Error("first solve reported a session cache hit")
	}
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &second); code != http.StatusOK {
		t.Fatalf("second solve: %d %s", code, body)
	}
	if !second.SessionCacheHit {
		t.Error("second solve did not hit the session cache")
	}
	if !reflect.DeepEqual(first.Blockers, second.Blockers) {
		t.Errorf("warm blockers %v != cold blockers %v", second.Blockers, first.Blockers)
	}
	if first.SpreadBefore == nil || first.SpreadAfter == nil {
		t.Fatal("spread report missing")
	}
	// Independent Monte-Carlo estimates: tolerate sampling noise.
	if *first.SpreadAfter > *first.SpreadBefore*1.1 {
		t.Errorf("blocking increased spread: %v -> %v", *first.SpreadBefore, *first.SpreadAfter)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions.Hits < 1 {
		t.Errorf("stats hits = %d, want >= 1", stats.Sessions.Hits)
	}
	if stats.Sessions.Misses != 1 {
		t.Errorf("stats misses = %d, want 1", stats.Sessions.Misses)
	}
	if stats.Graphs != 2 {
		t.Errorf("stats graphs = %d, want 2", stats.Graphs)
	}
}

// Canceling the request context mid-solve must stop the greedy loop early
// and report the partial result as canceled.
func TestSolveCanceledContext(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	// Sized so the full run takes seconds (399 rounds; 1.9 s at half this
	// θ on a 2-vCPU host); the cancel lands after the first round instead.
	req := SolveRequest{Seeds: []int{1}, Budget: 399, Algorithm: "advanced-greedy",
		Theta: 60000, Seed: 1, EvalRounds: -1}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		// Cancel once the server's round counter shows the first round.
		rounds := srv.metrics.rounds.With("select")
		for rounds.Value() == 0 {
			select {
			case <-served:
				return
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
	}()

	r := httptest.NewRequest(http.MethodPost, "/graphs/g1/solve", bytes.NewReader(buf)).WithContext(ctx)
	w := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(w, r)
	elapsed := time.Since(start)
	close(served)

	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp SolveResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Canceled {
		t.Fatalf("response not marked canceled after %v: %+v", elapsed, resp)
	}
	if len(resp.Blockers) >= req.Budget {
		t.Errorf("got full budget of %d blockers despite cancellation", len(resp.Blockers))
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// Requests for badly-formed problems must fail with 400s, not fall into the
// solver.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)
	for name, req := range map[string]SolveRequest{
		"negative budget":   {Budget: -1, Seeds: []int{1}},
		"bad algorithm":     {Budget: 1, Seeds: []int{1}, Algorithm: "quantum"},
		"bad model":         {Budget: 1, Seeds: []int{1}, Model: "SIR"},
		"seed out of range": {Budget: 1, Seeds: []int{100000}},
	} {
		if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", name, code, body)
		}
	}
	// Registration validation.
	for name, req := range map[string]RegisterGraphRequest{
		"no source":     {Name: "x1"},
		"two sources":   {Name: "x2", Dataset: "Facebook", Generator: "erdos-renyi", N: 10, M: 10},
		"bad dataset":   {Name: "x3", Dataset: "MySpace"},
		"bad generator": {Name: "x4", Generator: "multiverse", N: 10},
		"bad name":      {Name: "a b c", Generator: "erdos-renyi", N: 10, M: 10},
		"path disabled": {Name: "x5", Path: "edges.txt"},
	} {
		if code, body := postJSON(t, ts.URL+"/graphs", req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", name, code, body)
		}
	}
}

// The registry bounds both per-graph size and graph count, so no sequence
// of registrations can grow memory without limit.
func TestRegisterLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxGraphs: 2, MaxGraphSize: 10_000})
	code, body := postJSON(t, ts.URL+"/graphs",
		RegisterGraphRequest{Name: "big", Generator: "erdos-renyi", N: 100, M: 200_000}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized graph: status %d (body %s), want 400", code, body)
	}
	// The dataset path obeys the same size cap as the generators
	// (full Youtube is ~1.1M vertices, far over this test's 10k cap).
	code, body = postJSON(t, ts.URL+"/graphs",
		RegisterGraphRequest{Name: "yt", Dataset: "Youtube", Scale: 1}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("oversized dataset: status %d (body %s), want 400", code, body)
	}
	for i := 0; i < 2; i++ {
		req := RegisterGraphRequest{Name: fmt.Sprintf("g%d", i), Generator: "erdos-renyi", N: 20, M: 40}
		if code, body := postJSON(t, ts.URL+"/graphs", req, nil); code != http.StatusCreated {
			t.Fatalf("register %d: status %d body %s", i, code, body)
		}
	}
	code, body = postJSON(t, ts.URL+"/graphs",
		RegisterGraphRequest{Name: "overflow", Generator: "erdos-renyi", N: 20, M: 40}, nil)
	if code != http.StatusInsufficientStorage {
		t.Errorf("registry overflow: status %d (body %s), want 507", code, body)
	}
}

// LT solves run against their own session, keyed separately from IC.
func TestModelsGetSeparateSessions(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)
	req := SolveRequest{Seeds: []int{1}, Budget: 2, Algorithm: "advanced-greedy", Theta: 100, Seed: 3, EvalRounds: -1}
	var ic, lt SolveResponse
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &ic); code != http.StatusOK {
		t.Fatalf("IC solve: %d %s", code, body)
	}
	req.Model = "LT"
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &lt); code != http.StatusOK {
		t.Fatalf("LT solve: %d %s", code, body)
	}
	if lt.SessionCacheHit {
		t.Error("LT solve hit the IC session")
	}
	if !srv.Sessions().Contains(SessionKey{Graph: "g1", Diffusion: core.DiffusionLT}) {
		t.Error("no LT session cached")
	}
}

// A reuse_samples request must run the pooled path (exactly θ samples drawn
// regardless of budget), cache the pool in the warm session so the repeat
// draws zero samples, surface the pool footprint in /stats — and still
// return exactly the blockers a direct ReuseSamples core.Solve picks.
func TestReuseSamplesWarmPool(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)

	req := SolveRequest{
		Seeds: []int{2, 5}, Budget: 4, Algorithm: "advanced-greedy",
		Theta: 200, Seed: 9, ReuseSamples: true, EvalRounds: -1,
	}
	var first, second SolveResponse
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &first); code != http.StatusOK {
		t.Fatalf("first solve: %d %s", code, body)
	}
	if first.SampledGraphs != int64(req.Theta) {
		t.Errorf("first solve drew %d samples, want %d (one pool)", first.SampledGraphs, req.Theta)
	}
	if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, &second); code != http.StatusOK {
		t.Fatalf("second solve: %d %s", code, body)
	}
	if second.SampledGraphs != 0 {
		t.Errorf("warm solve drew %d samples, want 0 (cached pool)", second.SampledGraphs)
	}
	if !reflect.DeepEqual(first.Blockers, second.Blockers) {
		t.Errorf("warm blockers %v != cold blockers %v", second.Blockers, first.Blockers)
	}

	entry, _ := srv.Registry().Get("g1")
	entryG, _ := entry.Current()
	direct, err := core.Solve(entryG, []graph.V{2, 5}, 4, core.AdvancedGreedy,
		core.Options{Theta: 200, Seed: 9, Workers: 2, ReuseSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(direct.Blockers))
	for i, v := range direct.Blockers {
		want[i] = int(v)
	}
	if !reflect.DeepEqual(first.Blockers, want) {
		t.Errorf("service blockers %v != direct core.Solve %v", first.Blockers, want)
	}

	st := srv.Sessions().Stats()
	if st.PoolBuilds != 1 || st.PoolReuses != 1 {
		t.Errorf("pool builds/reuses = %d/%d, want 1/1", st.PoolBuilds, st.PoolReuses)
	}
	if st.PoolBytes <= 0 {
		t.Errorf("pool bytes = %d, want > 0", st.PoolBytes)
	}
}

// A solve that lists a seed twice answers exactly like the request with the
// repeat removed: same blockers, same before/after spreads.
func TestSolveRepeatedSeedMatchesDistinct(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerTestGraphs(t, ts)
	var rep, dist SolveResponse
	for _, c := range []struct {
		seeds []int
		out   *SolveResponse
	}{{[]int{5, 5, 9, 5}, &rep}, {[]int{5, 9}, &dist}} {
		req := SolveRequest{Seeds: c.seeds, Budget: 3, Algorithm: "greedy-replace", Theta: 300, Seed: 11, EvalRounds: 500}
		if code, body := postJSON(t, ts.URL+"/graphs/g1/solve", req, c.out); code != http.StatusOK {
			t.Fatalf("seeds %v: status %d, body %s", c.seeds, code, body)
		}
	}
	if len(dist.Blockers) == 0 || !reflect.DeepEqual(rep.Blockers, dist.Blockers) {
		t.Fatalf("blockers %v for repeated seeds, %v for distinct", rep.Blockers, dist.Blockers)
	}
	if *rep.SpreadBefore != *dist.SpreadBefore || *rep.SpreadAfter != *dist.SpreadAfter {
		t.Fatalf("spreads (%v, %v) for repeated seeds, (%v, %v) for distinct",
			*rep.SpreadBefore, *rep.SpreadAfter, *dist.SpreadBefore, *dist.SpreadAfter)
	}
}
