package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/imin-dev/imin/internal/faultfs"
	"github.com/imin-dev/imin/internal/store"
)

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDegradedModeAndSelfHeal is the end-to-end degraded cycle: an injected
// WAL fsync failure turns a mutate into a 503 + Retry-After and flips the
// graph into degraded read-only mode — solves keep working, /readyz goes
// 503 — then, once the "device" recovers, the self-heal checkpoint restores
// writability without a restart and the full epoch history survives a real
// restart.
func TestDegradedModeAndSelfHeal(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil)
	st, err := store.Open(dir, store.Config{Fsync: store.FsyncAlways, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		Store:       st,
		HealBackoff: time.Millisecond,
	})

	reg := RegisterGraphRequest{Name: "g", Generator: "erdos-renyi", N: 120, M: 500, Directed: true, Seed: 5}
	if code, body := postJSON(t, ts.URL+"/graphs", reg, nil); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	entry, _ := srv.Registry().Get("g")
	g0, _ := entry.Current()
	mutLine := func(i int) string {
		e := g0.Edges()[i*7]
		return fmt.Sprintf("{\"op\":\"set-prob\",\"u\":%d,\"v\":%d,\"p\":0.42}\n", e.From, e.To)
	}
	if code, body := postNDJSON(t, ts.URL+"/graphs/g/mutate", mutLine(0), nil); code != http.StatusOK {
		t.Fatalf("healthy mutate: %d %s", code, body)
	}

	// The device starts failing every fsync — WAL appends and checkpoint
	// snapshots alike, so the self-heal loop cannot succeed (and end the
	// degraded window under the test's feet) until the rules clear. The
	// next mutate commits in memory, fails to persist, and must degrade
	// the graph.
	inj.SetRules(faultfs.Rule{Op: faultfs.OpSync})
	resp, err := http.Post(ts.URL+"/graphs/g/mutate", "application/x-ndjson", strings.NewReader(mutLine(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate during fsync failure: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degrading 503 without a Retry-After header")
	}

	// Degraded and read-only: further mutates bounce with 503 before any
	// in-memory commit...
	resp, err = http.Post(ts.URL+"/graphs/g/mutate", "application/x-ndjson", strings.NewReader(mutLine(2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mutate while degraded: %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// ...while solves keep serving from the in-memory epoch.
	solveReq := SolveRequest{Seeds: []int{2, 5}, Budget: 2, Theta: 200, Seed: 9, EvalRounds: -1}
	if code, body := postJSON(t, ts.URL+"/graphs/g/solve", solveReq, nil); code != http.StatusOK {
		t.Fatalf("solve while degraded: %d %s", code, body)
	}
	// The listing and the probes surface the state.
	var infos []GraphInfo
	if code, body := getJSONBody(t, ts.URL+"/graphs", &infos); code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	if len(infos) != 1 || !infos[0].Degraded || infos[0].DegradedReason == "" {
		t.Fatalf("listing while degraded: %+v", infos)
	}
	if code := probeCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: %d, want 503", code)
	}
	if code := probeCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while degraded: %d, want 200 (the process is alive)", code)
	}
	stats := getStats(t, ts.URL)
	if stats.Persist == nil || stats.Persist.DegradedEnters != 1 || len(stats.Persist.DegradedGraphs) != 1 {
		t.Fatalf("persist stats while degraded: %+v", stats.Persist)
	}

	// The device recovers; the self-heal loop's checkpoint must restore
	// writability (a fresh snapshot + WAL generation supersede the
	// poisoned log) without a restart.
	inj.ClearRules()
	deadline := time.Now().Add(5 * time.Second)
	for probeCode(t, ts.URL+"/readyz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("graph did not self-heal within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := postNDJSON(t, ts.URL+"/graphs/g/mutate", mutLine(3), nil); code != http.StatusOK {
		t.Fatalf("mutate after self-heal: %d %s", code, body)
	}
	stats = getStats(t, ts.URL)
	if stats.Persist.SelfHeals != 1 || len(stats.Persist.DegradedGraphs) != 0 {
		t.Fatalf("persist stats after heal: %+v", stats.Persist)
	}

	// Restart over the same directory: epoch 3 = healthy mutate + the
	// failed-but-committed mutate (carried by the heal checkpoint) + the
	// post-heal mutate.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Config{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Store: st2})
	defer srv2.Close()
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	entry2, ok := srv2.Registry().Get("g")
	if !ok {
		t.Fatal("graph lost across restart")
	}
	if _, epoch := entry2.Current(); epoch != 3 {
		t.Fatalf("recovered epoch %d, want 3", epoch)
	}
}

func probeCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getJSONBody(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal([]byte(raw.String()), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

// TestLoadSheddingSheds429 saturates the solve pool (the test holds the
// single slot) so an incoming solve exhausts MaxQueueWait in the admission
// queue: it must be shed with 429 + Retry-After and counted in /stats, and
// service must resume once the slot frees up.
func TestLoadSheddingSheds429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 30 * time.Millisecond})
	reg := RegisterGraphRequest{Name: "g", Generator: "erdos-renyi", N: 100, M: 400, Directed: true, Seed: 3}
	if code, body := postJSON(t, ts.URL+"/graphs", reg, nil); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	srv.sem <- struct{}{} // occupy the only solve slot
	solveReq := SolveRequest{Seeds: []int{1, 2}, Budget: 2, Theta: 100, Seed: 7, EvalRounds: -1}
	buf, _ := json.Marshal(solveReq)
	resp, err := http.Post(ts.URL+"/graphs/g/solve", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued solve with the pool full: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 429 without a Retry-After header")
	}
	if stats := getStats(t, ts.URL); stats.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", stats.Sheds)
	}

	<-srv.sem // the slot frees; service resumes
	if code, body := postJSON(t, ts.URL+"/graphs/g/solve", solveReq, nil); code != http.StatusOK {
		t.Fatalf("solve after the slot freed: %d %s", code, body)
	}
}

// TestPanicRecoveryMiddleware injects a panicking route behind the real
// middleware chain: the client gets a 500, the panic is counted, and the
// server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	if code := probeCode(t, ts.URL+"/boom"); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d, want 500", code)
	}
	if code := probeCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after a panic: %d", code)
	}
	if stats := getStats(t, ts.URL); stats.Panics != 1 {
		t.Fatalf("panics = %d, want 1", stats.Panics)
	}

	// The 500 body names the failed route and carries the request id, so a
	// client error report can be joined against the server's panic log line.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "panic-corr-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eresp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if eresp.RequestID != "panic-corr-7" {
		t.Errorf("500 body request_id = %q, want panic-corr-7", eresp.RequestID)
	}
	if !strings.Contains(eresp.Error, "GET /boom") {
		t.Errorf("500 body error %q does not name the failed route", eresp.Error)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "panic-corr-7" {
		t.Errorf("500 X-Request-Id header = %q", got)
	}
}

// TestPanicRecoverySolveBatch solves a batch against a registry entry with
// no dynamic graph, so every item panics inside solveOne on a batch worker
// goroutine, outside the middleware's recover. Every item line must carry
// an error naming the request id, the stream must end, each panic must be
// counted, and the daemon must keep serving.
func TestPanicRecoverySolveBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2})
	srv.registry.mu.Lock()
	srv.registry.entries["broken"] = &GraphEntry{Name: "broken"}
	srv.registry.mu.Unlock()

	const items = 3
	batch := BatchSolveRequest{Items: make([]SolveRequest, items)}
	for i := range batch.Items {
		batch.Items[i] = SolveRequest{Budget: 1, Theta: 10, Seed: uint64(i), EvalRounds: -1}
	}
	buf, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/graphs/broken/solve-batch", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "batch-panic-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve-batch status %d, want 200 (items report their own errors)", resp.StatusCode)
	}
	seen := map[int]bool{}
	dec := json.NewDecoder(resp.Body)
	for {
		var item BatchItemResult
		if err := dec.Decode(&item); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("item line %d: %v", len(seen), err)
		}
		if item.Result != nil || !strings.Contains(item.Error, "batch-panic-1") {
			t.Fatalf("item %d: result %v, error %q; want an error naming the request id", item.Index, item.Result, item.Error)
		}
		seen[item.Index] = true
	}
	if len(seen) != items {
		t.Fatalf("stream ended after items %v, want all %d", seen, items)
	}
	// /stats and /metrics read every entry's graph, so the broken one would
	// fail them; read imind_panics_total straight off its counter.
	if n := srv.metrics.panics.Int(); n != items {
		t.Fatalf("imind_panics_total = %d, want %d", n, items)
	}
	if code := probeCode(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after batch panics: %d", code)
	}
}

// TestReadyzWithoutStore: a store-less server is trivially ready.
func TestReadyzWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := probeCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", code)
	}
}
