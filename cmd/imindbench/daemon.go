package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/imin-dev/imin/internal/service"
)

const graphName = "bench"

// buildDaemon compiles cmd/imind from the module the benchmark runs in.
func buildDaemon(out string) error {
	cmd := exec.Command("go", "build", "-o", out, "github.com/imin-dev/imin/cmd/imind")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building imind: %v\n%s", err, msg)
	}
	return nil
}

// daemon is one imind child process with every flag at its default except
// the listen address and the two directories.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	exited chan struct{}
	err    error // cmd.Wait result, valid once exited is closed
}

func startDaemon(bin, dataDir, stateDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-data-dir", stateDir)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        callers,
			MaxIdleConnsPerHost: callers,
			MaxConnsPerHost:     callers,
		}},
		log:    logf,
		exited: make(chan struct{}),
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// waitReady polls /readyz until the daemon answers 200.
func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	for {
		status, _, err := d.do(ctx, http.MethodGet, "/readyz", "", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("imind exited during start-up: %v", d.err)
		case <-ctx.Done():
			return fmt.Errorf("imind not ready after %v", limit)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// do sends one request and reads the whole answer.
func (d *daemon) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register loads the graph file through POST /graphs (durable snapshot
// included, since the daemon runs with -data-dir).
func (d *daemon) register(ctx context.Context, file string) error {
	body, err := json.Marshal(service.RegisterGraphRequest{Name: graphName, Path: file})
	if err != nil {
		return err
	}
	status, data, err := d.do(ctx, http.MethodPost, "/graphs", "application/json", body)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register: status %d: %s", status, bytes.TrimSpace(data))
	}
	return nil
}

// exec is the HTTP executor: it sends an op and validates the answer's
// shape. Blockers are compared with the references later.
func (d *daemon) exec(ctx context.Context, o op, res *result) {
	path, ctype := "/graphs/"+graphName+"/solve", "application/json"
	if o.kind == kindMutate {
		path, ctype = "/graphs/"+graphName+"/mutate", "application/x-ndjson"
	}
	status, data, err := d.do(ctx, http.MethodPost, path, ctype, o.body)
	switch {
	case err != nil:
		res.err = err.Error()
		return
	case status/100 != 2:
		res.err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(data))
		return
	}
	if o.kind == kindMutate {
		var mr service.MutateResponse
		if err := json.Unmarshal(data, &mr); err != nil {
			res.err = "malformed mutate answer: " + err.Error()
			return
		}
		res.epoch = mr.Epoch
		if mr.Epoch != o.mutSeq || mr.Applied != len(o.muts) {
			res.err = fmt.Sprintf("mutate acked epoch %d with %d applied, want epoch %d with %d", mr.Epoch, mr.Applied, o.mutSeq, len(o.muts))
		}
		return
	}
	var sr service.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		res.err = "malformed solve answer: " + err.Error()
		return
	}
	res.blockers = sr.Blockers
	if msg := validBlockers(o.solve, sr.Blockers); msg != "" {
		res.err = msg
	}
}

// validBlockers checks an answer's shape: at most budget distinct
// non-seed vertices.
func validBlockers(req *service.SolveRequest, blockers []int) string {
	if blockers == nil || len(blockers) > req.Budget {
		return fmt.Sprintf("solve answered %d blockers for budget %d", len(blockers), req.Budget)
	}
	seen := make(map[int]bool, len(blockers)+len(req.Seeds))
	for _, s := range req.Seeds {
		seen[s] = true
	}
	for _, b := range blockers {
		if seen[b] {
			return fmt.Sprintf("blocker %d repeats or is a seed", b)
		}
		seen[b] = true
	}
	return ""
}

// stop sends SIGTERM and waits for the daemon to exit, killing it after
// the grace period.
func (d *daemon) stop(grace time.Duration) error {
	d.client.CloseIdleConnections()
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("imind did not stop within %v", grace)
	}
}

// logTail returns the end of the daemon's log, for error reports.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's peak resident set size (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
