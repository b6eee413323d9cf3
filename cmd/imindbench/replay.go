package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/imin-dev/imin/internal/core"
	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/dynamic"
	"github.com/imin-dev/imin/internal/faultfs"
	"github.com/imin-dev/imin/internal/graph"
	"github.com/imin-dev/imin/internal/service"
	"github.com/imin-dev/imin/internal/store"
)

// Daemon defaults the replay mirrors (cmd/imind flags and service.Config).
const (
	defaultTheta      = 10000
	defaultMCSRounds  = 10000
	defaultEvalRounds = 2000
	maxSessions       = 8
)

// timedFS is the store's filesystem with fsyncs timed.
type timedFS struct {
	faultfs.FS
	syncNS atomic.Int64
}

func (t *timedFS) Create(name string) (faultfs.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

type timedFile struct {
	faultfs.File
	fs *timedFS
}

func (f *timedFile) Sync() error {
	start := time.Now()
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.syncNS.Add(int64(time.Since(start)))
	return nil
}

// counters are the replay's work counts, read at phase boundaries.
type counters struct {
	rounds, samplesDirty, evalCalls int64
	changedSources                  int64
	redrawn, kept                   int64
	walBytes, fsyncs, fsyncNS       int64
}

// replay calls the layers' public functions in the order the daemon's
// handlers do, in process, with a span around each call when spans are
// on. Its sessions, dynamic graph and store are configured like the
// daemon's defaults, so each op runs the same code on the same state.
type replay struct {
	spans    bool
	fs       *timedFS
	st       *store.Store
	gs       *store.GraphStore
	dyn      *dynamic.Graph
	sessions *service.SessionCache
	commitMu sync.Mutex // Commit+Append pairs, like service.GraphEntry

	mu     sync.Mutex
	c      counters
	traces []*opTrace
}

// openReplay registers the graph file the way POST /graphs does: load,
// durable snapshot, dynamic overlay. The returned trace covers both calls.
func openReplay(stateDir, graphPath string, spans bool) (*replay, *opTrace, error) {
	r := &replay{spans: spans, fs: &timedFS{FS: faultfs.OS}}
	t := &opTrace{id: -1000, setup: true, on: spans}
	root := t.begin("op.register", -1)
	sp := t.begin("graph.load", root)
	g, err := graph.ReadBinaryFile(graphPath)
	t.end(sp)
	if err != nil {
		return nil, nil, err
	}
	r.st, err = store.Open(stateDir, store.Config{FS: r.fs})
	if err != nil {
		return nil, nil, err
	}
	sp = t.begin("store.create", root)
	r.gs, err = r.st.Create(graphName, g, 0, "file graph.bin", "keep")
	t.end(sp)
	if err != nil {
		return nil, nil, errors.Join(err, r.st.Close())
	}
	r.dyn = dynamic.New(g, dynamic.Config{})
	r.sessions = service.NewSessionCache(maxSessions, 0, 0)
	t.end(root)
	return r, t, nil
}

func (r *replay) close() error { return r.st.Close() }

func (r *replay) add(f func(c *counters)) {
	r.mu.Lock()
	f(&r.c)
	r.mu.Unlock()
}

// minus returns the counts accumulated since o.
func (c counters) minus(o counters) counters {
	return counters{
		rounds: c.rounds - o.rounds, samplesDirty: c.samplesDirty - o.samplesDirty,
		evalCalls: c.evalCalls - o.evalCalls, changedSources: c.changedSources - o.changedSources,
		redrawn: c.redrawn - o.redrawn, kept: c.kept - o.kept,
		walBytes: c.walBytes - o.walBytes, fsyncs: c.fsyncs - o.fsyncs, fsyncNS: c.fsyncNS - o.fsyncNS,
	}
}

func (r *replay) counters() counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.c
	st := r.st.Stats()
	c.walBytes, c.fsyncs = st.WALBytes, st.WALFsyncs
	c.fsyncNS = r.fs.syncNS.Load()
	return c
}

// exec is the in-process executor.
func (r *replay) exec(ctx context.Context, o op, res *result) {
	t := &opTrace{id: o.id, kind: o.kind, setup: o.id < 0, on: r.spans}
	root := t.begin("op."+o.kind.String(), -1)
	if o.kind == kindMutate {
		r.mutate(ctx, t, root, o, res)
	} else {
		r.solve(ctx, t, root, o, res)
	}
	t.end(root)
	if t.on {
		r.mu.Lock()
		r.traces = append(r.traces, t)
		r.mu.Unlock()
	}
}

// solve mirrors service.Server.solveOne.
func (r *replay) solve(ctx context.Context, t *opTrace, root int, o op, res *result) {
	sp := t.begin("service.codec", root)
	var req service.SolveRequest
	err := json.Unmarshal(o.body, &req)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
		return
	}
	alg := core.GreedyReplace
	if req.Algorithm != "" {
		alg = core.Algorithm(req.Algorithm)
	}
	diffusion := core.DiffusionIC
	if req.Model == "LT" {
		diffusion = core.DiffusionLT
	}

	sp = t.begin("dynamic.snapshot", root)
	g, epoch := r.dyn.Snapshot()
	t.end(sp)
	seeds := make([]graph.V, len(req.Seeds))
	for i, s := range req.Seeds {
		if s < 0 || s >= g.N() {
			res.err = fmt.Sprintf("seed %d out of range", s)
			return
		}
		seeds[i] = graph.V(s)
	}
	sp = t.begin("service.session_cache", root)
	sess, hit := r.sessions.Acquire(service.SessionKey{Graph: graphName, Diffusion: diffusion}, g, epoch)
	t.end(sp)
	sp = t.begin("service.session_wait", root)
	lh, err := sess.Acquire(ctx)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
		return
	}
	locked := true
	defer func() {
		if locked {
			lh.Release()
		}
	}()
	if lh.Epoch() != epoch {
		r.migrate(t, root, lh)
	}
	res.epoch = lh.Epoch()

	opt := solveOptions(&req)
	// A one-round evaluation builds the seed set's instance (seed
	// unification, candidate list) when the session lacks it, so instance
	// builds get their own span instead of hiding in the first call that
	// needs them. It changes no state a later call depends on.
	sp = t.begin("core.prepare", root)
	_, err = lh.EvaluateSpread(seeds, nil, 1, opt)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
		return
	}
	evalRounds := req.EvalRounds
	if evalRounds == 0 {
		evalRounds = defaultEvalRounds
	}
	var before, after float64
	if evalRounds > 0 {
		sp = t.begin("core.eval", root)
		before, err = lh.EvaluateSpread(seeds, nil, evalRounds, opt)
		t.end(sp)
		r.add(func(c *counters) { c.evalCalls++ })
		if err != nil {
			res.err = err.Error()
			return
		}
	}

	solveSp := t.begin("core.solve", root)
	if t.on {
		opt.OnRound = func(ri core.RoundInfo) {
			t.closed("core.round", solveSp, ri.Duration)
			r.add(func(c *counters) { c.rounds++; c.samplesDirty += ri.SamplesDirty })
		}
	}
	_, builds0, _ := sess.PoolStats()
	sol, err := lh.Solve(ctx, seeds, req.Budget, alg, opt)
	t.end(solveSp)
	if _, builds1, _ := sess.PoolStats(); builds1 != builds0 && solveSp >= 0 {
		// This call drew its sample pool: its self time is the pool build.
		t.spans[solveSp].name = "core.pool_build"
	}
	if err != nil {
		res.err = err.Error()
		return
	}
	if evalRounds > 0 && !sol.Canceled {
		sp = t.begin("core.eval", root)
		after, err = lh.EvaluateSpread(seeds, sol.Blockers, evalRounds, opt)
		t.end(sp)
		r.add(func(c *counters) { c.evalCalls++ })
		if err != nil {
			res.err = err.Error()
			return
		}
	}
	lh.Release()
	locked = false

	res.blockers = make([]int, len(sol.Blockers))
	for i, b := range sol.Blockers {
		res.blockers[i] = int(b)
	}
	sp = t.begin("service.codec", root)
	resp := service.SolveResponse{
		Graph: graphName, Algorithm: string(alg), Model: req.Model, Seeds: req.Seeds,
		Blockers: res.blockers, Theta: opt.Theta, MCSRounds: opt.MCSRounds,
		SampledGraphs: sol.SampledGraphs, SolveMS: float64(sol.Runtime) / 1e6,
		SessionCacheHit: hit, Cost: &diag.SolveCost{SolveNS: sol.Runtime.Nanoseconds()},
	}
	if evalRounds > 0 {
		resp.SpreadBefore, resp.SpreadAfter = &before, &after
	}
	_, err = json.Marshal(resp)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
	}
}

// mutate mirrors service.Server.handleMutate: decode, encode the WAL
// batch, commit, append, then migrate every warm session of the graph.
func (r *replay) mutate(ctx context.Context, t *opTrace, root int, o op, res *result) {
	sp := t.begin("service.codec", root)
	muts, err := decodeMutations(o.body)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
		return
	}
	sp = t.begin("dynamic.encode", root)
	batch, err := dynamic.EncodeBatch(nil, muts)
	t.end(sp)
	if err != nil {
		res.err = err.Error()
		return
	}
	r.commitMu.Lock()
	sp = t.begin("dynamic.commit", root)
	info, err := r.dyn.Commit(muts)
	t.end(sp)
	if err == nil {
		sp = t.begin("store.append", root)
		err = r.gs.Append(ctx, info.Epoch, batch)
		t.end(sp)
	}
	r.commitMu.Unlock()
	if err != nil {
		res.err = err.Error()
		return
	}
	res.epoch = info.Epoch
	if info.Epoch != o.mutSeq {
		res.err = fmt.Sprintf("mutate committed at epoch %d, want %d", info.Epoch, o.mutSeq)
	}
	r.add(func(c *counters) { c.changedSources += int64(len(info.ChangedSources)) })

	for _, d := range []core.Diffusion{core.DiffusionIC, core.DiffusionLT} {
		sp = t.begin("service.session_cache", root)
		sess, ok := r.sessions.Lookup(service.SessionKey{Graph: graphName, Diffusion: d})
		t.end(sp)
		if !ok {
			continue
		}
		sp = t.begin("service.session_wait", root)
		lh, err := sess.Acquire(ctx)
		t.end(sp)
		if err != nil {
			res.err = err.Error()
			return
		}
		r.migrate(t, root, lh)
		lh.Release()
	}

	sp = t.begin("service.codec", root)
	_, err = json.Marshal(service.MutateResponse{
		Graph: graphName, Epoch: info.Epoch, Applied: info.Applied,
		EdgesAdded: info.EdgesAdded, EdgesRemoved: info.EdgesRemoved, ProbsChanged: info.ProbsChanged,
		ChangedSources: len(info.ChangedSources), Vertices: info.N, Edges: info.M,
	})
	t.end(sp)
	if err != nil {
		res.err = err.Error()
	}
}

// migrate mirrors service.Server.migrateSession: move an acquired session
// to the current epoch, incrementally when the changelog reaches back.
func (r *replay) migrate(t *opTrace, parent int, lh *core.LockedSession) {
	sp := t.begin("dynamic.snapshot", parent)
	g, epoch := r.dyn.Snapshot()
	t.end(sp)
	if lh.Epoch() >= epoch {
		return
	}
	sp = t.begin("dynamic.changed_since", parent)
	sources, targets, ok := r.dyn.ChangedSince(lh.Epoch())
	t.end(sp)
	sp = t.begin("core.migrate", parent)
	if !ok {
		lh.Reset(g, epoch)
		t.end(sp)
		return
	}
	st := lh.Advance(g, epoch, sources, targets)
	t.end(sp)
	r.add(func(c *counters) { c.redrawn += st.SamplesRedrawn; c.kept += st.SamplesKept })
}

// decodeMutations reads an NDJSON mutation batch the way the mutate
// handler does.
func decodeMutations(body []byte) ([]dynamic.Mutation, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var muts []dynamic.Mutation
	for {
		var m dynamic.Mutation
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return muts, nil
			}
			return nil, fmt.Errorf("mutation %d: %w", len(muts), err)
		}
		muts = append(muts, m)
	}
}

// sessionStats sums the core counters of the replay's warm sessions. It
// takes each session's lock, so call it only between phases.
func (r *replay) sessionStats() (st core.SessionStats) {
	for _, d := range []core.Diffusion{core.DiffusionIC, core.DiffusionLT} {
		sess, ok := r.sessions.Lookup(service.SessionKey{Graph: graphName, Diffusion: d})
		if !ok {
			continue
		}
		s := sess.Stats()
		st.Solves += s.Solves
		st.Reuses += s.Reuses
		st.Rebuilds += s.Rebuilds
		st.PoolBuilds += s.PoolBuilds
		st.PoolReuses += s.PoolReuses
		st.PoolBytes += s.PoolBytes
		st.Advances += s.Advances
	}
	return st
}
