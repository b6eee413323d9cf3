package service

import (
	"context"
	"errors"
	"net/http"
	"time"

	"github.com/imin-dev/imin/internal/diag"
	"github.com/imin-dev/imin/internal/obs"
)

// This file is the serving side of the flight recorder (internal/diag):
// per-route SLO watchdogs whose breaches capture diagnostic bundles, the
// cost-model histograms, and the GET /debug/bundles surface.

// noteSolveSLO is the solve-route watchdog, run from solveOne's exit path.
// A breach counts a metric, logs at warn with the request id, and hands the
// finished trace plus the ring to the flight recorder.
func (s *Server) noteSolveSLO(ctx context.Context, graphName string, elapsed time.Duration, trace *obs.TraceOut, aerr *apiError) {
	if s.cfg.SLOSolve <= 0 || elapsed <= s.cfg.SLOSolve {
		return
	}
	s.metrics.sloBreaches.With("solve").Inc()
	s.logger.Warn("solve latency objective breached",
		"graph", graphName, "request_id", RequestID(ctx),
		"elapsed", elapsed, "slo", s.cfg.SLOSolve)
	detail := ""
	if aerr != nil {
		detail = aerr.msg
	}
	s.captureBundle(diag.Trigger{
		Reason:    "slo_solve",
		Route:     "solve",
		Graph:     graphName,
		RequestID: RequestID(ctx),
		SLOMS:     float64(s.cfg.SLOSolve) / float64(time.Millisecond),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Detail:    detail,
	}, trace)
}

// noteMutateSLO is the mutate-route watchdog, covering the whole handler:
// decode, commit+WAL append, and the eager session migration.
func (s *Server) noteMutateSLO(ctx context.Context, graphName string, elapsed time.Duration) {
	if s.cfg.SLOMutate <= 0 || elapsed <= s.cfg.SLOMutate {
		return
	}
	s.metrics.sloBreaches.With("mutate").Inc()
	s.logger.Warn("mutate latency objective breached",
		"graph", graphName, "request_id", RequestID(ctx),
		"elapsed", elapsed, "slo", s.cfg.SLOMutate)
	s.captureBundle(diag.Trigger{
		Reason:    "slo_mutate",
		Route:     "mutate",
		Graph:     graphName,
		RequestID: RequestID(ctx),
		SLOMS:     float64(s.cfg.SLOMutate) / float64(time.Millisecond),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}, nil)
}

// captureBundle hands one diagnostic snapshot to the flight recorder off
// the request path (same bgWG discipline as background checkpoints, so
// Close never races a capture against shutdown). The ring is snapshotted
// synchronously — it must reflect the moment of the breach, not whatever
// the ring holds when the goroutine gets scheduled.
func (s *Server) captureBundle(trig diag.Trigger, trace *obs.TraceOut) {
	if s.diag == nil || s.closed.Load() {
		return
	}
	ring := s.traces.Snapshot()
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		id, err := s.diag.Capture(trig, trace, ring)
		switch {
		case err != nil:
			s.metrics.bundleErrors.Inc()
			s.logger.Error("diagnostic bundle capture failed",
				"reason", trig.Reason, "graph", trig.Graph,
				"request_id", trig.RequestID, "error", err.Error())
		case id == "":
			s.metrics.bundlesSkipped.Inc()
		default:
			s.metrics.bundles.Inc()
			s.logger.Info("diagnostic bundle captured",
				"bundle", id, "reason", trig.Reason, "graph", trig.Graph,
				"request_id", trig.RequestID)
		}
	}()
}

// observeCost lands one solve's cost block on the labeled histograms, so
// dashboards see the phase/sample distributions the JSON block reports
// per request.
func (s *Server) observeCost(c *diag.SolveCost) {
	m := s.metrics
	m.costSeconds.With("queue_session").Observe(float64(c.QueueSessionNS) / 1e9)
	m.costSeconds.With("queue_slot").Observe(float64(c.QueueSlotNS) / 1e9)
	m.costSeconds.With("solve").Observe(float64(c.SolveNS) / 1e9)
	if c.MigrateNS > 0 {
		m.costSeconds.With("migrate").Observe(float64(c.MigrateNS) / 1e9)
	}
	if c.PrepareNS > 0 {
		m.costSeconds.With("prepare").Observe(float64(c.PrepareNS) / 1e9)
	}
	if c.EvalNS > 0 {
		m.costSeconds.With("eval").Observe(float64(c.EvalNS) / 1e9)
	}
	m.costSamples.With("drawn").Observe(float64(c.SamplesDrawn))
	m.costSamples.With("dirty").Observe(float64(c.SamplesDirty))
	if c.SamplesStolen > 0 {
		m.costSamples.With("stolen").Observe(float64(c.SamplesStolen))
	}
	if c.SamplesRedrawn > 0 {
		m.costSamples.With("redrawn").Observe(float64(c.SamplesRedrawn))
	}
}

// handleBundles answers GET /debug/bundles with the recorder's retained
// bundles, newest first.
func (s *Server) handleBundles(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusNotFound, "flight recorder disabled: start the server with -diag-dir")
		return
	}
	infos, err := s.diag.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "listing bundles: %v", err)
		return
	}
	if infos == nil {
		infos = []diag.BundleInfo{}
	}
	writeJSON(w, http.StatusOK, BundlesResponse{Bundles: infos})
}

// handleBundle answers GET /debug/bundles/{id} with one bundle's JSON.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	if s.diag == nil {
		writeErr(w, http.StatusNotFound, "flight recorder disabled: start the server with -diag-dir")
		return
	}
	data, err := s.diag.Read(r.PathValue("id"))
	if errors.Is(err, diag.ErrNotFound) {
		writeErr(w, http.StatusNotFound, "unknown bundle %q", r.PathValue("id"))
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading bundle: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
