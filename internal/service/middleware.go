package service

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/imin-dev/imin/internal/store"
)

// ctxKeyRequestID carries the request ID through handler contexts.
type ctxKeyRequestID struct{}

// reqIDPrefix is a per-process random prefix for generated request IDs, so
// IDs stay unique across restarts without consulting the clock (the detrand
// rule bans time-as-entropy in this package; crypto/rand is fine).
var reqIDPrefix = func() string {
	var b [6]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "imind0"
	}
	return hex.EncodeToString(b[:])
}()

var reqIDCounter atomic.Uint64

// maxRequestIDLen caps accepted client IDs: they are echoed into logs and
// response headers, so an unbounded one is a log-injection lever.
const maxRequestIDLen = 64

// RequestID returns the request ID the middleware assigned to ctx, or ""
// outside a request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// ensureRequestID returns the client's X-Request-Id when present and sane,
// otherwise a generated "<process-prefix>-<seq>" ID. The bool reports
// whether the ID was generated.
func (s *Server) ensureRequestID(r *http.Request) (string, bool) {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= maxRequestIDLen && printable(id) {
		return id, false
	}
	return fmt.Sprintf("%s-%06d", reqIDPrefix, reqIDCounter.Add(1)), true
}

func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return false
		}
	}
	return true
}

// statusWriter captures the response code for logs and metrics. It forwards
// Flush so the NDJSON streaming endpoints keep flushing per line.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withObs is the outermost middleware: it assigns the request ID, echoes it
// in the X-Request-Id response header, recovers handler panics into 500s,
// and emits one structured log line plus the HTTP metrics per request.
// http.ErrAbortHandler is re-raised — it is the sanctioned way to abort a
// response mid-stream and net/http handles it quietly.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id, generated := s.ensureRequestID(r)
		if generated {
			s.metrics.requestIDs.Inc()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		// The store has its own context key so it can tag WAL/checkpoint
		// log lines without importing the service package.
		ctx := context.WithValue(r.Context(), ctxKeyRequestID{}, id)
		r = r.WithContext(store.WithRequestID(ctx, id))

		defer func() {
			rec := recover()
			if rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.notePanic(rec, "request_id", id, "method", r.Method, "path", r.URL.Path)
				// If the handler already started the response this only
				// logs; the client sees a truncated body, which is all that
				// is left.
				writeJSON(sw, http.StatusInternalServerError, ErrorResponse{
					Error:     fmt.Sprintf("internal server error serving %s %s", r.Method, r.URL.Path),
					RequestID: id,
				})
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			route := r.Pattern
			if route == "" {
				route = "unmatched"
			}
			elapsed := time.Since(start)
			s.metrics.httpRequests.With(route, r.Method, strconv.Itoa(status)).Inc()
			s.metrics.httpSeconds.With(route).Observe(elapsed.Seconds())
			s.logger.LogAttrs(r.Context(), requestLogLevel(status), "request",
				slog.String("request_id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Duration("duration", elapsed))
		}()
		next.ServeHTTP(sw, r)
	})
}

// notePanic counts a recovered panic in imind_panics_total and logs it with
// the panicking goroutine's stack; attrs say what was being served. Call it
// from the deferred recover, so the stack still shows the panic site.
func (s *Server) notePanic(rec any, attrs ...any) {
	s.metrics.panics.Inc()
	s.logger.Error("panic serving request",
		append(attrs, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))...)
}

// requestLogLevel grades the access-log line: server faults are errors,
// client faults warnings, everything else debug (so high-QPS serving does
// not drown operational lines at the default Info level).
func requestLogLevel(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelDebug
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.reg.Handler().ServeHTTP(w, r)
}

// handleTraces serves the bounded in-memory ring of recent solve traces,
// newest first. Two query filters narrow the view: ?min_duration_ms= keeps
// only traces whose root span took at least that long, and ?route= keeps
// only traces for one operation (e.g. solve).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.traces.Enabled() {
		writeErr(w, http.StatusNotFound, "tracing disabled: start the server with a positive trace ring capacity")
		return
	}
	var minDur time.Duration
	if raw := r.URL.Query().Get("min_duration_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, "invalid min_duration_ms %q: want a non-negative number", raw)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	route := r.URL.Query().Get("route")

	traces := s.traces.Snapshot()
	if minDur > 0 || route != "" {
		kept := traces[:0]
		for _, t := range traces {
			if route != "" && t.Op != route {
				continue
			}
			if minDur > 0 && (t.Root == nil || time.Duration(t.Root.DurationUS)*time.Microsecond < minDur) {
				continue
			}
			kept = append(kept, t)
		}
		traces = kept
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: traces})
}
