package export

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"slowcc/internal/obs"
)

// contentTypeProm is the text-exposition v0.0.4 content type.
const contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// Health is the /healthz document. Status is "ok" while no cell has
// degraded, "degraded" afterwards (HTTP 503): a sweep that lost cells
// needs operator attention even though it kept running — the same
// contract as slowccsim -fail-degraded, but live. A cell whose engines a
// run budget halted counts as degraded: it did not measure what it
// computes. -max-events bounds each engine's events; -deadline is the
// wall budget a cell's engines share, so a cell over it is one such
// halt.
type Health struct {
	Status  string         `json:"status"`
	UptimeS float64        `json:"uptime_s"`
	Sweep   ProgressCounts `json:"sweep"`
}

// Server mounts the live telemetry surface over a progress hub and the
// collector it forwards cell stats to:
//
//	/metrics        Prometheus text exposition (collector + sweep hub)
//	/healthz        JSON health, 503 once any cell degraded
//	/progress       SSE stream of per-cell sweep events ("event: sweep");
//	                ?replay=close dumps buffered events and closes (CI);
//	                503 while maxSubscribers streams are open
//	/debug/pprof/*  the standard profile handlers
//
// Start/Close serve it for the slowccsim -serve path.
type Server struct {
	p   *Progress
	mux *http.ServeMux
	hs  *http.Server
	ln  net.Listener
	t0  time.Time
}

// NewServer wires a server over p and its collector.
func NewServer(p *Progress) *Server {
	s := &Server{p: p, mux: http.NewServeMux(), t0: time.Now()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/progress", s.handleProgress)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Request limits: a client gets readHeaderTimeout to send its request
// line and headers, and a header block over maxHeaderBytes is refused
// with 431 before any handler runs. Each SSE event must reach the
// client within sseWriteTimeout, so a client that stops reading gives
// its /progress slot back.
const (
	readHeaderTimeout = 10 * time.Second
	maxHeaderBytes    = 16 << 10
	sseWriteTimeout   = 10 * time.Second
)

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	// Shutdown waits for handlers but never ends a live /progress stream;
	// cancelling base, every request's context, does.
	base, stop := context.WithCancel(context.Background())
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, MaxHeaderBytes: maxHeaderBytes,
		BaseContext: func(net.Listener) context.Context { return base }}
	s.hs.RegisterOnShutdown(stop)
	go s.hs.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close shuts the server down: live SSE streams end at once, and
// in-flight scrapes get a short grace period before their connections
// are closed.
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if err == context.DeadlineExceeded {
		err = s.hs.Close()
	}
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", contentTypeProm)
	if err := s.p.col.WriteMetrics(w); err != nil {
		return
	}
	s.p.WriteMetrics(w) //nolint:errcheck // client gone; nothing to do
}

// health builds the current Health document.
func (s *Server) health() Health {
	h := Health{Status: "ok", UptimeS: time.Since(s.t0).Seconds(), Sweep: s.p.Counts()}
	if h.Sweep.Degraded > 0 {
		h.Status = "degraded"
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h) //nolint:errcheck // best-effort body
}

// handleProgress streams sweep events as server-sent events: one
// "event: sweep" block per obs.SweepEvent with a JSON data payload,
// buffered history first, then live until the client disconnects. With
// ?replay=close the handler stops after the buffered history — the
// curl-friendly form the ci smoke uses.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	replay, ch, cancel, ok := s.p.Subscribe()
	if !ok {
		http.Error(w, "too many /progress streams", http.StatusServiceUnavailable)
		return
	}
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{}) //nolint:errcheck // a kept-alive connection's next request must not inherit it
	seq := 0
	emit := func(ev obs.SweepEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		seq++
		rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) //nolint:errcheck // unsupported: the write is unbounded
		_, err = fmt.Fprintf(w, "id: %d\nevent: sweep\ndata: %s\n\n", seq, data)
		return err == nil
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	if rc.Flush() != nil || r.URL.Query().Get("replay") == "close" {
		return
	}
	for {
		select {
		case ev := <-ch:
			if !emit(ev) || rc.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
