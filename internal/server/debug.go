package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"

	"stac/internal/obs"
)

// DebugServer bundles the daemon's observability surface: Prometheus
// metrics, pprof (the one source of raw profiles), the span ring,
// decision explanations, versioned fleet snapshots (which carry the
// temporal budgets, the per-clause evaluation profile and the
// engine's shard balance, SLO and exemplar state), health probes and
// the /debug/journal decision-log tail. Each is served once. The fleet
// poller (internal/obs/federate) and stacctl's
// top/watch/heat/slow/timeline verbs speak to these endpoints.
type DebugServer struct {
	c       *Coalition
	daemons []*Daemon
	tracer  *obs.Tracer
	cfg     DebugConfig

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// journal tracks /debug/journal tails and their metrics.
	journal *journalTelemetry
}

// DebugConfig tunes the observability surface.
type DebugConfig struct {
	// Registry backs /metrics (nil = obs.Default).
	Registry *obs.Registry
}

// NewDebugServer builds the observability surface for a coalition and
// its TCP daemons. tracer may be nil (the /debug/trace endpoint then
// reports tracing disabled).
func NewDebugServer(c *Coalition, daemons []*Daemon, tracer *obs.Tracer, cfg DebugConfig) *DebugServer {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	return &DebugServer{
		c:       c,
		daemons: daemons,
		tracer:  tracer,
		cfg:     cfg,
		quit:    make(chan struct{}),
		journal: newJournalTelemetry(cfg.Registry),
	}
}

// Mux returns the HTTP handler serving every observability endpoint.
func (h *DebugServer) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	metricsHandler := obs.Handler(h.cfg.Registry)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the stac_go_* runtime gauges and the derived perf
		// gauges (shard imbalance, SLO burn rate) on every scrape.
		obs.PublishRuntime(h.cfg.Registry)
		h.c.Engine.PublishPerf()
		metricsHandler.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", obs.TraceHandler(h.tracer.Store()))
	mux.HandleFunc("/debug/explain", h.handleExplain)
	mux.HandleFunc("/debug/snapshot", h.handleSnapshot)
	mux.HandleFunc("/healthz", h.handleHealthz)
	mux.HandleFunc("/readyz", h.handleReadyz)
	mux.HandleFunc("/debug/journal", h.handleJournal)
	return mux
}

// Drain releases every journal tail, then waits for them to exit.
// Call it BEFORE http.Server.Shutdown: Shutdown waits for in-flight
// handlers, and an SSE stream never finishes on its own.
func (h *DebugServer) Drain() {
	h.stopOnce.Do(func() { close(h.quit) })
	h.wg.Wait()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (h *DebugServer) handleExplain(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id parameter", http.StatusBadRequest)
		return
	}
	e, ok := h.c.Explain(id)
	if !ok {
		http.Error(w, "unknown decision id (window may have evicted it)", http.StatusNotFound)
		return
	}
	writeJSON(w, e)
}

func (h *DebugServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := h.c.Snapshot(h.daemons...)
	// The journal tails live on the DebugServer, not the coalition, so
	// their state is folded in here rather than in Coalition.Snapshot.
	st := h.JournalStats()
	snap.Journal = &st
	writeJSON(w, snap)
}

func (h *DebugServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, h.c.Liveness())
}

func (h *DebugServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	writeHealth(w, h.c.Readiness(h.daemons...))
}

func writeHealth(w http.ResponseWriter, health Health) {
	w.Header().Set("Content-Type", "application/json")
	if !health.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(health)
}
