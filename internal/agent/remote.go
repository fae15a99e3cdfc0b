package agent

import (
	"fmt"
	"net"
	"sync"
	"time"

	"stac/internal/channel"
	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/sral"
)

// RemoteRuntime executes an agent's SRAL program against coalition
// servers over the TCP transport: the runtime stays on the device (the
// physical-mobility reading of Section 2 — the device connects to
// different data servers at different times), migration is re-dialling
// the next server, and the execution proofs ride along in the agent's
// store, imported into every new connection.
//
// It runs the same interpreter as the in-process Launch; only the
// placement differs. Each branch holds its own connection, and before
// every access the connection imports the proofs added to the agent's
// store since its last sync — including those issued to sibling
// branches after it dialled — so parallel clones decide one at a time
// on one history, with the same verdicts as in-process.
//
// The runtime assumes the coalition network is unreliable: dials and
// accesses that fail with transport errors (resets, timeouts, dropped
// connections) are retried with jittered exponential backoff, and a
// retried access carries an idempotency key so the server returns its
// original verdict instead of consuming a validity budget twice. The
// proof history lives in the agent's store, so a connection lost
// mid-hop never loses proofs: the replacement connection re-imports
// the full history before re-authenticating. Application-level
// verdicts — denials, authentication failures — are never retried.
//
// Channel and signal operations synchronise execution branches of the
// SAME device through the runtime's local hub; cross-device teamwork
// over the network uses the in-process coalition emulation instead.
type RemoteRuntime struct {
	// Addrs resolves coalition server IDs to TCP addresses.
	Addrs map[model.ServerID]string
	// Hub carries the device-local channels and signals; created on
	// first use when nil.
	Hub *channel.Hub

	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each request/response round trip (default
	// 10s).
	IOTimeout time.Duration
	// Retries is the number of retry attempts per step after a
	// transient transport failure. Zero means DefaultRetries;
	// negative disables retrying.
	Retries int
	// Backoff is the base delay before the first retry; it doubles
	// per attempt with ±50% deterministic jitter and is capped at
	// 100× the base (default 5ms).
	Backoff time.Duration
	// Seed drives the backoff jitter (default 1), keeping retry
	// schedules reproducible.
	Seed int64
	// Dial overrides the transport (e.g. to inject faults); nil uses
	// TCP.
	Dial func(addr string) (net.Conn, error)
	// Obs selects the metrics registry the runtime reports retries,
	// backoff sleeps and hop latency into; nil means obs.Default. Set
	// it before the first Launch.
	Obs *obs.Registry
	// Tracer mints one trace per Launch (the whole itinerary) and
	// records the runtime's hop and access spans; nil means
	// obs.DefaultTracer. The trace context propagates to every daemon
	// the itinerary touches, so one trace ID spans all hops.
	Tracer *obs.Tracer

	once    sync.Once
	polOnce sync.Once
	pol     *Backoff

	// hlcOnce guards the runtime's hybrid logical clock: one clock per
	// runtime, shared by every dialled connection across every branch,
	// so the agent's causal history is a single chain no matter how the
	// itinerary forks or reconnects.
	hlcOnce sync.Once
	hlcClk  *hlc.Clock

	metOnce sync.Once
	met     *rtMetrics
}

// rtMetrics holds the runtime's resolved metric handles.
type rtMetrics struct {
	dialRetries   *obs.Counter
	accessRetries *obs.Counter
	backoff       *obs.Histogram
	hop           *obs.Histogram
}

// hopBuckets span a LAN round trip up to backoff-laden recoveries.
var hopBuckets = []float64{
	100e-6, 500e-6, 1e-3, 5e-3, 25e-3, 100e-3, 500e-3, 2.5, 10,
}

func (rt *RemoteRuntime) metrics() *rtMetrics {
	rt.metOnce.Do(func() {
		r := rt.Obs
		if r == nil {
			r = obs.Default
		}
		rt.met = &rtMetrics{
			dialRetries: r.Counter("stac_agent_retries_total",
				obs.Label("phase", "dial"),
				"Transient-failure retries by the remote agent runtime, by phase."),
			accessRetries: r.Counter("stac_agent_retries_total",
				obs.Label("phase", "access"),
				"Transient-failure retries by the remote agent runtime, by phase."),
			backoff: r.Histogram("stac_agent_backoff_seconds", "",
				"Time the runtime slept in retry backoff.", hopBuckets),
			hop: r.Histogram("stac_agent_hop_seconds", "",
				"Migration (dial + history import + auth) latency per completed hop.", hopBuckets),
		}
	})
	return rt.met
}

// DefaultRetries is the per-step transient-failure retry budget when
// RemoteRuntime.Retries is zero.
const DefaultRetries = 3

func (rt *RemoteRuntime) tracer() *obs.Tracer {
	if rt.Tracer != nil {
		return rt.Tracer
	}
	return obs.DefaultTracer
}

func (rt *RemoteRuntime) hub() *channel.Hub {
	rt.once.Do(func() {
		if rt.Hub == nil {
			rt.Hub = channel.NewHub()
		}
	})
	return rt.Hub
}

func (rt *RemoteRuntime) retries() int {
	switch {
	case rt.Retries < 0:
		return 0
	case rt.Retries == 0:
		return DefaultRetries
	default:
		return rt.Retries
	}
}

func (rt *RemoteRuntime) clientConfig() server.ClientConfig {
	cfg := server.ClientConfig{
		DialTimeout: rt.DialTimeout,
		IOTimeout:   rt.IOTimeout,
		Dial:        rt.Dial,
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = 10 * time.Second
	}
	return cfg
}

// backoffDelay computes the jittered exponential backoff before retry
// attempt (1-based), delegating to the shared Backoff policy.
func (rt *RemoteRuntime) backoffDelay(attempt int) time.Duration {
	rt.polOnce.Do(func() {
		rt.pol = &Backoff{Base: rt.Backoff, Seed: rt.Seed}
	})
	return rt.pol.Delay(attempt)
}

// HLC returns the runtime's hybrid logical clock (created on first
// use, over the host wall clock). Every connection the runtime dials
// shares it: each request carries the clock's reading and each reply's
// stamp is folded back in, so decisions along the itinerary — across
// servers with skewed clocks — form one causal chain the coalition
// timeline can order.
func (rt *RemoteRuntime) HLC() *hlc.Clock {
	rt.hlcOnce.Do(func() {
		if rt.hlcClk == nil {
			rt.hlcClk = hlc.New(nil)
		}
	})
	return rt.hlcClk
}

// Launch runs the agent to completion over TCP. It is synchronous;
// errors carry the failing step. The agent's proof store accumulates
// every issued proof, exactly as with the in-process Launch. Each
// launch mints one trace — the itinerary — whose context propagates to
// every daemon the agent visits.
func (rt *RemoteRuntime) Launch(ag *Agent) error {
	return rt.LaunchTraced(rt.tracer().NewContext(), ag)
}

// LaunchTraced is Launch under a caller-minted trace context, so the
// caller knows the itinerary's trace ID up front (e.g. to fetch its
// span tree afterwards).
func (rt *RemoteRuntime) LaunchTraced(tc obs.TraceContext, ag *Agent) error {
	return launch(ag, rt.tracer(), tc, rt.hub(), func(tc obs.TraceContext) site {
		return &tcpSite{rt: rt, agent: ag, programText: sral.String(ag.Program), tc: tc}
	})
}

// tcpSite places a branch on a coalition daemon over TCP: arriving is
// dialling it, and the agent's store rides the connection as carried
// history. Each Par clone dials its own connection.
type tcpSite struct {
	rt          *RemoteRuntime
	agent       *Agent
	programText string
	// tc is the itinerary's trace context; the hop and access spans
	// parent on it.
	tc obs.TraceContext

	loc    model.ServerID
	client *server.Client
	// synced is how many of the agent's proofs the client carries. The
	// store is append-only, so a sync imports only the proofs added
	// since — by this branch's own grants or by its siblings'.
	synced int
}

func (s *tcpSite) fork() site {
	return &tcpSite{rt: s.rt, agent: s.agent, programText: s.programText, tc: s.tc}
}

// sync brings the client's carried history up to the agent's store.
func (s *tcpSite) sync() {
	ps := s.agent.Proofs.View()
	s.client.ImportProofs(ps[s.synced:])
	s.synced = len(ps)
}

// sleepBackoff waits out the retry backoff, aborting early if the
// agent is recalled.
func (s *tcpSite) sleepBackoff(attempt int) error {
	delay := s.rt.backoffDelay(attempt)
	s.rt.metrics().backoff.Observe(delay)
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-s.agent.abort:
		return fmt.Errorf("agent %s: %w", s.agent.ID, ErrAborted)
	}
}

// arrive dials the daemon hosting id and authenticates, retrying
// transient failures.
func (s *tcpSite) arrive(id model.ServerID) error {
	addr, ok := s.rt.Addrs[id]
	if !ok {
		return fmt.Errorf("agent %s: %w: %q has no address", s.agent.ID, model.ErrUnknownServer, id)
	}
	hopStart := time.Now()
	sp, _ := s.rt.tracer().StartSpan(s.tc, "hop")
	sp.SetService("agent")
	sp.SetAttr("server", string(id))
	var lastErr error
	for attempt := 0; attempt <= s.rt.retries(); attempt++ {
		if attempt > 0 {
			s.rt.metrics().dialRetries.Inc()
			if err := s.sleepBackoff(attempt); err != nil {
				sp.SetAttr("error", err.Error())
				sp.Finish()
				return err
			}
		}
		cl, err := server.DialConfig(addr, s.rt.clientConfig())
		if err != nil {
			lastErr = err
			continue
		}
		// The itinerary-wide HLC rides every connection: requests carry
		// its reading, replies advance it, so hop N+1's decisions are
		// causally after hop N's even across skewed daemons.
		cl.SetHLC(s.rt.HLC())
		// The carried history enters the new connection before
		// authentication, so the server sees the full cross-site
		// trace. A redial after a mid-migration reset re-imports it,
		// so no proof is ever lost to the network.
		ps := s.agent.Proofs.View()
		cl.ImportProofs(ps)
		if err := cl.Auth(s.agent.Credential); err != nil {
			cl.Close()
			if !server.IsTransient(err) {
				// The server decided: the credential is bad, the
				// object unknown. Retrying cannot change that.
				sp.SetAttr("error", err.Error())
				sp.Finish()
				return fmt.Errorf("agent %s: arrival at %s: %w", s.agent.ID, id, err)
			}
			lastErr = err
			continue
		}
		s.loc, s.client, s.synced = id, cl, len(ps)
		s.rt.metrics().hop.ObserveSince(hopStart)
		sp.SetAttr("attempts", fmt.Sprintf("%d", attempt+1))
		sp.Finish()
		return nil
	}
	err := fmt.Errorf("agent %s: migrate to %s: %w", s.agent.ID, id, lastErr)
	sp.SetAttr("error", err.Error())
	sp.Finish()
	return err
}

func (s *tcpSite) depart() {
	if s.client == nil {
		return
	}
	_ = s.client.Depart()
	s.client.Close()
	s.client = nil
}

// access performs one shared-resource access with transparent
// reconnect-and-retry on transport failures. The idempotency key is
// fixed before the first attempt, so a retry after a lost response
// returns the server's original verdict and proof.
func (s *tcpSite) access(x sral.Prim) ([]byte, proof.Proof, error) {
	id := server.NewRequestID()
	// One span covers the whole retry loop; the span's context rides
	// each wire request, so the daemon's spans parent under it even
	// across reconnects.
	sp, ctx := s.rt.tracer().StartSpan(s.tc, "access")
	sp.SetService("agent")
	sp.SetAttr("op", string(x.Op))
	sp.SetAttr("resource", string(x.Resource))
	sp.SetAttr("server", string(x.Server))
	// When unsampled, ctx is s.tc unchanged: the bare trace identity
	// still propagates, so audit records correlate without spans.
	s.sync()
	var data []byte
	var err error
	attempts := 1
	for attempt := 0; ; attempt++ {
		data, err = s.client.AccessTraced(ctx, id, x.Op, x.Resource, s.programText, nil)
		if err == nil || !server.IsTransient(err) || attempt >= s.rt.retries() {
			break
		}
		s.rt.metrics().accessRetries.Inc()
		if serr := s.sleepBackoff(attempt + 1); serr != nil {
			err = serr
			break
		}
		// The connection is suspect; re-arrive at the same server.
		// The server sees a genuine departure and arrival, exactly as
		// if the device had dropped off the network and returned.
		s.client.Close()
		s.client = nil
		if err = s.arrive(s.loc); err != nil {
			break
		}
		attempts++
	}
	var pr proof.Proof
	if err == nil {
		// The client appended the grant's proof to its carried history.
		ps := s.client.Proofs()
		pr = ps[len(ps)-1]
	}
	sp.SetAttr("attempts", fmt.Sprintf("%d", attempts))
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	return data, pr, err
}
