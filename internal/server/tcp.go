package server

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
)

// This file provides the network transport of the emulation: a
// coalition server exposed as a TCP daemon speaking a JSON-lines
// protocol. A mobile device (or a remote agent runtime) connects to
// one coalition server at a time — "mobile clients connect to
// different data servers at different times" — authenticates with its
// owner credential, performs shared-resource accesses, and carries
// away the execution proofs the server issues. Migration is the
// client disconnecting (departing) and authenticating at the next
// server of its itinerary.
//
// The proof history travels with the client, and the daemon keeps each
// session's verified copy of it resident, so every carried proof is
// shipped and HMAC-verified once per session rather than on every
// access. An access names its place in the history with a cursor:
// base, the number of proofs the daemon already holds, and head, the
// signature of the last of them; the proofs array then carries only
// the suffix. Base 0 (which is what a client that predates the cursor
// sends) is the complete history, and the daemon rebuilds the resident
// log from it. Every reply reports have, the resident length after the
// request, and the client's next base is the smaller of have and its
// own history length. A cursor that does not name the resident log
// exactly is answered with a "history cursor mismatch" error before
// anything is decided, the resident log is dropped, and the client
// resends its full history. A daemon that never reports have keeps its
// clients on full histories.
//
// The verified log also outlives the hop. A departing session (an
// explicit depart or a dropped connection) parks its log on the
// Coalition under its object, and the object's next auth, at any daemon
// of that Coalition, takes it: the auth reply reports have, the parked
// log's length, and head, the signature of its last proof. A client
// opens its first access at that cursor only when its own history holds
// the same proof at the same place, and otherwise sends base 0; the
// access is checked against the log like any other cursor. Daemons of
// different Coalitions (separate processes) share nothing, and their
// auth replies carry no offer.
//
// A declared program crosses a connection once, like a carried proof.
// The Coalition interns programs by the sha256 of their source text,
// which the daemon computes itself from the text it receives. After an
// access of the connection has carried a program's text, the client
// names it by that digest alone, in program_sha. A digest the
// Coalition does not hold (its obs.Window keeps the last 64 programs)
// is answered with an "unknown program" error before anything is
// decided, like a cursor mismatch, and the client resends the text.
//
// Within the paper's trust model coalition devices present their
// complete history (Section 2 assumes cooperative, trustworthy
// participants), so omission attacks are out of scope, as they are for
// the paper's prototype.
//
// The transport assumes a hostile network rather than a hostile peer:
// connections may reset mid-message, writes may land partially, and
// clients may stall. The daemon bounds every connection with read and
// write deadlines, caps concurrent connections and per-message sizes,
// answers malformed or oversized input with a structured error before
// closing, and deduplicates retried access requests by client-chosen
// request ID so a retry after a lost response cannot consume a
// validity budget twice.

// wire messages.
type wireRequest struct {
	Type string `json:"type"` // auth | access | depart | info
	// auth
	Credential *proof.Credential `json:"credential,omitempty"`
	// access
	Token    string `json:"token,omitempty"`
	Op       string `json:"op,omitempty"`
	Resource string `json:"resource,omitempty"`
	// Program is SRAL text. The daemon's decoder returns it apart
	// from the struct (see wireCodec.decode).
	Program string `json:"program,omitempty"`
	// ProgramSHA names the declared program by the hex sha256 of its
	// text, in place of Program, once the text has crossed the
	// connection. The daemon ignores it beside a Program.
	ProgramSHA string        `json:"program_sha,omitempty"`
	Proofs     []proof.Proof `json:"proofs,omitempty"`
	// Base is the history cursor: how many proofs of the carried
	// history the daemon already holds for this token. Proofs then
	// carries only the history from Base on, and Head is the signature
	// of proof Base-1. Zero means Proofs is the complete history.
	Base    int    `json:"base,omitempty"`
	Head    string `json:"head,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	// ID, when set on an access request, makes it idempotent: a
	// retry with the same ID returns the recorded response instead of
	// re-executing, so a client that lost a response to a connection
	// reset can retry safely.
	ID string `json:"id,omitempty"`
	// Trace is the propagated trace context of the itinerary this
	// request belongs to, in obs.TraceContext wire form
	// ("<traceid>-<spanid>-<01|00>").
	Trace string `json:"trace,omitempty"`
	// HLC is the client's hybrid logical clock reading (hlc.Timestamp
	// wire form) at send time. The daemon folds it into its engine's
	// clock before deciding, so the decision's stamp causally follows
	// everything the client had observed — including decisions by
	// OTHER coalition members earlier on the same itinerary.
	HLC string `json:"hlc,omitempty"`
}

type wireResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// auth
	Token string `json:"token,omitempty"`
	// access
	Data  []byte       `json:"data,omitempty"`
	Proof *proof.Proof `json:"proof,omitempty"`
	// Have is the length of the token's resident history after the
	// request — the base the client may send next. On auth it is the
	// length of the log the session adopted from the object's previous
	// hop, and Head is the signature of that log's last proof.
	Have int    `json:"have,omitempty"`
	Head string `json:"head,omitempty"`
	// info
	Server    string   `json:"server,omitempty"`
	Resources []string `json:"resources,omitempty"`
	// audit
	Audit      []string `json:"audit,omitempty"`
	AuditTotal int      `json:"audit_total,omitempty"`
	// Trace echoes the request's trace context so the client can
	// correlate this reply — including a structured reject — with the
	// coalition's audit records and exported spans.
	Trace string `json:"trace,omitempty"`
	// DecisionID identifies the authorisation decision behind an
	// access reply (grant or denial); feed it to `stacctl explain`.
	DecisionID string `json:"decision_id,omitempty"`
	// HLC is the decision's hybrid logical timestamp — the same stamp
	// on the daemon's journal record and audit entry. Clients observe
	// it so their next request (at any member) dominates it.
	HLC string `json:"hlc,omitempty"`
}

// Transport limits and defaults.
const (
	// DefaultMaxLineBytes caps one JSON-lines message.
	DefaultMaxLineBytes = 16 << 20
	// dedupWindow is the capacity of the obs.Window of retry records
	// the daemon keeps for idempotent access retries.
	dedupWindow = 1024
)

// DaemonConfig tunes the daemon's robustness knobs. The zero value
// keeps the historical behaviour: no deadlines, unlimited
// connections, 16 MiB message cap.
type DaemonConfig struct {
	// ReadTimeout bounds the wait for the next request on a
	// connection; an idle client is disconnected when it fires. Zero
	// disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response. Zero disables.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; excess dials
	// queue in the accept backlog. Zero means unlimited.
	MaxConns int
	// MaxLineBytes caps one request line; an oversized request gets a
	// structured error response and the connection closes. Zero means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// Obs selects the metrics registry the daemon reports into; nil
	// means obs.Default. (A pointer keeps DaemonConfig comparable.)
	Obs *obs.Registry
}

func (c DaemonConfig) maxLine() int {
	if c.MaxLineBytes <= 0 {
		return DefaultMaxLineBytes
	}
	return c.MaxLineBytes
}

// dmetrics holds one daemon's resolved metric handles, labelled by
// server ID so several daemons can share one registry.
type dmetrics struct {
	conns    *obs.Counter
	inflight *obs.Gauge
	requests map[string]*obs.Counter // by wire request type
	dedup    *obs.Counter
	oversize *obs.Counter
	malform  *obs.Counter
	accept   *obs.Counter // failed accepts, each retried
	// verified and resident split the carried proofs of the accesses
	// that reached a decision: HMAC-verified on this request, or taken
	// from the token's resident log. residentLen is the resident logs'
	// total length. handoffLen is the coalition's parked logs' total
	// length, as of this daemon's last park or take.
	verified    *obs.Counter
	resident    *obs.Counter
	residentLen *obs.Gauge
	handoffLen  *obs.Gauge
	// stages times the access path stage by stage, from the request's
	// stage ledger (see obs.StageLedger).
	stages [obs.NumStages]*obs.Histogram
}

// stageBuckets resolve a stage from a sub-microsecond mark up through
// a stalled write.
var stageBuckets = []float64{
	250e-9, 500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6,
	50e-6, 100e-6, 250e-6, 1e-3, 10e-3, 50e-3,
}

// wireTypes are the request types the daemon accounts per-type; an
// unknown type lands on the "unknown" counter.
var wireTypes = []string{"info", "auth", "access", "audit", "depart", "unknown"}

func newDMetrics(r *obs.Registry, server model.ServerID) *dmetrics {
	if r == nil {
		r = obs.Default
	}
	srv := obs.Label("server", string(server))
	m := &dmetrics{
		conns: r.Counter("stac_server_connections_total", srv,
			"Connections accepted by the coalition daemon."),
		inflight: r.Gauge("stac_server_inflight_connections", srv,
			"Connections currently being served."),
		requests: make(map[string]*obs.Counter, len(wireTypes)),
		dedup: r.Counter("stac_server_dedup_hits_total", srv,
			"Access retries answered from the idempotency cache."),
		oversize: r.Counter("stac_server_rejects_total",
			obs.Labels(obs.Label("reason", "oversize"), srv),
			"Requests rejected before handling, by reason."),
		malform: r.Counter("stac_server_rejects_total",
			obs.Labels(obs.Label("reason", "malformed"), srv),
			"Requests rejected before handling, by reason."),
		accept: r.Counter("stac_server_rejects_total",
			obs.Labels(obs.Label("reason", "accept"), srv),
			"Requests rejected before handling, by reason."),
		verified: r.Counter("stac_server_carried_proofs_total",
			obs.Labels(obs.Label("outcome", "verified"), srv),
			"Carried proofs of accepted access histories: HMAC-verified on arrival, or already resident."),
		resident: r.Counter("stac_server_carried_proofs_total",
			obs.Labels(obs.Label("outcome", "resident"), srv),
			"Carried proofs of accepted access histories: HMAC-verified on arrival, or already resident."),
		residentLen: r.Gauge("stac_server_resident_proofs", srv,
			"Verified carried proofs held resident across the daemon's sessions."),
		handoffLen: r.Gauge("stac_coalition_handoff_proofs", "",
			"Verified carried proofs parked by departed sessions for their objects' next arrival."),
	}
	for _, t := range wireTypes {
		m.requests[t] = r.Counter("stac_server_requests_total",
			obs.Labels(srv, obs.Label("type", t)),
			"Wire requests handled, by type.")
	}
	for s := range m.stages {
		m.stages[s] = r.Histogram("stac_request_stage_seconds", obs.Label("stage", obs.Stage(s).String()),
			"Access requests' time by stage, from the line read to the reply write.", stageBuckets)
	}
	return m
}

// observeStages feeds one access request's ledger into the stage
// histograms.
func (m *dmetrics) observeStages(l *obs.StageLedger) {
	for s, h := range m.stages {
		if d := l.Stage(obs.Stage(s)); d > 0 {
			h.Observe(d)
		}
	}
}

func (m *dmetrics) request(typ string) {
	c, ok := m.requests[typ]
	if !ok {
		c = m.requests["unknown"]
	}
	c.Inc()
}

// Daemon exposes one coalition server over TCP.
type Daemon struct {
	srv *Server
	cfg DaemonConfig
	met *dmetrics
	ln  net.Listener
	sem chan struct{} // MaxConns slots; nil when unlimited

	quit chan struct{}
	// idle hands an accepted connection to a worker waiting for one
	// (see work).
	idle       chan net.Conn
	mu         sync.Mutex
	subjects   map[string]*session
	conns      map[net.Conn]struct{}
	connsTotal int64
	closed     bool
	wg         sync.WaitGroup
	// seen holds a retry record for each of the last dedupWindow
	// access requests that carried an ID (see wireRequest.ID): what a
	// retry's reply replays, not the decision behind it.
	seen *obs.Window[dedupKey, retryRecord]
	// onStages, when set (tests only, before serving), sees each
	// access request's closed ledger.
	onStages func(*obs.StageLedger)
	// onWorker, when set (tests only, before serving), runs as each
	// connection worker starts.
	onWorker func()
}

// session is one token's daemon-side state: the authenticated subject
// and the resident log of its verified carried history.
type session struct {
	sub *Subject
	// mu serialises the token's requests, so one request at a time
	// reads, extends and (on a grant) appends to the resident log.
	mu sync.Mutex
	// log holds the carried history verified so far, in the client's
	// order, plus the proofs issued to the token since; nil while no log
	// is resident. A carried copy of a proof it holds collapses into it.
	log *proof.Store
	// counted is log's length as last added to the resident gauge.
	counted int
	// gone marks a departed session: a request that raced the depart
	// answers as an unknown token.
	gone bool
}

// have returns the resident log's length.
func (s *session) have() int {
	if s.log == nil {
		return 0
	}
	return s.log.Len()
}

// dedupKey identifies one logical access request across reconnects:
// the retrying client re-authenticates, so the key is the object
// identity plus the client-chosen request ID, not the session token.
type dedupKey struct {
	obj model.ObjectID
	id  string
}

// retryRecord is what an idempotent access retry replays: the reply's
// verdict, error, data, proof, decision ID and HLC stamp. The trace is
// the retry's own and have is the current token's, so neither is kept.
// With its key it fills one 120-byte slot of the window's ring.
type retryRecord struct {
	ok         bool
	err        string
	data       []byte
	proof      *proof.Proof
	decisionID string
	hlc        hlc.Timestamp
}

// reply rebuilds the recorded access reply, trace and have unset.
func (r retryRecord) reply() wireResponse {
	return wireResponse{OK: r.ok, Error: r.err, Data: r.data, Proof: r.proof,
		DecisionID: r.decisionID, HLC: r.hlc.String()}
}

// NewDaemon wraps a coalition server for network exposure with
// default (permissive) limits.
func NewDaemon(s *Server) *Daemon { return NewDaemonWith(s, DaemonConfig{}) }

// NewDaemonWith wraps a coalition server with explicit transport
// limits.
func NewDaemonWith(s *Server, cfg DaemonConfig) *Daemon {
	d := &Daemon{
		srv:      s,
		cfg:      cfg,
		met:      newDMetrics(cfg.Obs, s.ID()),
		quit:     make(chan struct{}),
		idle:     make(chan net.Conn),
		subjects: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
		seen:     obs.NewWindow[dedupKey, retryRecord](dedupWindow),
	}
	if cfg.MaxConns > 0 {
		d.sem = make(chan struct{}, cfg.MaxConns)
	}
	return d
}

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving continues until Close.
func (d *Daemon) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	return d.Serve(ln), nil
}

// Serve starts serving on a caller-provided listener (which may wrap
// the raw TCP listener, e.g. for fault injection) and returns its
// address. The daemon owns ln from here on.
func (d *Daemon) Serve(ln net.Listener) string {
	d.ln = ln
	d.wg.Add(1)
	go d.acceptLoop()
	return ln.Addr().String()
}

// acceptLoop serves the listener until it closes. A failed Accept that
// is not the close (EMFILE or ENFILE under a connection flood, say) is
// retried after a backoff of 5 ms doubling to 1 s, as net/http does:
// returning would leave the daemon up and every later dial waiting in
// the backlog.
func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	var backoff time.Duration
	for {
		if d.sem != nil {
			select {
			case d.sem <- struct{}{}:
			case <-d.quit:
				return
			}
		}
		conn, err := d.ln.Accept()
		if err != nil {
			if d.sem != nil {
				<-d.sem
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			d.met.accept.Inc()
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
				continue
			case <-d.quit:
				return
			}
		}
		backoff = 0
		d.track(conn)
		select {
		case d.idle <- conn:
		default:
			d.wg.Add(1)
			go d.work(conn)
		}
	}
}

// workerIdle is how long a connection worker waits for its next
// connection before it retires. A mobile object's next hop dials as the
// last one closes, so a worker that just served one is usually waiting
// when the next arrives; an idle second returns the workers of a burst
// of concurrent connections soon after it ends.
const workerIdle = time.Second

// connWorker is what a connection worker keeps from one connection to
// the next: the read buffer, the wire codec's buffers and the stage
// ledger. Its goroutine keeps its grown stack as well, so a connection's
// first access does not copy a fresh goroutine's stack up to the depth
// of the decision path. Nothing of a connection's session state lives
// here: its tokens, its MaxConns slot and its tracking stay in
// serveConn.
type connWorker struct {
	br  bufio.Reader
	wc  wireCodec
	led obs.StageLedger
}

// work serves conn, then each connection acceptLoop hands it, until it
// has waited workerIdle for one or the daemon closes.
func (d *Daemon) work(conn net.Conn) {
	defer d.wg.Done()
	if d.onWorker != nil {
		d.onWorker()
	}
	var w connWorker
	for {
		d.serveConn(conn, &w)
		idle := time.NewTimer(workerIdle)
		select {
		case conn = <-d.idle:
			idle.Stop()
		case <-idle.C:
			return
		case <-d.quit:
			idle.Stop()
			return
		}
	}
}

func (d *Daemon) track(conn net.Conn) {
	d.mu.Lock()
	d.conns[conn] = struct{}{}
	d.connsTotal++
	closed := d.closed
	d.mu.Unlock()
	if closed {
		// Lost the race with Close: wake any pending read so the
		// handler drains immediately.
		_ = conn.SetReadDeadline(time.Now())
	}
}

func (d *Daemon) untrack(conn net.Conn) {
	d.mu.Lock()
	delete(d.conns, conn)
	d.mu.Unlock()
}

// Close stops the daemon gracefully: it stops accepting, wakes idle
// connections, lets in-flight requests finish and deliver their
// responses, and waits for every connection handler to drain.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.quit)
	// A connection blocked reading its next request holds no in-flight
	// access; expiring its read deadline wakes it without touching
	// writes, so responses already being sent still go out.
	for conn := range d.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	d.mu.Unlock()
	var err error
	if d.ln != nil {
		err = d.ln.Close()
	}
	d.wg.Wait()
	return err
}

// armRead sets the per-request read deadline. It reports false once
// the daemon is draining, and never overrides the immediate deadline
// Close sets (both run under d.mu).
func (d *Daemon) armRead(conn net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	if d.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d.cfg.ReadTimeout))
	}
	return true
}

// reply writes one response line, encoded into the connection's
// buffer, under the write deadline; it reports whether the connection
// is still usable.
func (d *Daemon) reply(conn net.Conn, wc *wireCodec, resp wireResponse) bool {
	b, err := appendResponse(wc.out[:0], &resp)
	if err != nil {
		return false
	}
	b = append(b, '\n')
	if cap(b) <= maxKeptBuffer {
		wc.out = b
	}
	if d.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
	}
	_, err = conn.Write(b)
	return err == nil
}

// serveConn serves one connection on worker w's buffers.
func (d *Daemon) serveConn(conn net.Conn, w *connWorker) {
	d.met.conns.Inc()
	d.met.inflight.Inc()
	defer func() {
		conn.Close()
		d.untrack(conn)
		d.met.inflight.Dec()
		if d.sem != nil {
			<-d.sem
		}
	}()
	w.br.Reset(conn)
	// Track the subjects authenticated over this connection so a drop
	// departs them.
	var tokens []string
	defer func() {
		for _, tok := range tokens {
			d.depart(tok)
		}
	}()
	wc, led := &w.wc, &w.led
	for {
		if !d.armRead(conn) {
			return // draining
		}
		line, err := readLine(&w.br, d.cfg.maxLine(), &wc.line)
		led.Start(obs.StageDecode)
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				d.met.oversize.Inc()
				d.reply(conn, wc, wireResponse{Error: fmt.Sprintf(
					"request exceeds %d-byte limit", d.cfg.maxLine()),
					Trace: extractTrace(line)})
			}
			return
		}
		var req wireRequest
		program, err := wc.decode(line, &req)
		if err != nil {
			d.met.malform.Inc()
			d.reply(conn, wc, wireResponse{Error: "malformed request: " + err.Error(),
				Trace: extractTrace(line)})
			return
		}
		led.Enter(obs.StageResidue)
		d.met.request(req.Type)
		resp := d.handle(&req, program, &tokens, led)
		led.Enter(obs.StageWrite)
		ok := d.reply(conn, wc, resp)
		led.Enter(obs.StageResidue)
		if req.Type == "access" {
			d.met.observeStages(led)
			if d.onStages != nil {
				d.onStages(led)
			}
		}
		if !ok {
			return
		}
	}
}

// extractTrace best-effort recovers the trace context from a raw (and
// possibly truncated or malformed) request line, so even a reject that
// never parsed can be correlated with the itinerary that sent it. It
// returns the canonical wire form, or "" when none is found.
func extractTrace(line []byte) string {
	const key = `"trace":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	tc, _ := obs.ParseTraceContext(string(rest[:j]))
	return tc.String()
}

// cached returns the recorded reply for an idempotent access retry.
func (d *Daemon) cached(key dedupKey) (wireResponse, bool) {
	d.mu.Lock()
	r, ok := d.seen.Get(key)
	d.mu.Unlock()
	if !ok {
		return wireResponse{}, false
	}
	return r.reply(), true
}

// record retains an access reply's retry record, evicting the oldest
// entry once the dedup window is full.
func (d *Daemon) record(key dedupKey, r retryRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen.Get(key); !ok {
		d.seen.Add(key, r)
	}
}

// handle serves one decoded request; program is its declared program's
// source (see wireCodec.decode).
func (d *Daemon) handle(req *wireRequest, program []byte, tokens *[]string, led *obs.StageLedger) wireResponse {
	switch req.Type {
	case "info":
		var res []string
		for _, r := range d.srv.Resources() {
			res = append(res, string(r))
		}
		return wireResponse{OK: true, Server: string(d.srv.ID()), Resources: res}

	case "auth":
		if req.Credential == nil {
			return wireResponse{Error: "auth: missing credential"}
		}
		sub, err := d.srv.Authenticate(*req.Credential)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		// The session adopts the log the object's previous hop parked.
		s := &session{sub: sub}
		s.log = d.srv.coalition.handoff.take(sub.Object, d.met.handoffLen)
		d.countResident(s)
		resp := wireResponse{OK: true, Token: newToken(), Have: s.have()}
		if resp.Have > 0 {
			resp.Head = s.log.View()[resp.Have-1].Sig
		}
		d.mu.Lock()
		d.subjects[resp.Token] = s
		d.mu.Unlock()
		*tokens = append(*tokens, resp.Token)
		return resp

	case "access":
		d.mu.Lock()
		s, ok := d.subjects[req.Token]
		d.mu.Unlock()
		if !ok {
			return wireResponse{Error: "access: unknown or expired token"}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.gone {
			return wireResponse{Error: "access: unknown or expired token"}
		}
		resp := d.access(s, req, program, led)
		resp.Have = s.have()
		return resp

	case "audit":
		// The monitoring interface of the daemon: recent decisions in
		// rendered form (a security officer's view; structured records
		// stay server-side).
		records, total := d.srv.Audit()
		lines := make([]string, len(records))
		for i, r := range records {
			lines[i] = r.String()
		}
		return wireResponse{OK: true, Audit: lines, AuditTotal: total}

	case "depart":
		if !d.depart(req.Token) {
			return wireResponse{Error: "depart: unknown token"}
		}
		return wireResponse{OK: true}
	}
	return wireResponse{Error: fmt.Sprintf("unknown request type %q", req.Type)}
}

// access serves one access request of session s, whose lock the caller
// holds, marking its stages on led. A context the client sampled gets
// the wire.access span, rendered from the marks; an untraced request
// records no span and its reply echoes no trace.
func (d *Daemon) access(s *session, req *wireRequest, program []byte, led *obs.StageLedger) wireResponse {
	if req.HLC != "" {
		// Receive event: fold the client's clock into the engine's
		// before deciding, so the decision stamp dominates every
		// prior hop of the itinerary. Malformed stamps are ignored
		// (causality degrades to local order, nothing fails).
		if ts, err := hlc.Parse(req.HLC); err == nil {
			d.srv.coalition.Engine.HLC().Observe(ts)
		}
	}
	tc, _ := obs.ParseTraceContext(req.Trace)
	echo := tc.String()
	var key dedupKey
	if req.ID != "" {
		key = dedupKey{obj: s.sub.Object, id: req.ID}
		if resp, ok := d.cached(key); ok {
			d.met.dedup.Inc()
			// Echo the RETRY's trace context (the original decision
			// ID stays — it names the verdict being replayed). The
			// caller sets Have from THIS token's log: the recorded
			// reply may come from an earlier token of the object.
			resp.Trace = echo
			return resp
		}
	}
	tracer := d.srv.coalition.Engine.Tracer()
	ctx := RequestContext{Payload: req.Payload, Trace: tc, Stages: led}
	sampled := tracer.Records(tc)
	begin := led.Wall()
	// span renders the wire.access span of a sampled request.
	span := func(attrs ...obs.Attr) {
		end := led.Enter(obs.StageResidue)
		attrs = append([]obs.Attr{{Key: "op", Value: req.Op}, {Key: "resource", Value: req.Resource}}, attrs...)
		tracer.Emit(tc, ctx.Trace, "wire.access", "daemon:"+string(d.srv.ID()), led.Time(begin), end-begin, attrs...)
	}
	if sampled {
		ctx.Trace = tc.Child()
	}
	if len(program) > 0 || req.ProgramSHA != "" {
		prog, err := d.srv.coalition.programs.declared(program, req.ProgramSHA)
		if err != nil {
			if sampled {
				span(obs.Attr{Key: "error", Value: err.Error()})
			}
			return wireResponse{Error: err.Error(), Trace: echo}
		}
		ctx.Program, ctx.ProgramDigest = prog.node, prog.digest
	}
	led.Enter(obs.StageVerify)
	err := d.carry(s, req)
	led.Enter(obs.StageResidue)
	if err != nil {
		if sampled {
			span(obs.Attr{Key: "error", Value: err.Error()})
		}
		return wireResponse{Error: err.Error(), Trace: echo}
	}
	ctx.Store = s.log
	res, err := d.srv.Request(s.sub, model.Operation(req.Op), model.ResourceID(req.Resource), ctx)
	// The record holds the proof by a copy of its own, so res (and the
	// decision in it) stays off the heap.
	rec := retryRecord{decisionID: res.Decision.ID, hlc: res.Decision.HLC}
	if err != nil {
		rec.err = err.Error()
	} else {
		pr := res.Proof
		rec.ok, rec.data, rec.proof = true, res.Data, &pr
	}
	// A grant appended the issued proof to the log, as the client
	// appends it to its own history.
	d.countResident(s)
	if sampled {
		span(obs.Attr{Key: "decision_id", Value: res.Decision.ID},
			obs.Attr{Key: "granted", Value: strconv.FormatBool(res.Decision.Granted)})
	}
	if req.ID != "" {
		// Record grants AND denials: a retried request must see
		// the same verdict the engine originally reached.
		d.record(key, rec)
	}
	resp := rec.reply()
	resp.Trace = echo
	return resp
}

// msgCursorMismatch opens the error that answers an access whose
// history cursor does not name the token's resident log; a Client
// answers it by resending its full history.
const msgCursorMismatch = "access: history cursor mismatch"

// msgUnknownProgram answers an access that names its program by a
// digest the coalition does not hold; a Client answers it by resending
// the program's text.
const msgUnknownProgram = "access: unknown program"

// msgBadProgram opens the error that answers an access whose declared
// program does not parse.
const msgBadProgram = "access: bad program"

// carry brings session s's resident log up to the request's carried
// history. Base 0 rebuilds the log from the complete history; base > 0
// must name the resident log exactly, by length and last signature, and
// extends it with the suffix. Every proof not yet resident is
// HMAC-verified; the log collapses a copy of a resident proof into it
// unverified (see proof.Store.Add). On any error the log is dropped and
// the client must resend in full.
func (d *Daemon) carry(s *session, req *wireRequest) error {
	switch have := s.have(); {
	case req.Base == 0:
		d.dropLog(s)
		s.log = proof.NewStore(d.srv.coalition.Signer)
	case req.Base != have:
		d.dropLog(s)
		return fmt.Errorf("%s: base %d, %d proofs resident", msgCursorMismatch, req.Base, have)
	case s.log.View()[have-1].Sig != req.Head:
		d.dropLog(s)
		return fmt.Errorf("%s: head is not resident proof %d", msgCursorMismatch, have-1)
	}
	before := s.log.Len()
	for _, p := range req.Proofs {
		if err := s.log.Add(p); err != nil {
			d.dropLog(s)
			return fmt.Errorf("access: carried proof rejected: %w", err)
		}
	}
	verified := s.log.Len() - before
	d.met.verified.Add(int64(verified))
	d.met.resident.Add(int64(req.Base + len(req.Proofs) - verified))
	d.countResident(s)
	return nil
}

// countResident brings the resident gauge up to date with s's log.
func (d *Daemon) countResident(s *session) {
	n := s.have()
	d.met.residentLen.Add(int64(n - s.counted))
	s.counted = n
}

// dropLog releases s's resident log.
func (d *Daemon) dropLog(s *session) {
	s.log = nil
	d.countResident(s)
}

func (d *Daemon) depart(token string) bool {
	d.mu.Lock()
	s, ok := d.subjects[token]
	delete(d.subjects, token)
	d.mu.Unlock()
	if !ok {
		return false
	}
	// Wait out an in-flight request of the token, then park its log for
	// the object's next arrival.
	s.mu.Lock()
	s.gone = true
	if s.have() > 0 {
		d.srv.coalition.handoff.park(s.sub.Object, s.log, d.met.handoffLen)
	}
	d.dropLog(s)
	s.mu.Unlock()
	d.srv.Depart(s.sub)
	return true
}

// newToken returns 16 random bytes, hex-encoded. Without entropy it
// panics, as crypto/rand itself does from go1.24: a constant fallback
// would hand every session one token and every request one
// idempotency key, so one client's retry could replay another's
// verdict.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// NewRequestID returns a fresh idempotency key for one logical access
// request; retries of the same logical access reuse it.
func NewRequestID() string { return newToken() }

// ServerError is an application-level error reported by the daemon in
// a well-formed response — an authentication failure, an access
// denial, a malformed program. It is the non-retryable complement of
// transport failures: the server made a decision and retrying the
// same request cannot change it.
type ServerError struct {
	Msg string
	// DecisionID names the authorisation decision behind a denial
	// ("" when the reject never reached the engine); `stacctl explain`
	// resolves it to the violated constraint.
	DecisionID string
	// TraceID is the itinerary trace the reject belongs to ("").
	TraceID string
}

// Error implements error, passing the daemon's message (which already
// carries its package prefix) through verbatim.
func (e *ServerError) Error() string { return e.Msg }

// Is lets errors.Is match the coalition sentinel errors through the
// wire boundary, where only the rendered message survives.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrDenied, ErrAuthFailed:
		return strings.Contains(e.Msg, target.Error())
	}
	return false
}

// IsTransient reports whether err is a transport-level failure worth
// retrying (reset, timeout, dropped connection) as opposed to a
// decision the server actually made.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var se *ServerError
	return !errors.As(err, &se)
}

// ClientConfig tunes the client side of the transport. The zero value
// keeps the historical behaviour: blocking dial, no I/O deadlines.
type ClientConfig struct {
	// DialTimeout bounds connection establishment. Zero disables.
	DialTimeout time.Duration
	// IOTimeout bounds each request/response round trip. Zero
	// disables.
	IOTimeout time.Duration
	// MaxLineBytes caps one response line. Zero means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// Dial overrides the transport (e.g. for fault injection); nil
	// uses net.Dial("tcp", addr) under DialTimeout.
	Dial func(addr string) (net.Conn, error)
}

func (c ClientConfig) maxLine() int {
	if c.MaxLineBytes <= 0 {
		return DefaultMaxLineBytes
	}
	return c.MaxLineBytes
}

// Client is the mobile-device side of the TCP protocol: it connects to
// one coalition server, authenticates, performs accesses and collects
// proofs.
type Client struct {
	conn net.Conn
	cfg  ClientConfig
	br   *bufio.Reader
	mu   sync.Mutex
	// codec encodes each request and decodes each reply, under mu.
	codec wireCodec

	token  string
	trace  obs.TraceContext
	hlc    *hlc.Clock
	proofs []proof.Proof
	// seen dedups carried proofs by signature: an idempotent replay
	// returns the same proof again, and it must not inflate the
	// carried history.
	seen map[string]struct{}
	// acked is how many leading proofs the daemon holds resident for
	// the current token: the next access sends proofs[acked:] after
	// that cursor. It follows the daemon's have and falls to 0 on
	// Auth and on transport errors.
	acked int
	// offer is the cursor the auth reply offered, the log the session
	// adopted from the object's previous hop; the first access takes it
	// up if the history names it.
	offer struct {
		have int
		head string
	}
	// programs maps the last programCacheSize program texts this
	// connection carried to the daemon to their hex sha256, which later
	// accesses send instead.
	programs *obs.Window[string, string]
}

// Dial connects to a coalition daemon with default settings.
func Dial(addr string) (*Client, error) { return DialConfig(addr, ClientConfig{}) }

// DialConfig connects to a coalition daemon with explicit transport
// settings.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, cfg.DialTimeout)
		}
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return NewClient(conn, cfg), nil
}

// NewClient wraps an established connection (which may be
// fault-injected or otherwise non-TCP) as a protocol client.
func NewClient(conn net.Conn, cfg ClientConfig) *Client {
	return &Client{conn: conn, cfg: cfg, br: bufio.NewReader(conn), seen: make(map[string]struct{}),
		programs: obs.NewWindow[string, string](programCacheSize)}
}

// addProof records a proof unless an identical copy (same signature)
// is already carried. The caller holds c.mu.
func (c *Client) addProof(p proof.Proof) {
	if _, dup := c.seen[p.Sig]; dup {
		return
	}
	c.seen[p.Sig] = struct{}{}
	c.proofs = append(c.proofs, p)
}

func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := appendRequest(c.codec.out[:0], &req)
	if err != nil {
		_, err = json.Marshal(req) // refuses it too, in its own words
		return wireResponse{}, fmt.Errorf("server: encode: %w", err)
	}
	b = append(b, '\n')
	if cap(b) <= maxKeptBuffer {
		c.codec.out = b
	}
	if c.cfg.IOTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
	if _, err := c.conn.Write(b); err != nil {
		return wireResponse{}, fmt.Errorf("server: send: %w", err)
	}
	line, err := readLine(c.br, c.cfg.maxLine(), &c.codec.line)
	if err != nil {
		return wireResponse{}, fmt.Errorf("server: recv: %w", err)
	}
	var resp wireResponse
	if err := c.codec.decodeResponse(line, &resp); err != nil {
		return wireResponse{}, fmt.Errorf("server: decode: %w", err)
	}
	if !resp.OK {
		// The daemon's error strings already carry their package
		// prefix; pass them through verbatim, typed so callers can
		// tell a server decision from a transport failure.
		se := &ServerError{Msg: resp.Error, DecisionID: resp.DecisionID}
		if tc, ok := obs.ParseTraceContext(resp.Trace); ok {
			se.TraceID = tc.Trace.String()
		}
		return resp, se
	}
	return resp, nil
}

// Info queries the server's identity and hosted resources.
func (c *Client) Info() (model.ServerID, []model.ResourceID, error) {
	resp, err := c.roundTrip(wireRequest{Type: "info"})
	if err != nil {
		return "", nil, err
	}
	res := make([]model.ResourceID, len(resp.Resources))
	for i, r := range resp.Resources {
		res[i] = model.ResourceID(r)
	}
	return model.ServerID(resp.Server), res, nil
}

// Auth authenticates with an owner credential (arrival).
func (c *Client) Auth(cred proof.Credential) error {
	resp, err := c.roundTrip(wireRequest{Type: "auth", Credential: &cred})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.token = resp.Token
	c.acked = 0
	c.offer.have, c.offer.head = resp.Have, resp.Head
	c.mu.Unlock()
	return nil
}

// Access performs one shared-resource access, carrying the client's
// accumulated proofs as history and the optional program text.
func (c *Client) Access(op model.Operation, res model.ResourceID, program string, payload []byte) ([]byte, error) {
	return c.AccessID(NewRequestID(), op, res, program, payload)
}

// SetTrace attaches an itinerary trace context to the client: every
// subsequent access request propagates it to the daemon, so the hops
// of one itinerary share a trace ID across servers. The zero context
// detaches.
func (c *Client) SetTrace(tc obs.TraceContext) {
	c.mu.Lock()
	c.trace = tc
	c.mu.Unlock()
}

// SetHLC attaches a hybrid logical clock: every subsequent access
// request is stamped with the clock's reading and every reply's stamp
// is folded back into it. Agents share one clock across the clients
// of one itinerary (see agent.RemoteRuntime), which is what carries
// causality across hops: the stamp sent to server N dominates the
// decision made at server N-1. Nil detaches.
func (c *Client) SetHLC(clk *hlc.Clock) {
	c.mu.Lock()
	c.hlc = clk
	c.mu.Unlock()
}

// AccessID performs one shared-resource access under a caller-chosen
// idempotency key: retrying with the same id after a transport
// failure returns the server's original verdict (and proof) without
// re-executing the access.
func (c *Client) AccessID(id string, op model.Operation, res model.ResourceID, program string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	tc := c.trace
	c.mu.Unlock()
	return c.AccessTraced(tc, id, op, res, program, payload)
}

// AccessTraced is AccessID under an explicit trace context (overriding
// any SetTrace default for this one request).
//
// The request carries only the proofs the daemon does not hold yet
// (see the history cursor in the file comment), and names a program
// whose text it already carried by the text's digest. A daemon that
// lost track of the proofs answers with a cursor mismatch, and one that
// does not hold the program with an unknown program; either way the
// access is resent once, under the same request ID, with the full
// history or the program's text.
func (c *Client) AccessTraced(tc obs.TraceContext, id string, op model.Operation, res model.ResourceID, program string, payload []byte) ([]byte, error) {
	req := wireRequest{
		Type:     "access",
		ID:       id,
		Op:       string(op),
		Resource: string(res),
		Program:  program,
		Payload:  payload,
		Trace:    tc.String(),
	}
	var full, text bool
	for {
		resp, err := c.access(req, full, text)
		var se *ServerError
		switch {
		case !errors.As(err, &se):
		case !full && strings.HasPrefix(se.Msg, msgCursorMismatch):
			full = true
			continue
		case !text && se.Msg == msgUnknownProgram:
			text = true
			continue
		}
		if err != nil {
			return nil, err
		}
		return resp.Data, nil
	}
}

// access sends one access request carrying the history after the
// acknowledged cursor, or all of it when full is set, and the program
// by digest once the connection carried its text, or as text when text
// is set. It folds the reply into the client's history and cursor.
func (c *Client) access(req wireRequest, full, text bool) (wireResponse, error) {
	c.mu.Lock()
	program := req.Program
	if sha, ok := c.programs.Get(program); ok && !text {
		req.Program, req.ProgramSHA = "", sha
	}
	req.Token = c.token
	if o := c.offer; o.have > 0 {
		// The history may have been imported after Auth, so the offer is
		// checked against it only now.
		if o.have <= len(c.proofs) && c.proofs[o.have-1].Sig == o.head {
			c.acked = o.have
		}
		c.offer.have, c.offer.head = 0, ""
	}
	base := c.acked
	if full {
		base = 0
	}
	if base > 0 {
		req.Base, req.Head = base, c.proofs[base-1].Sig
	}
	req.Proofs = c.proofs[base:len(c.proofs):len(c.proofs)]
	clk := c.hlc
	c.mu.Unlock()
	if clk != nil {
		req.HLC = clk.Now().String()
	}
	resp, err := c.roundTrip(req)
	// Fold the reply stamp in even on denials and server errors: the
	// denial happened, and later hops must causally follow it.
	if clk != nil && resp.HLC != "" {
		if ts, perr := hlc.Parse(resp.HLC); perr == nil {
			clk.Observe(ts)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && resp.Proof != nil {
		c.addProof(*resp.Proof)
	}
	if req.Program != "" && !IsTransient(err) && !strings.HasPrefix(resp.Error, msgBadProgram) {
		// The daemon holds the text now, unless it went out of its
		// cache, which an unknown program answer reports.
		if _, ok := c.programs.Get(program); !ok {
			sum := sha256.Sum256([]byte(program))
			c.programs.Add(program, hex.EncodeToString(sum[:]))
		}
	}
	if IsTransient(err) {
		// No reply was parsed: what the daemon holds is unknown.
		c.acked = 0
	} else {
		c.acked = min(resp.Have, len(c.proofs))
	}
	return resp, err
}

// Proofs returns the execution proofs collected so far, as a shared
// immutable view: the client's proof slice is append-only, so the
// capacity-clamped view stays valid (and fixed) across later accesses
// — a hostile 500-replay flood no longer pays a full slice copy per
// request. Callers may append to the result (Go copies, len == cap)
// but must not write its elements.
func (c *Client) Proofs() []proof.Proof {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.proofs[:len(c.proofs):len(c.proofs)]
}

// ImportProofs appends proofs to the client's carried history: the
// whole history when migrating from another server, and, before each
// access, the proofs sibling branches of the same object were issued
// since (see agent.RemoteRuntime). Proofs already carried are skipped.
func (c *Client) ImportProofs(ps []proof.Proof) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range ps {
		c.addProof(p)
	}
}

// AuditLog fetches the server's recent decision records (rendered)
// and the total number of decisions made.
func (c *Client) AuditLog() ([]string, int, error) {
	resp, err := c.roundTrip(wireRequest{Type: "audit"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Audit, resp.AuditTotal, nil
}

// Depart announces departure, closing the subject server-side.
func (c *Client) Depart() error {
	c.mu.Lock()
	tok := c.token
	c.token = ""
	c.mu.Unlock()
	if tok == "" {
		return nil
	}
	_, err := c.roundTrip(wireRequest{Type: "depart", Token: tok})
	return err
}

// Close closes the connection (departing implicitly server-side).
func (c *Client) Close() error { return c.conn.Close() }
