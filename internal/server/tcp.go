package server

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
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
// The proof history travels with the client and is verified
// signature-by-signature on arrival; within the paper's trust model
// coalition devices present their complete history (Section 2 assumes
// cooperative, trustworthy participants), so omission attacks are out
// of scope, as they are for the paper's prototype.
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
	Token    string        `json:"token,omitempty"`
	Op       string        `json:"op,omitempty"`
	Resource string        `json:"resource,omitempty"`
	Program  string        `json:"program,omitempty"` // SRAL text
	Proofs   []proof.Proof `json:"proofs,omitempty"`
	Payload  []byte        `json:"payload,omitempty"`
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
	// DefaultDedupWindow is how many access responses the daemon
	// retains for idempotent retries.
	DefaultDedupWindow = 1024
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
	// DedupWindow is the number of recent access responses retained
	// for idempotent retry (see wireRequest.ID). Zero means
	// DefaultDedupWindow; negative disables deduplication.
	DedupWindow int
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

func (c DaemonConfig) dedupWindow() int {
	if c.DedupWindow == 0 {
		return DefaultDedupWindow
	}
	if c.DedupWindow < 0 {
		return 0
	}
	return c.DedupWindow
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
	}
	for _, t := range wireTypes {
		m.requests[t] = r.Counter("stac_server_requests_total",
			obs.Labels(srv, obs.Label("type", t)),
			"Wire requests handled, by type.")
	}
	return m
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

	quit       chan struct{}
	mu         sync.Mutex
	subjects   map[string]*Subject
	conns      map[net.Conn]struct{}
	connsTotal int64
	seen       map[dedupKey]wireResponse
	seenFIFO   []dedupKey
	closed     bool
	wg         sync.WaitGroup
}

// dedupKey identifies one logical access request across reconnects:
// the retrying client re-authenticates, so the key is the object
// identity plus the client-chosen request ID, not the session token.
type dedupKey struct {
	obj model.ObjectID
	id  string
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
		subjects: make(map[string]*Subject),
		conns:    make(map[net.Conn]struct{}),
		seen:     make(map[dedupKey]wireResponse),
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

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
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
			return // listener closed
		}
		d.track(conn)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveConn(conn)
		}()
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

// reply writes one response line under the write deadline; it reports
// whether the connection is still usable.
func (d *Daemon) reply(conn net.Conn, resp wireResponse) bool {
	b, err := json.Marshal(resp)
	if err != nil {
		return false
	}
	b = append(b, '\n')
	if d.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
	}
	_, err = conn.Write(b)
	return err == nil
}

// errLineTooLong marks a request exceeding the per-message cap.
var errLineTooLong = errors.New("request line exceeds limit")

// readLine reads one newline-terminated message of at most max bytes.
// Unlike bufio.Scanner it distinguishes "too long" from transport
// errors, so the daemon can answer with a structured error.
func readLine(r *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > max {
			// Return the partial line with the error: the daemon mines
			// it for the trace context to echo in the reject.
			return line, errLineTooLong
		}
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return line, err
		}
	}
}

func (d *Daemon) serveConn(conn net.Conn) {
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
	br := bufio.NewReader(conn)
	// Track the subjects authenticated over this connection so a drop
	// departs them.
	var tokens []string
	defer func() {
		for _, tok := range tokens {
			d.depart(tok)
		}
	}()
	for {
		if !d.armRead(conn) {
			return // draining
		}
		line, err := readLine(br, d.cfg.maxLine())
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				d.met.oversize.Inc()
				d.reply(conn, wireResponse{Error: fmt.Sprintf(
					"request exceeds %d-byte limit", d.cfg.maxLine()),
					Trace: extractTrace(line)})
			}
			return
		}
		var req wireRequest
		if err := json.Unmarshal(line, &req); err != nil {
			d.met.malform.Inc()
			d.reply(conn, wireResponse{Error: "malformed request: " + err.Error(),
				Trace: extractTrace(line)})
			return
		}
		d.met.request(req.Type)
		resp := d.handle(&req, &tokens)
		if !d.reply(conn, resp) {
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
	tc, ok := obs.ParseTraceContext(string(rest[:j]))
	if !ok {
		return ""
	}
	return tc.String()
}

// extractTraceString canonicalises a trace-context wire string (""
// when invalid).
func extractTraceString(s string) string {
	tc, ok := obs.ParseTraceContext(s)
	if !ok {
		return ""
	}
	return tc.String()
}

// cached returns the recorded response for an idempotent access
// retry.
func (d *Daemon) cached(key dedupKey) (wireResponse, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp, ok := d.seen[key]
	return resp, ok
}

// record retains an access response for idempotent retry, evicting
// the oldest entries beyond the dedup window.
func (d *Daemon) record(key dedupKey, resp wireResponse) {
	window := d.cfg.dedupWindow()
	if window == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.seen[key]; ok {
		return
	}
	d.seen[key] = resp
	d.seenFIFO = append(d.seenFIFO, key)
	for len(d.seenFIFO) > window {
		delete(d.seen, d.seenFIFO[0])
		d.seenFIFO = d.seenFIFO[1:]
	}
}

func (d *Daemon) handle(req *wireRequest, tokens *[]string) wireResponse {
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
		tok := newToken()
		d.mu.Lock()
		d.subjects[tok] = sub
		d.mu.Unlock()
		*tokens = append(*tokens, tok)
		return wireResponse{OK: true, Token: tok}

	case "access":
		d.mu.Lock()
		sub, ok := d.subjects[req.Token]
		d.mu.Unlock()
		if !ok {
			return wireResponse{Error: "access: unknown or expired token"}
		}
		if req.HLC != "" {
			// Receive event: fold the client's clock into the engine's
			// before deciding, so the decision stamp dominates every
			// prior hop of the itinerary. Malformed stamps are ignored
			// (causality degrades to local order, nothing fails).
			if ts, err := hlc.Parse(req.HLC); err == nil {
				d.srv.coalition.Engine.HLC().Observe(ts)
			}
		}
		var key dedupKey
		if req.ID != "" && d.cfg.dedupWindow() > 0 {
			key = dedupKey{obj: sub.Object, id: req.ID}
			if resp, ok := d.cached(key); ok {
				d.met.dedup.Inc()
				// Echo the RETRY's trace context (the original decision
				// ID stays — it names the verdict being replayed).
				resp.Trace = extractTraceString(req.Trace)
				return resp
			}
		}
		tracer := d.srv.coalition.Engine.Tracer()
		tc, hasTC := obs.ParseTraceContext(req.Trace)
		if !hasTC && tracer.Sampling() {
			// Untraced caller against a tracing daemon: mint a context
			// so the decision is still explorable server-side.
			tc = tracer.NewContext()
		}
		wsp, wctx := tracer.StartSpan(tc, "wire.access")
		wsp.SetService("daemon:" + string(d.srv.ID()))
		wsp.SetAttr("op", req.Op)
		wsp.SetAttr("resource", req.Resource)
		ctx := RequestContext{Payload: req.Payload, Trace: wctx}
		echo := ""
		if tc.Valid() {
			echo = tc.String()
		}
		if req.Program != "" {
			prog, err := d.srv.coalition.programs.intern(req.Program)
			if err != nil {
				wsp.SetAttr("error", "bad program")
				wsp.Finish()
				return wireResponse{Error: "access: bad program: " + err.Error(), Trace: echo}
			}
			ctx.Program, ctx.ProgramDigest = prog.node, prog.digest
		}
		// Rebuild the carried proof history, verifying signatures.
		// Duplicate copies of one proof collapse to one event: a
		// replayed proof must not double-count toward counting
		// constraints (in either direction).
		store := proof.NewStore(d.srv.coalition.Signer)
		carried := make(map[string]struct{}, len(req.Proofs))
		for _, p := range req.Proofs {
			if _, dup := carried[p.Sig]; dup {
				continue
			}
			carried[p.Sig] = struct{}{}
			if err := store.Add(p); err != nil {
				wsp.SetAttr("error", "carried proof rejected")
				wsp.Finish()
				return wireResponse{Error: "access: carried proof rejected: " + err.Error(), Trace: echo}
			}
		}
		ctx.Store = store
		var resp wireResponse
		res, err := d.srv.Request(sub, model.Operation(req.Op), model.ResourceID(req.Resource), ctx)
		if err != nil {
			resp = wireResponse{Error: err.Error()}
		} else {
			resp = wireResponse{OK: true, Data: res.Data, Proof: &res.Proof}
		}
		resp.Trace = echo
		resp.DecisionID = res.Decision.ID
		resp.HLC = res.Decision.HLC.String()
		wsp.SetAttr("decision_id", res.Decision.ID)
		wsp.SetAttr("granted", fmt.Sprintf("%t", res.Decision.Granted))
		wsp.Finish()
		if req.ID != "" {
			// Record grants AND denials: a retried request must see
			// the same verdict the engine originally reached.
			d.record(key, resp)
		}
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

func (d *Daemon) depart(token string) bool {
	d.mu.Lock()
	sub, ok := d.subjects[token]
	delete(d.subjects, token)
	d.mu.Unlock()
	if ok {
		d.srv.Depart(sub)
	}
	return ok
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable; fall back to a
		// non-secret marker rather than crash the daemon.
		return "tok-" + base64.StdEncoding.EncodeToString([]byte("fallback"))
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

	token  string
	trace  obs.TraceContext
	hlc    *hlc.Clock
	proofs []proof.Proof
	// seen dedups carried proofs by signature: an idempotent replay
	// returns the same proof again, and it must not inflate the
	// carried history.
	seen map[string]struct{}
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
	return &Client{conn: conn, cfg: cfg, br: bufio.NewReader(conn), seen: make(map[string]struct{})}
}

// addProof records a proof unless an identical copy (same signature)
// is already carried.
func (c *Client) addProof(p proof.Proof) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.seen[p.Sig]; dup {
		return
	}
	c.seen[p.Sig] = struct{}{}
	c.proofs = append(c.proofs, p)
}

func (c *Client) roundTrip(req wireRequest) (wireResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := json.Marshal(req)
	if err != nil {
		return wireResponse{}, fmt.Errorf("server: encode: %w", err)
	}
	b = append(b, '\n')
	if c.cfg.IOTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
	if _, err := c.conn.Write(b); err != nil {
		return wireResponse{}, fmt.Errorf("server: send: %w", err)
	}
	line, err := readLine(c.br, c.cfg.maxLine())
	if err != nil {
		return wireResponse{}, fmt.Errorf("server: recv: %w", err)
	}
	var resp wireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
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
func (c *Client) AccessTraced(tc obs.TraceContext, id string, op model.Operation, res model.ResourceID, program string, payload []byte) ([]byte, error) {
	c.mu.Lock()
	req := wireRequest{
		Type:     "access",
		ID:       id,
		Token:    c.token,
		Op:       string(op),
		Resource: string(res),
		Program:  program,
		Proofs:   c.proofs[:len(c.proofs):len(c.proofs)],
		Payload:  payload,
		Trace:    tc.String(),
	}
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
	if err != nil {
		return nil, err
	}
	if resp.Proof != nil {
		c.addProof(*resp.Proof)
	}
	return resp.Data, nil
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

// ImportProofs seeds the client's carried history (e.g. when migrating
// from another server).
func (c *Client) ImportProofs(ps []proof.Proof) {
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
