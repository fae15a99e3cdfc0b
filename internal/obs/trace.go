package obs

// This file is the distributed-tracing half of the observability
// layer: a mobile object's itinerary is one trace, and every hop,
// wire request and authorisation decision along it is a span. The
// trace context (128-bit trace ID + 64-bit span ID) is minted when the
// itinerary starts, rides the TCP wire protocol on every hop, and is
// carried into the engine so a denial at server s_k can be followed
// back through every prior hop that shaped the history it was decided
// on.
//
// The design goals mirror the metrics half:
//
//   - Near-zero cost when off. Sampling is decided once per context;
//     StartSpan on an unsampled context (or a sampling-off tracer) is
//     a few branches and no allocation, and every *Span method is
//     nil-safe so instrumented code never tests for enablement.
//   - Stdlib only. Completed spans land in a fixed-capacity ring
//     (TraceStore) and export as Chrome trace-event JSON, loadable in
//     chrome://tracing or Perfetto, served from /debug/trace.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier shared by every span of one
// mobile object's itinerary.
type TraceID [16]byte

// IsZero reports whether the ID is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is a 64-bit span identifier, unique within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses 32 hex digits.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// ParseSpanID parses 16 hex digits.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 2*len(id) {
		return SpanID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, true
}

// TraceContext is the propagated correlation state: which trace the
// caller is in, which span is the current parent, and whether spans
// are being recorded for this trace.
type TraceContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context carries a trace identity.
func (tc TraceContext) Valid() bool { return !tc.Trace.IsZero() }

// String renders the context in the wire form
// "<32 hex>-<16 hex>-<01|00>" (the last field is the sampled flag). An
// invalid context renders as "".
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	flag := "00"
	if tc.Sampled {
		flag = "01"
	}
	return tc.Trace.String() + "-" + tc.Span.String() + "-" + flag
}

// ParseTraceContext parses the wire form produced by String. A bare
// 32-hex trace ID is also accepted (no parent span, unsampled).
func ParseTraceContext(s string) (TraceContext, bool) {
	if s == "" {
		return TraceContext{}, false
	}
	parts := strings.Split(s, "-")
	tid, ok := ParseTraceID(parts[0])
	if !ok {
		return TraceContext{}, false
	}
	tc := TraceContext{Trace: tid}
	if len(parts) > 1 {
		if sid, ok := ParseSpanID(parts[1]); ok {
			tc.Span = sid
		}
	}
	if len(parts) > 2 {
		tc.Sampled = parts[2] == "01"
	}
	return tc, true
}

// idSource is a process-seeded PRNG for trace and span IDs — unique
// enough for correlation, cheap enough to mint per itinerary without a
// syscall per ID.
var idSource = struct {
	mu sync.Mutex
	r  *mrand.Rand
}{r: mrand.New(mrand.NewSource(idSeed()))}

func idSeed() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func randBytes(p []byte) {
	idSource.mu.Lock()
	defer idSource.mu.Unlock()
	for i := 0; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], idSource.r.Uint64())
	}
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		randBytes(id[:])
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		randBytes(id[:])
	}
	return id
}

// NewDecisionID mints an identifier for one authorisation decision —
// the key correlating a wire response, the audit record, and the
// decision's span tree.
func NewDecisionID() string { return "d-" + newSpanID().String() }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. Spans are created by
// Tracer.StartSpan and recorded into the tracer's store by Finish. A
// nil *Span is a valid no-op span, so instrumented code never branches
// on whether tracing is enabled.
type Span struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Service  string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr

	tracer *Tracer
}

// SetAttr annotates the span. No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetService names the component the span ran in (engine, a coalition
// server, an agent runtime); the Chrome export maps services to rows.
// No-op on a nil span.
func (s *Span) SetService(service string) {
	if s == nil {
		return
	}
	s.Service = service
}

// Context returns the context that makes this span the parent — what
// instrumented code propagates to callees. A nil span returns the zero
// (invalid) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{Trace: s.TraceID, Span: s.SpanID, Sampled: true}
}

// Finish stamps the duration and records the span. No-op on a nil
// span; finishing twice records twice (don't).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	if s.tracer != nil && s.tracer.store != nil {
		s.tracer.store.Add(*s)
	}
}

// DefaultTraceCapacity is the span capacity of a tracer's ring buffer
// when none is given.
const DefaultTraceCapacity = 8192

// Tracer mints trace contexts and records spans into a ring-buffered
// store. The zero value is not usable; use NewTracer. A nil *Tracer is
// a valid no-op tracer.
type Tracer struct {
	store    *TraceStore
	sampling atomic.Bool
}

// NewTracer creates a tracer with its own store of the given span
// capacity (0 for DefaultTraceCapacity). Sampling starts on.
func NewTracer(capacity int) *Tracer {
	t := &Tracer{store: NewTraceStore(capacity)}
	t.sampling.Store(true)
	return t
}

// DefaultTracer is the process-wide tracer every component falls back
// to when none is injected. Its sampling starts OFF so that embedding
// the library costs nothing until a daemon (or test) opts in.
var DefaultTracer = func() *Tracer {
	t := NewTracer(DefaultTraceCapacity)
	t.SetSampling(false)
	return t
}()

// Store returns the tracer's span store (nil for a nil tracer).
func (t *Tracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

// SetSampling turns span recording on or off; contexts minted while
// off are unsampled, so the decision propagates across hops.
func (t *Tracer) SetSampling(on bool) {
	if t != nil {
		t.sampling.Store(on)
	}
}

// Sampling reports whether the tracer records spans.
func (t *Tracer) Sampling() bool { return t != nil && t.sampling.Load() }

// NewContext mints a fresh trace context (a new trace ID, no parent
// span), sampled per the tracer's sampling switch. Even unsampled
// contexts carry a trace ID: audit records and wire replies still
// correlate when span recording is off.
func (t *Tracer) NewContext() TraceContext {
	return TraceContext{Trace: newTraceID(), Sampled: t.Sampling()}
}

// StartSpan begins a span under the given context and returns it with
// the child context callees should receive. When the tracer is nil or
// not sampling, or the context is unsampled or invalid, it returns a
// nil (no-op) span and the context unchanged — the cheap path costs a
// few branches.
func (t *Tracer) StartSpan(tc TraceContext, name string) (*Span, TraceContext) {
	if t == nil || !tc.Sampled || !tc.Valid() || !t.sampling.Load() {
		return nil, tc
	}
	sp := &Span{
		TraceID: tc.Trace,
		SpanID:  newSpanID(),
		Parent:  tc.Span,
		Name:    name,
		Start:   time.Now(),
		tracer:  t,
	}
	child := tc
	child.Span = sp.SpanID
	return sp, child
}

// TraceStore is a fixed-capacity ring of completed spans: old spans
// are evicted in completion order once the capacity is reached.
type TraceStore struct {
	mu   sync.Mutex
	ring *Ring[Span]
}

// NewTraceStore creates a store retaining up to capacity spans (0 for
// DefaultTraceCapacity).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceStore{ring: NewRing[Span](capacity)}
}

// Add records one completed span, evicting the oldest beyond capacity.
func (st *TraceStore) Add(sp Span) {
	sp.tracer = nil
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ring.Append(sp)
}

// Spans returns the retained spans in completion order (oldest first).
func (st *TraceStore) Spans() []Span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.Snapshot()
}

// Trace returns the retained spans of one trace, in completion order.
func (st *TraceStore) Trace(id TraceID) []Span {
	var out []Span
	for _, sp := range st.Spans() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

// TraceIDs returns the distinct trace IDs present in the store, in
// first-completion order (oldest trace first).
func (st *TraceStore) TraceIDs() []TraceID {
	seen := map[TraceID]bool{}
	var out []TraceID
	for _, sp := range st.Spans() {
		if !seen[sp.TraceID] {
			seen[sp.TraceID] = true
			out = append(out, sp.TraceID)
		}
	}
	return out
}

// Len returns the number of retained spans.
func (st *TraceStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.Len()
}

// Total returns the number of spans ever recorded (retained or
// evicted).
func (st *TraceStore) Total() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return int(st.ring.Total())
}

// chromeEvent is one Chrome trace-event ("X" = complete event with
// timestamp and duration, both in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders spans in the Chrome trace-event JSON
// format. Each distinct service gets its own thread row; span and
// parent IDs ride in args so the tree survives the export.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	tids := map[string]int{}
	services := make([]string, 0, 4)
	for _, sp := range spans {
		svc := sp.Service
		if svc == "" {
			svc = "stac"
		}
		if _, ok := tids[svc]; !ok {
			tids[svc] = len(services) + 1
			services = append(services, svc)
		}
	}
	ct := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+len(services))}
	// Thread-name metadata events label the rows.
	for _, svc := range services {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 1, Tid: tids[svc],
			Args: map[string]string{"name": svc},
		})
	}
	for _, sp := range spans {
		svc := sp.Service
		if svc == "" {
			svc = "stac"
		}
		args := map[string]string{
			"trace_id": sp.TraceID.String(),
			"span_id":  sp.SpanID.String(),
		}
		if !sp.Parent.IsZero() {
			args["parent_id"] = sp.Parent.String()
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: sp.Name,
			Cat:  "stac",
			Ph:   "X",
			Ts:   sp.Start.UnixMicro(),
			Dur:  sp.Duration.Microseconds(),
			Pid:  1,
			Tid:  tids[svc],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// TraceHandler serves a trace store over HTTP — mount it at
// /debug/trace. Without parameters it lists the retained traces as
// JSON; with ?id=<32 hex> it exports that trace in Chrome trace-event
// format.
func TraceHandler(st *TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if st == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		idArg := req.URL.Query().Get("id")
		if idArg == "" {
			type summary struct {
				ID    string `json:"id"`
				Spans int    `json:"spans"`
			}
			counts := map[TraceID]int{}
			for _, sp := range st.Spans() {
				counts[sp.TraceID]++
			}
			out := struct {
				Traces []summary `json:"traces"`
				Total  int       `json:"total_spans"`
			}{Traces: []summary{}, Total: st.Total()}
			for _, id := range st.TraceIDs() {
				out.Traces = append(out.Traces, summary{ID: id.String(), Spans: counts[id]})
			}
			sort.Slice(out.Traces, func(i, j int) bool { return out.Traces[i].ID < out.Traces[j].ID })
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(out)
			return
		}
		id, ok := ParseTraceID(idArg)
		if !ok {
			http.Error(w, fmt.Sprintf("bad trace id %q", idArg), http.StatusBadRequest)
			return
		}
		spans := st.Trace(id)
		if len(spans) == 0 {
			http.Error(w, fmt.Sprintf("no spans for trace %s", id), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, spans)
	})
}
