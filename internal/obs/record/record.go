package record

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"stac/internal/hlc"
	"stac/internal/obs"
)

// SchemaVersion is the record schema this package writes and the
// newest it can read. See doc.go for the versioning rules. Version 2
// added HistoryBase (delta-encoded decide histories) and
// ProgramCached (interned decide programs); version 1 streams carry
// full histories and programs and read unchanged.
const SchemaVersion = 2

// Event kinds. See doc.go for what each captures.
const (
	KindArrive     = "arrive"
	KindActivate   = "activate"
	KindDeactivate = "deactivate"
	KindGrant      = "grant"
	KindDecide     = "decide"
)

// HistoryEntry is one access of the proof-backed history carried by a
// decide record. Proven is the proof oracle's verdict on the entry at
// decision time, so a replay reproduces the exact scan-path
// semantics without re-deriving proofs.
type HistoryEntry struct {
	Object   string `json:"object"`
	Op       string `json:"op"`
	Resource string `json:"resource"`
	Server   string `json:"server"`
	Proven   bool   `json:"proven"`
}

// Record is one recorded engine event. Field presence depends on
// Kind; unused fields are omitted from the JSON form.
type Record struct {
	Schema int     `json:"schema"`
	Seq    uint64  `json:"seq"`
	Kind   string  `json:"kind"`
	Time   float64 `json:"time"`
	// HLC is the event's hybrid logical timestamp (compact wire form,
	// internal/hlc) — the coalition-wide causal order the journal
	// merge sorts by. Optional: records written before the HLC existed
	// have none, and replay ignores it (local Time and Seq fully
	// determine replay), so its addition is not a schema bump.
	HLC string `json:"hlc,omitempty"`
	// Policy is the SHA-256 digest of the engine's loaded policy.
	Policy string `json:"policy,omitempty"`

	// Object/Server locate the event; on decide and grant records the
	// four access fields (Object, Op, Resource, Server) form the
	// requested "op resource @ server" access.
	Object   string `json:"object,omitempty"`
	Server   string `json:"server,omitempty"`
	Op       string `json:"op,omitempty"`
	Resource string `json:"resource,omitempty"`

	// User/Roles identify the subject (activate, deactivate, decide).
	User  string   `json:"user,omitempty"`
	Roles []string `json:"roles,omitempty"`

	// Decide inputs. History is delta-encoded since schema 2: the
	// record's full proof-backed history is the first HistoryBase
	// entries of the object's PREVIOUS decide record's (reconstructed)
	// history, followed by this record's own History entries. A
	// HistoryBase of 0 — every schema 1 record, and any record after a
	// history reorder/shrink — means History is complete on its own.
	History     []HistoryEntry `json:"history,omitempty"`
	HistoryBase int            `json:"history_base,omitempty"`
	// Program is the declared SRAL program, interned since schema 2:
	// it is recorded in full only when it differs (structurally) from
	// the program on the object's previous decide record;
	// ProgramCached marks a decide whose program equals that previous
	// one. An empty Program with ProgramCached false means the request
	// declared no program (unchanged from schema 1).
	Program       string `json:"program,omitempty"`
	ProgramCached bool   `json:"program_cached,omitempty"`

	// Decide outcome.
	Granted        bool            `json:"granted,omitempty"`
	Perm           string          `json:"perm,omitempty"`
	Deny           string          `json:"deny,omitempty"`
	Reason         string          `json:"reason,omitempty"`
	Spatial        string          `json:"spatial,omitempty"`
	ProgramVerdict string          `json:"program_verdict,omitempty"`
	Temporal       string          `json:"temporal,omitempty"`
	DecisionID     string          `json:"decision_id,omitempty"`
	TraceID        string          `json:"trace_id,omitempty"`
	Explanation    json.RawMessage `json:"explanation,omitempty"`

	// Temporal budget snapshot of the covering permission at decision
	// time: consumed valid duration vs dur(perm) (-1 = infinite),
	// under the named base-time scheme.
	Consumed float64 `json:"consumed_s,omitempty"`
	Budget   float64 `json:"budget_s,omitempty"`
	Scheme   string  `json:"scheme,omitempty"`

	// Served outcome (decide only). ServedReason is set when the
	// server denied an access the engine granted ("unknown resource"),
	// so the served verdict is Granted && ServedReason == "". Shadow is
	// the candidate policy's verdict under live shadow evaluation.
	// Replay ignores both, so like HLC their addition is not a schema
	// bump.
	ServedReason string         `json:"served_reason,omitempty"`
	Shadow       *ShadowVerdict `json:"shadow,omitempty"`
}

// ShadowVerdict is a candidate policy's view of one decision, carried
// on its decide record when live shadow evaluation is enabled.
type ShadowVerdict struct {
	// Granted is the candidate verdict; Flip reports it disagrees with
	// the engine's.
	Granted bool `json:"granted"`
	Flip    bool `json:"flip"`
	// Deny/Reason explain the denying side of a flip; Clause names the
	// SRAC subformula responsible (empty for temporal/RBAC flips,
	// where Detail carries the budget or role arithmetic).
	Deny   string `json:"deny,omitempty"`
	Reason string `json:"reason,omitempty"`
	Clause string `json:"clause,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Validate checks the structural invariants every readable record
// must satisfy.
func (r Record) Validate() error {
	if r.Schema < 1 {
		return fmt.Errorf("record: missing schema version")
	}
	if r.Schema > SchemaVersion {
		return fmt.Errorf("record: schema %d newer than supported %d", r.Schema, SchemaVersion)
	}
	switch r.Kind {
	case KindArrive, KindActivate, KindDeactivate, KindGrant, KindDecide:
	default:
		return fmt.Errorf("record: unknown kind %q", r.Kind)
	}
	if r.HistoryBase < 0 {
		return fmt.Errorf("record: negative history base %d", r.HistoryBase)
	}
	if r.HistoryBase > 0 && r.Kind != KindDecide {
		return fmt.Errorf("record: history base on %q record", r.Kind)
	}
	if r.ProgramCached && r.Kind != KindDecide {
		return fmt.Errorf("record: cached program on %q record", r.Kind)
	}
	if (r.ServedReason != "" || r.Shadow != nil) && r.Kind != KindDecide {
		return fmt.Errorf("record: served outcome on %q record", r.Kind)
	}
	if r.ProgramCached && r.Program != "" {
		return fmt.Errorf("record: cached program alongside inline program")
	}
	if r.HLC != "" {
		if _, err := hlc.Parse(r.HLC); err != nil {
			return fmt.Errorf("record: %v", err)
		}
	}
	return nil
}

// Encode writes the record as one JSON line.
func Encode(w io.Writer, r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode parses one JSON line into a validated record.
func Decode(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("record: decode: %w", err)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// ReadAll decodes a whole JSONL stream (a WAL file) with Scan.
func ReadAll(r io.Reader) ([]Record, error) {
	var out []Record
	if err := Scan(r, func(rec Record) bool {
		out = append(out, rec)
		return true
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Scan decodes a JSONL stream (a WAL file) one line at a time, calling
// fn on each record until fn returns false, and skips blank lines. The
// first malformed line aborts with its line number, except a final
// line with no trailing newline that fails to decode: that is the torn
// tail of a daemon killed mid-append, and is dropped.
func Scan(r io.Reader, fn func(Record) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		torn = atEOF && len(data) > 0 && bytes.IndexByte(data, '\n') < 0
		return bufio.ScanLines(data, atEOF)
	})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := Decode(line)
		if err != nil && torn {
			break
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if !fn(rec) {
			return nil
		}
	}
	return sc.Err()
}

// OpenWAL opens the WAL file at path for appending, creating it if
// needed. A regular file that does not end in a newline ends in the
// tail of an append cut short (a full disk, a killed daemon). Appended
// to as it is, the next record would fuse with that fragment into one
// malformed line that stops every reader, so OpenWAL first ends the
// tail as Scan reads it: a fragment that fails to decode is truncated
// away (Scan drops it anyway), and a record that decodes gets its
// newline.
func OpenWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := endTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("record: %s: %w", path, err)
	}
	return f, nil
}

// endTail ends a torn final line of the append-only WAL file f (see
// OpenWAL). It reads the tail back through a second, read-only handle.
func endTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() || st.Size() == 0 {
		return err
	}
	rf, err := os.Open(f.Name())
	if err != nil {
		return err
	}
	defer rf.Close()
	// start is where the final line begins: just past the last newline.
	end, start := st.Size(), int64(0)
	buf := make([]byte, 64*1024)
	for off := end; off > 0; {
		n := min(int64(len(buf)), off)
		off -= n
		if _, err := rf.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			start = off + int64(i) + 1
			break
		}
	}
	if start == end {
		return nil
	}
	tail := make([]byte, end-start)
	if _, err := rf.ReadAt(tail, start); err != nil {
		return err
	}
	if _, err := Decode(tail); err == nil {
		_, err = f.Write([]byte{'\n'})
		return err
	}
	return f.Truncate(start)
}

// Config configures a Recorder.
type Config struct {
	// Capacity bounds the in-memory ring (<= 0 selects 1024).
	Capacity int
	// WAL, when non-nil, receives every record as one JSON line. A
	// failed write permanently degrades the recorder to ring-only.
	WAL io.Writer
	// Registry receives stac_recorder_* metrics (nil = obs.Default).
	Registry *obs.Registry
	// PolicyDigest is stamped onto every record (core.PolicyDigest of
	// the engine's loaded policy; core.Engine.SetRecorder sets it on a
	// recorder of replay inputs). Attach the recorder after loading
	// the policy so the digest matches the decisions it governs.
	PolicyDigest string
	// DecisionsOnly keeps decide records without their replay inputs:
	// no arrive/activate/deactivate/grant records, and no subject,
	// history or program on decides. It is the coalition decision
	// log's default; `stacd -record` turns the inputs on.
	DecisionsOnly bool
}

const defaultCapacity = 1024

// Status is the recorder's observable state, folded into the daemon
// snapshot.
type Status struct {
	// Total counts every record ever appended; Retained is the
	// current ring occupancy.
	Total    uint64 `json:"total"`
	Retained int    `json:"retained"`
	Capacity int    `json:"capacity"`
	// WALConfigured reports a WAL was attached; WALDegraded that it
	// failed and the recorder fell back to ring-only.
	WALConfigured bool   `json:"wal_configured"`
	WALDegraded   bool   `json:"wal_degraded"`
	WALError      string `json:"wal_error,omitempty"`
	// Errors counts this recorder's failed WAL appends; each also
	// increments the registry's stac_recorder_errors_total, which
	// recorders sharing a registry add up.
	Errors int64 `json:"errors"`
	// PolicyDigest is the digest stamped on new records.
	PolicyDigest string `json:"policy_digest,omitempty"`
}

// Recorder is the flight recorder: a fixed-capacity ring of records
// plus the optional WAL. Safe for concurrent use; Append never fails
// the caller.
type Recorder struct {
	mu     sync.Mutex
	ring   *obs.Ring[Record]
	wal    io.Writer
	walErr error
	// failed counts this recorder's failed WAL appends (Status.Errors).
	failed int64
	policy string
	inputs bool

	records *obs.Counter
	errs    *obs.Counter
}

// New creates a recorder.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	return &Recorder{
		ring:   obs.NewRing[Record](cfg.Capacity),
		wal:    cfg.WAL,
		policy: cfg.PolicyDigest,
		inputs: !cfg.DecisionsOnly,
		records: reg.Counter("stac_recorder_records_total", "",
			"Engine events captured by the decision flight recorder."),
		errs: reg.Counter("stac_recorder_errors_total", "",
			"Recorder WAL appends that failed (recorder degraded to ring-only)."),
	}
}

// Inputs reports whether the recorder captures replay inputs (see
// Config.DecisionsOnly).
func (r *Recorder) Inputs() bool { return r.inputs }

// SetPolicyDigest replaces the digest stamped on subsequent records
// (after a policy reload).
func (r *Recorder) SetPolicyDigest(d string) {
	r.mu.Lock()
	r.policy = d
	r.mu.Unlock()
}

// Append stamps the record (schema, seq, policy digest) and stores
// it: ring always, WAL until its first failure. It never returns an
// error — a broken WAL degrades recording, not authorisation.
func (r *Recorder) Append(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Schema = SchemaVersion
	rec.Seq = r.ring.Total() + 1
	rec.Policy = r.policy
	r.ring.Append(rec)
	r.records.Inc()
	if r.wal != nil && r.walErr == nil {
		if err := Encode(r.wal, rec); err != nil {
			// Sticky degradation: one failure silences the WAL for
			// good. The ring keeps recording and the counter + Status
			// surface the loss.
			r.walErr = err
			r.failed++
			r.errs.Inc()
		}
	}
}

// RecordsSince returns the retained records with Seq > cursor in
// append order, the number of records between cursor and the first
// returned one that were evicted from the ring (the journal gap), and
// the recorder's total appended count. A cursor of 0 reads from the
// oldest retained record; a cursor at or past total returns nothing.
// This is the resumable read the /debug/journal tail is built on:
// callers poll with their last-seen Seq and never block Append.
func (r *Recorder) RecordsSince(cursor uint64) (recs []Record, missed uint64, total uint64) {
	return r.RecordsSinceN(cursor, 0)
}

// RecordsSinceN is RecordsSince with a batch bound: at most limit
// records are copied — and the ring mutex held — per call (limit <= 0
// means unlimited). The journal tail drains deep backlogs in bounded
// batches so a slow follower never holds the ring against the
// decision path's Append for O(backlog).
func (r *Recorder) RecordsSinceN(cursor uint64, limit int) (recs []Record, missed uint64, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Seq is the ring's sequence number, so the ring's gap arithmetic
	// is the journal's.
	return r.ring.Since(cursor, limit)
}

// Records returns the retained records in append order.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Snapshot()
}

// Each calls fn on the retained records in append order until fn
// returns false, holding the ring's mutex: fn must not call back into
// the recorder.
func (r *Recorder) Each(fn func(Record) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Each(fn)
}

// Status reports the recorder's current state.
func (r *Recorder) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Total:         r.ring.Total(),
		Retained:      r.ring.Len(),
		Capacity:      r.ring.Cap(),
		WALConfigured: r.wal != nil,
		WALDegraded:   r.walErr != nil,
		Errors:        r.failed,
		PolicyDigest:  r.policy,
	}
	if r.walErr != nil {
		st.WALError = r.walErr.Error()
	}
	return st
}
