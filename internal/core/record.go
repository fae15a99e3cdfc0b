package core

// Flight-recorder hooks. The attached recorder is the decision log:
// LogDecision writes one decide record per served decision. When the
// recorder also captures replay inputs, the engine adds, per
// replay-relevant event (arrival, permission activation/deactivation,
// executed grant), the input record core.Replay needs, and the
// subject, history and program on each decide. The recorder pointer is
// atomic so an engine without one pays one nil-check per event.

import (
	"encoding/json"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/sral"
	"stac/internal/temporal"
)

// SetRecorder attaches (or, with nil, detaches) a decision flight
// recorder. A recorder of replay inputs gets the engine's current
// policy digest, which tells a replay what policy it must run, so
// attach it AFTER loading the policy; a decisions-only recorder
// carries none. Like SetObs, call it during setup; swapping
// mid-traffic loses no decisions but may interleave digests. A
// coalition's engine always has one (its decision log).
func (e *Engine) SetRecorder(r *record.Recorder) {
	if r != nil && r.Inputs() {
		r.SetPolicyDigest(PolicyDigest(e))
	}
	// A fresh recorder has no history context: drop every object's
	// delta base and interned program so the first decide per object
	// re-records both in full rather than referencing records the new
	// stream never saw.
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for _, os := range sh.objs {
			os.recMu.Lock()
			os.recHist = nil
			os.recProg = nil
			os.recMu.Unlock()
		}
		sh.mu.RUnlock()
	}
	e.recorder.Store(r)
}

// Recorder returns the attached flight recorder (nil when none is).
func (e *Engine) Recorder() *record.Recorder { return e.recorder.Load() }

// inputRecorder returns the attached recorder when it captures replay
// inputs, nil otherwise.
func (e *Engine) inputRecorder() *record.Recorder {
	if rec := e.recorder.Load(); rec != nil && rec.Inputs() {
		return rec
	}
	return nil
}

func (e *Engine) recordArrive(obj model.ObjectID, server model.ServerID, now float64) {
	rec := e.inputRecorder()
	if rec == nil {
		return
	}
	rec.Append(record.Record{
		Kind:   record.KindArrive,
		Time:   now,
		HLC:    e.hlcClock.Load().Now().String(),
		Object: string(obj),
		Server: string(server),
	})
}

func (e *Engine) recordSession(kind string, sess *rbac.Session, obj model.ObjectID, now float64) {
	rec := e.inputRecorder()
	if rec == nil {
		return
	}
	rec.Append(record.Record{
		Kind:   kind,
		Time:   now,
		HLC:    e.hlcClock.Load().Now().String(),
		Object: string(obj),
		User:   string(sess.User()),
		Roles:  roleNames(sess),
	})
}

// RecordGrant tells the engine an access was actually performed (the
// proof was issued). Servers call it once per granted access, and the
// flight recorder logs a grant record.
func (e *Engine) RecordGrant(a model.Access) {
	rec := e.inputRecorder()
	if rec == nil {
		return
	}
	rec.Append(record.Record{
		Kind:     record.KindGrant,
		Time:     e.clock.Now(),
		HLC:      e.hlcClock.Load().Now().String(),
		Object:   string(a.Object),
		Server:   string(a.Server),
		Op:       string(a.Op),
		Resource: string(a.Resource),
	})
}

// LogDecision writes one served decision to the attached recorder as
// its decide record, and returns it (as passed to the recorder, which
// stamps schema, seq and policy). Servers call it once per decision,
// after the outcome is known and before RecordGrant; engine-only
// callers that record call it after Authorize. servedReason is the
// server's own denial of an engine grant ("" when it served the
// engine verdict); shadow is the candidate policy's verdict (nil
// without shadow evaluation). ok is false when no recorder is
// attached.
func (e *Engine) LogDecision(tc obs.TraceContext, req Request, d Decision, servedReason string, shadow *record.ShadowVerdict) (r record.Record, ok bool) {
	rec := e.recorder.Load()
	if rec == nil {
		return r, false
	}
	r = record.Record{
		Kind: record.KindDecide,
		Time: d.now,
		// The decide record reuses the decision's own stamp (the one
		// on the wire reply), not a fresh tick: the journal event and
		// what the requesting agent observed must be the same instant.
		HLC:      d.HLC.String(),
		Object:   string(req.Access.Object),
		Server:   string(req.Access.Server),
		Op:       string(req.Access.Op),
		Resource: string(req.Access.Resource),

		Granted:        d.Granted,
		Perm:           string(d.Perm),
		Deny:           string(d.Deny),
		Reason:         d.Reason,
		Spatial:        d.Spatial.String(),
		ProgramVerdict: d.ProgramVerdict.String(),
		Temporal:       d.Temporal.String(),
		DecisionID:     d.ID,

		ServedReason: servedReason,
		Shadow:       shadow,
	}
	if tc.Valid() {
		r.TraceID = tc.Trace.String()
	}
	if d.Explanation != nil {
		if b, err := json.Marshal(d.Explanation); err == nil {
			r.Explanation = b
		}
	}
	// Active-permission snapshot: the covering permission's consumed
	// temporal budget vs dur(perm) under its base-time scheme.
	if d.Perm != "" {
		r.Budget = d.tk.dur
		if d.tk.dur == temporal.Infinite {
			r.Budget = -1
		}
		r.Scheme = d.tk.scheme.String()
		if v, ok := e.validity(req.Access.Object, d.tk, d.now); ok {
			r.Consumed = v.Used
		}
	}
	if !rec.Inputs() {
		rec.Append(r)
		return r, true
	}
	if req.Session != nil {
		r.User = string(req.Session.User())
		r.Roles = roleNames(req.Session)
	}
	return e.appendDecide(rec, req, r), true
}

// appendDecide delta-encodes the request's proof-backed history
// against the entries already recorded for the object and appends the
// record. Over an N-access tour this keeps the WAL O(N) instead of
// O(N²): each decide carries only the history suffix the stream has
// not seen, with HistoryBase pointing at the shared prefix (schema 2).
//
// The declared program is interned the same way: an agent declares
// one program and then decides against it for its whole itinerary, so
// re-rendering it per decide made the program — not the history — the
// residual O(N·|P|) recording cost. A decide whose program is
// structurally equal to the object's previous one carries only the
// ProgramCached flag.
//
// The recorded history carries each entry's proof verdict AT DECISION
// TIME, so a replay reproduces the oracle's answers without
// re-deriving proofs — which is also why the prefix comparison
// re-queries the oracle: a proven bit that flipped (merged ledgers,
// revoked proofs) must force a full re-record, or the replay would
// reproduce stale verdicts. Any prefix mismatch — reordered entries
// from a time-sorted ledger merge, a shrunk history after a session
// swap — falls back to a complete re-record with HistoryBase 0.
//
// os.recMu is held across both the delta computation and the recorder
// append, so concurrent decides for one object serialize here and
// every record's base refers to the object's previous record in
// stream order.
func (e *Engine) appendDecide(rec *record.Recorder, req Request, r record.Record) record.Record {
	os := e.objState(req.Access.Object)
	os.recMu.Lock()
	defer os.recMu.Unlock()
	if req.Program != nil {
		if os.recProg != nil && sral.Equal(os.recProg, req.Program) {
			r.ProgramCached = true
		} else {
			r.Program = sral.String(req.Program)
			os.recProg = req.Program
		}
	}
	n := len(req.History)
	base := len(os.recHist)
	if base > n {
		base = 0
	} else {
		for i := 0; i < base; i++ {
			a := req.History[i]
			prev := os.recHist[i]
			if prev.Object != string(a.Object) || prev.Op != string(a.Op) ||
				prev.Resource != string(a.Resource) || prev.Server != string(a.Server) ||
				prev.Proven != (req.Proofs == nil || req.Proofs.Proven(a)) {
				base = 0
				break
			}
		}
	}
	if n > base {
		r.History = make([]record.HistoryEntry, 0, n-base)
		for _, a := range req.History[base:] {
			r.History = append(r.History, record.HistoryEntry{
				Object:   string(a.Object),
				Op:       string(a.Op),
				Resource: string(a.Resource),
				Server:   string(a.Server),
				Proven:   req.Proofs == nil || req.Proofs.Proven(a),
			})
		}
	}
	r.HistoryBase = base
	if base == 0 {
		os.recHist = r.History
	} else {
		os.recHist = append(os.recHist[:base], r.History...)
	}
	rec.Append(r)
	return r
}

func roleNames(sess *rbac.Session) []string {
	roles := sess.ActiveRoles()
	if len(roles) == 0 {
		return nil
	}
	out := make([]string, len(roles))
	for i, rid := range roles {
		out[i] = string(rid)
	}
	return out
}
