package server

import (
	"encoding/json"
	"fmt"
	"io"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs/record"
)

// This file provides the agent-monitoring facility of the Naplet
// system (Section 5 lists "mechanisms for agent monitoring, control"):
// every authorisation decision any coalition server makes is written
// once, as one decide record, to the coalition's decision log — the
// engine's flight-recorder ring (internal/obs/record), which every
// coalition attaches. The security officer reads it per server (Audit,
// the `audit` wire verb), by decision ID (Explain, /debug/explain) and
// live (the /debug/journal tail); the recorder's WAL (`stacd
// -record-wal`) is its one durable file, which `stacctl explain -wal`
// reads offline. AuditEntry is the read-side shape of a decide record.

// AuditEntry is one served authorisation decision as the decision log
// serves it (see AuditFromRecord), carrying everything `stacctl
// explain` needs: the correlation IDs, the outcome, and the denial
// explanation (violated SRAC clause with its count windows, or the
// temporal budget arithmetic).
type AuditEntry struct {
	DecisionID string `json:"decision_id"`
	TraceID    string `json:"trace_id,omitempty"`
	// HLC is the decision's hybrid logical timestamp (internal/hlc),
	// shared with the wire reply and the journal record, so audit
	// lines from different members merge into one causal order.
	HLC string `json:"hlc,omitempty"`
	// Time is the deciding server's local clock reading.
	Time           float64           `json:"time"`
	Server         string            `json:"server"`
	Object         string            `json:"object"`
	Op             string            `json:"op"`
	Resource       string            `json:"resource"`
	Granted        bool              `json:"granted"`
	Perm           string            `json:"perm,omitempty"`
	DenyReason     string            `json:"deny_reason,omitempty"`
	Reason         string            `json:"reason,omitempty"`
	SpatialStatus  string            `json:"spatial_status"`
	ProgramVerdict string            `json:"program_verdict"`
	TemporalState  string            `json:"temporal_state"`
	Explanation    *core.Explanation `json:"explanation,omitempty"`
	// Shadow is the candidate policy's verdict for the same request
	// (nil unless shadow evaluation is enabled).
	Shadow *record.ShadowVerdict `json:"shadow,omitempty"`
}

// AuditFromRecord projects a decide record onto an AuditEntry: the
// served verdict and reason (an engine grant the server refused reads
// as that denial), with Time on the deciding engine's clock.
func AuditFromRecord(r record.Record) AuditEntry {
	e := AuditEntry{
		DecisionID:     r.DecisionID,
		TraceID:        r.TraceID,
		HLC:            r.HLC,
		Time:           r.Time,
		Server:         r.Server,
		Object:         r.Object,
		Op:             r.Op,
		Resource:       r.Resource,
		Granted:        r.Granted && r.ServedReason == "",
		Perm:           r.Perm,
		DenyReason:     r.Deny,
		Reason:         r.Reason,
		SpatialStatus:  r.Spatial,
		ProgramVerdict: r.ProgramVerdict,
		TemporalState:  r.Temporal,
		Shadow:         r.Shadow,
	}
	if r.ServedReason != "" {
		e.Reason = r.ServedReason
	}
	if len(r.Explanation) > 0 {
		e.Explanation = new(core.Explanation)
		if json.Unmarshal(r.Explanation, e.Explanation) != nil {
			e.Explanation = nil
		}
	}
	return e
}

// auditEntry projects one of the server's decide records, with Time on
// the server's local clock.
func (s *Server) auditEntry(r record.Record) AuditEntry {
	e := AuditFromRecord(r)
	s.mu.RLock()
	e.Time += s.clockSkew
	s.mu.RUnlock()
	return e
}

// decisions returns the decide records the decision log retains for
// which keep holds, in decision order.
func (c *Coalition) decisions(keep func(record.Record) bool) []record.Record {
	var out []record.Record
	c.Engine.Recorder().Each(func(r record.Record) bool {
		if r.Kind == record.KindDecide && keep(r) {
			out = append(out, r)
		}
		return true
	})
	return out
}

// String renders the entry as the security officer reads it: one line
// of the `audit` wire verb and of `stacctl run`'s decision trail.
func (e AuditEntry) String() string {
	verdict := "GRANT"
	if !e.Granted {
		verdict = "DENY "
	}
	access := model.NewAccess(model.ObjectID(e.Object), model.Operation(e.Op),
		model.ResourceID(e.Resource), model.ServerID(e.Server))
	out := fmt.Sprintf("t=%-8.6g %s %s %s", e.Time, e.Server, verdict, access)
	if !e.Granted && e.Reason != "" {
		out += " — " + e.Reason
	}
	return out
}

// WriteTranscript prints the decision transcript `stacctl explain`
// shows: the outcome, the correlation IDs, the per-layer verdicts,
// and — for denials — the violated SRAC clause with its counting
// windows or the temporal budget arithmetic. The -addr and -wal paths
// both end here. They print the same bytes for one decision when the
// server has no clock skew set (stacd sets none): /debug/explain adds
// the server's skew to t=, and the WAL holds the coalition clock.
func (e AuditEntry) WriteTranscript(w io.Writer) {
	verdict := "GRANTED"
	if !e.Granted {
		verdict = "DENIED"
		if e.DenyReason != "" {
			verdict += " (" + e.DenyReason + ")"
		}
	}
	fmt.Fprintf(w, "decision %s @ %s — %s\n", e.DecisionID, e.Server, verdict)
	if e.TraceID != "" {
		fmt.Fprintf(w, "  trace:    %s\n", e.TraceID)
	}
	fmt.Fprintf(w, "  access:   %s %s @ %s by %s (t=%g)\n", e.Op, e.Resource, e.Server, e.Object, e.Time)
	if e.Perm != "" {
		fmt.Fprintf(w, "  perm:     %s\n", e.Perm)
	}
	fmt.Fprintf(w, "  program:  %s\n", e.ProgramVerdict)
	fmt.Fprintf(w, "  spatial:  %s\n", e.SpatialStatus)
	fmt.Fprintf(w, "  temporal: %s\n", e.TemporalState)
	if x := e.Explanation; x != nil {
		if x.Clause != "" {
			fmt.Fprintf(w, "  violated clause: %s\n", x.Clause)
		}
		if x.Detail != "" {
			fmt.Fprintf(w, "  detail:   %s\n", x.Detail)
		}
		for _, cw := range x.Counts {
			fmt.Fprintf(w, "  window:   %s\n", cw.String())
		}
		if t := x.Temporal; t != nil {
			budget := "unlimited"
			if t.Budget >= 0 {
				budget = fmt.Sprintf("%g s", t.Budget)
			}
			fmt.Fprintf(w, "  budget:   consumed %g s of %s (%s scheme, %g s remaining)\n",
				t.Consumed, budget, t.Scheme, t.Remaining)
		}
	}
	if e.Reason != "" {
		fmt.Fprintf(w, "  reason:   %s\n", e.Reason)
	}
}

// Audit returns the server's decisions still in the coalition log, in
// order, and the total number of decisions it has made (which may
// exceed what the log retains).
func (s *Server) Audit() ([]AuditEntry, int) {
	grants, denies := s.Counters()
	recs := s.coalition.decisions(func(r record.Record) bool { return r.Server == string(s.id) })
	out := make([]AuditEntry, 0, len(recs))
	for _, r := range recs {
		out = append(out, s.auditEntry(r))
	}
	return out, grants + denies
}

// retainedByServer counts the coalition log's decisions per server.
func (c *Coalition) retainedByServer() map[string]int {
	out := make(map[string]int)
	c.Engine.Recorder().Each(func(r record.Record) bool {
		if r.Kind == record.KindDecide {
			out[r.Server]++
		}
		return true
	})
	return out
}

// Explain looks a decision up by ID in the coalition log — the lookup
// behind `stacctl explain` and the daemon's /debug/explain endpoint.
func (c *Coalition) Explain(decisionID string) (AuditEntry, bool) {
	if decisionID == "" {
		return AuditEntry{}, false
	}
	recs := c.decisions(func(r record.Record) bool { return r.DecisionID == decisionID })
	if len(recs) == 0 {
		return AuditEntry{}, false
	}
	r := recs[0]
	if s, err := c.Server(model.ServerID(r.Server)); err == nil {
		return s.auditEntry(r), true
	}
	return AuditFromRecord(r), true
}
