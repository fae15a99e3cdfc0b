package server

import (
	"encoding/json"
	"fmt"
	"io"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
)

// This file provides the agent-monitoring facility of the Naplet
// system (Section 5 lists "mechanisms for agent monitoring, control"):
// every authorisation decision any coalition server makes is appended
// once to one coalition-wide decision log, a bounded ring of audit
// entries. The security officer reads it per server (Audit, the
// `audit` wire verb), by decision ID (Explain, /debug/explain) and
// live (/debug/watch follows it by cursor); the optional JSONL sink
// is its durable copy.

// decisionLogCapacity bounds the coalition decision log. It covers
// the 3 × 256 decisions the per-server windows of a default
// three-server stacd used to retain.
const decisionLogCapacity = 1024

// AuditEntry is one served authorisation decision — an entry of the
// coalition decision log and one line of the JSONL audit sink,
// carrying everything `stacctl explain` needs: the correlation IDs,
// the outcome, and the denial explanation (violated SRAC clause with
// its count windows, or the temporal budget arithmetic).
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
	Shadow *ShadowVerdict `json:"shadow,omitempty"`
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

// Audit returns the server's decisions still in the coalition log, in
// order, and the total number of decisions it has made (which may
// exceed what the log retains).
func (s *Server) Audit() ([]AuditEntry, int) {
	grants, denies := s.Counters()
	var out []AuditEntry
	c := s.coalition
	c.auditMu.Lock()
	c.decisions.Each(func(e AuditEntry) bool {
		if e.Server == string(s.id) {
			out = append(out, e)
		}
		return true
	})
	c.auditMu.Unlock()
	return out, grants + denies
}

// recordDecision builds the decision's audit entry and logs it.
func (s *Server) recordDecision(a model.Access, granted bool, reason string, dec core.Decision, tc obs.TraceContext, shadow *ShadowVerdict) {
	e := AuditEntry{
		DecisionID:     dec.ID,
		HLC:            dec.HLC.String(),
		Time:           s.localNow(),
		Server:         string(s.id),
		Object:         string(a.Object),
		Op:             string(a.Op),
		Resource:       string(a.Resource),
		Granted:        granted,
		Perm:           string(dec.Perm),
		DenyReason:     string(dec.Deny),
		Reason:         reason,
		SpatialStatus:  dec.Spatial.String(),
		ProgramVerdict: dec.ProgramVerdict.String(),
		TemporalState:  dec.Temporal.String(),
		Explanation:    dec.Explanation,
		Shadow:         shadow,
	}
	if tc.Valid() {
		e.TraceID = tc.Trace.String()
	}
	s.coalition.logDecision(e)
}

// logDecision appends one decision to the coalition log and, when a
// sink is set, writes it as a JSON line — under one lock, so the
// sink's line order is the log's.
func (c *Coalition) logDecision(e AuditEntry) {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	c.decisions.Append(e)
	if c.auditSink == nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		c.auditSinkFailedLocked(err)
		return
	}
	b = append(b, '\n')
	if _, err := c.auditSink.Write(b); err != nil {
		c.auditSinkFailedLocked(err)
		return
	}
	c.auditSinkErr = nil
}

// decisionsSince reads the coalition log past cursor, at most limit
// entries (see obs.Ring.Since).
func (c *Coalition) decisionsSince(cursor uint64, limit int) (entries []AuditEntry, missed, total uint64) {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	return c.decisions.Since(cursor, limit)
}

// decisionTotal returns the number of decisions ever logged.
func (c *Coalition) decisionTotal() uint64 {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	return c.decisions.Total()
}

// retainedByServer counts the coalition log's entries per server.
func (c *Coalition) retainedByServer() map[string]int {
	out := make(map[string]int)
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	c.decisions.Each(func(e AuditEntry) bool {
		out[e.Server]++
		return true
	})
	return out
}

// SetAuditSink directs every coalition server's decisions to w as JSON
// lines (nil disables). The write happens outside the request's fast
// path locks but inside the request, so a slow sink slows requests —
// hand it a buffered or async writer if that matters. Replacing the
// sink clears any recorded write failure.
func (c *Coalition) SetAuditSink(w io.Writer) {
	c.auditMu.Lock()
	c.auditSink = w
	c.auditSinkErr = nil
	c.auditMu.Unlock()
}

// AuditSinkStatus reports whether a JSONL sink is configured, the most
// recent write failure (nil when the last append succeeded), and the
// total number of failed appends. A failing sink means decisions are
// being LOST from the durable log — /readyz degrades on it.
func (c *Coalition) AuditSinkStatus() (configured bool, lastErr error, errors int64) {
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	return c.auditSink != nil, c.auditSinkErr, c.auditSinkErrs
}

// auditSinkFailedLocked records one lost decision: the sticky error
// degrades /readyz until a write succeeds (or the sink is replaced),
// and the counter surfaces the loss on /metrics.
func (c *Coalition) auditSinkFailedLocked(err error) {
	c.auditSinkErr = err
	c.auditSinkErrs++
	c.Engine.Obs().Counter("stac_audit_sink_errors_total", "",
		"Audit JSONL sink appends that failed (decisions lost from the durable log).").Inc()
}

// Explain looks a decision up by ID in the coalition log — the lookup
// behind `stacctl explain` and the daemon's /debug/explain endpoint.
func (c *Coalition) Explain(decisionID string) (AuditEntry, bool) {
	var found AuditEntry
	ok := false
	if decisionID == "" {
		return found, ok
	}
	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	c.decisions.Each(func(e AuditEntry) bool {
		if e.DecisionID == decisionID {
			found, ok = e, true
		}
		return !ok
	})
	return found, ok
}
