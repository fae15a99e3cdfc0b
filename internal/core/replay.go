package core

// Offline replay of a recorded decision stream: feed the flight
// recorder's records back through a FRESH engine under a simulated
// clock and either assert verdict-for-verdict equality with the live
// run (Replay — the determinism oracle) or re-decide every request
// under a CANDIDATE policy and report the verdict flips with the SRAC
// clause responsible (ShadowDiff — offline what-if analysis, the
// concrete counterpart of the symbolic reachability analyses in the
// related spatial/temporal verification work).

import (
	"encoding/json"
	"fmt"
	"strconv"

	"stac/internal/model"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// ReplayOptions tunes a replay run.
type ReplayOptions struct {
	// Coverage enables clause-coverage accounting on the replay
	// engine, so an offline run can report which clauses of the
	// (candidate) policy were decisive over the recorded traffic.
	Coverage bool
}

// Divergence is one field of one replayed decision that differs from
// the recorded outcome.
type Divergence struct {
	Seq        uint64 `json:"seq"`
	DecisionID string `json:"decision_id,omitempty"`
	Access     string `json:"access"`
	Field      string `json:"field"`
	Recorded   string `json:"recorded"`
	Replayed   string `json:"replayed"`
}

// ReplayResult summarises a determinism replay.
type ReplayResult struct {
	// Decisions is the number of decide records replayed.
	Decisions int `json:"decisions"`
	// PolicyMismatch reports that the replay engine's policy digest
	// differs from the digest stamped on the records — divergences are
	// then expected, not a determinism failure.
	PolicyMismatch bool   `json:"policy_mismatch,omitempty"`
	RecordedDigest string `json:"recorded_digest,omitempty"`
	ReplayDigest   string `json:"replay_digest,omitempty"`
	// Divergences lists every field of every decision that failed to
	// reproduce; empty means the stream replayed bit-identically.
	Divergences []Divergence `json:"divergences,omitempty"`
	// Coverage is the replay engine's per-clause table (with
	// ReplayOptions.Coverage).
	Coverage []cost.ClauseCost `json:"coverage,omitempty"`
}

// Deterministic reports whether every recorded verdict and
// explanation reproduced exactly.
func (r *ReplayResult) Deterministic() bool { return len(r.Divergences) == 0 }

// Replay feeds the recorded stream through a fresh engine running
// policySrc under a SimClock and compares every replayed decision —
// verdict, covering permission, deny reason, spatial/program/temporal
// statuses and the full explanation — against the recorded outcome.
// Decision IDs are excluded (they are minted randomly).
func Replay(policySrc string, records []record.Record, opts ReplayOptions) (*ReplayResult, error) {
	res := &ReplayResult{}
	eng, err := replayStream(policySrc, records, opts, func(rec record.Record, d Decision) {
		res.Decisions++
		acc := rec.Op + " " + rec.Resource + " @ " + rec.Server
		diff := func(field, recorded, replayed string) {
			if recorded != replayed {
				res.Divergences = append(res.Divergences, Divergence{
					Seq: rec.Seq, DecisionID: rec.DecisionID, Access: acc,
					Field: field, Recorded: recorded, Replayed: replayed,
				})
			}
		}
		diff("granted", strconv.FormatBool(rec.Granted), strconv.FormatBool(d.Granted))
		diff("perm", rec.Perm, string(d.Perm))
		diff("deny", rec.Deny, string(d.Deny))
		diff("reason", rec.Reason, d.Reason)
		diff("spatial", rec.Spatial, d.Spatial.String())
		diff("program_verdict", rec.ProgramVerdict, d.ProgramVerdict.String())
		diff("temporal", rec.Temporal, d.Temporal.String())
		diff("explanation", string(rec.Explanation), explanationJSON(d.Explanation))
	})
	if err != nil {
		return nil, err
	}
	if digest := recordedDigest(records); digest != "" {
		res.RecordedDigest = digest
		res.ReplayDigest = PolicyDigest(eng)
		res.PolicyMismatch = res.ReplayDigest != digest
	}
	if opts.Coverage {
		res.Coverage = eng.CostReport().Clauses
	}
	return res, nil
}

// Flip is one decision whose verdict changed under the candidate
// policy.
type Flip struct {
	Seq        uint64  `json:"seq"`
	DecisionID string  `json:"decision_id,omitempty"`
	Time       float64 `json:"time"`
	Object     string  `json:"object"`
	Access     string  `json:"access"`
	// RecordedGranted is the live verdict, CandidateGranted the
	// candidate policy's.
	RecordedGranted  bool `json:"recorded_granted"`
	CandidateGranted bool `json:"candidate_granted"`
	// Deny/Reason describe the denying side of the flip (the candidate
	// decision for grant→deny, the recorded one for deny→grant).
	Deny   string `json:"deny,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Clause is the SRAC subformula the denying side's verdict is
	// attributed to (empty for temporal or RBAC flips, where Detail
	// carries the budget or role arithmetic instead).
	Clause string `json:"clause,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// DiffReport summarises a shadow diff: the recorded stream re-decided
// under a candidate policy.
type DiffReport struct {
	Decisions       int    `json:"decisions"`
	RecordedDigest  string `json:"recorded_digest,omitempty"`
	CandidateDigest string `json:"candidate_digest"`
	// Flips lists every decision whose verdict changed, in stream
	// order.
	Flips []Flip `json:"flips,omitempty"`
	// Coverage is the candidate policy's per-clause table over the
	// recorded traffic (with ReplayOptions.Coverage).
	Coverage []cost.ClauseCost `json:"coverage,omitempty"`
}

// ShadowDiff replays the recorded stream against candidateSrc and
// reports every verdict flip, attributing each to the SRAC clause
// (or temporal budget) responsible on the denying side.
func ShadowDiff(candidateSrc string, records []record.Record, opts ReplayOptions) (*DiffReport, error) {
	rep := &DiffReport{}
	eng, err := replayStream(candidateSrc, records, opts, func(rec record.Record, d Decision) {
		rep.Decisions++
		if d.Granted == rec.Granted {
			return
		}
		f := Flip{
			Seq: rec.Seq, DecisionID: rec.DecisionID, Time: rec.Time,
			Object:           rec.Object,
			Access:           rec.Op + " " + rec.Resource + " @ " + rec.Server,
			RecordedGranted:  rec.Granted,
			CandidateGranted: d.Granted,
		}
		if !d.Granted {
			// grant → deny: the candidate decision explains itself.
			f.Deny = string(d.Deny)
			f.Reason = d.Reason
			f.Clause, f.Detail = d.Explanation.FlipSummary()
		} else {
			// deny → grant: the recorded explanation names what the
			// candidate policy relaxed.
			f.Deny = rec.Deny
			f.Reason = rec.Reason
			var ex Explanation
			if len(rec.Explanation) > 0 && json.Unmarshal(rec.Explanation, &ex) == nil {
				f.Clause, f.Detail = ex.FlipSummary()
			}
		}
		rep.Flips = append(rep.Flips, f)
	})
	if err != nil {
		return nil, err
	}
	rep.RecordedDigest = recordedDigest(records)
	rep.CandidateDigest = PolicyDigest(eng)
	if opts.Coverage {
		rep.Coverage = eng.CostReport().Clauses
	}
	return rep, nil
}

// recordedDigest returns the policy digest stamped on the stream ("",
// when the stream is empty or unstamped).
func recordedDigest(records []record.Record) string {
	for _, rec := range records {
		if rec.Policy != "" {
			return rec.Policy
		}
	}
	return ""
}

// replayStream drives a fresh engine (policy policySrc, SimClock)
// through the recorded event stream in sequence order, calling visit
// for every decide record with the replayed decision. It returns the
// engine so callers can inspect digests and coverage.
func replayStream(policySrc string, records []record.Record, opts ReplayOptions, visit func(record.Record, Decision)) (*Engine, error) {
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	if err := LoadPolicyString(e, policySrc); err != nil {
		return nil, fmt.Errorf("replay: load policy: %w", err)
	}
	if opts.Coverage {
		e.EnableCostProfiling()
	}

	sessions := make(map[string]*rbac.Session)
	// histories accumulates each object's reconstructed proof-backed
	// history: decide records delta-encode theirs against the previous
	// record's (schema 2), so the stream is unfolded as it is walked.
	histories := make(map[string][]record.HistoryEntry)
	// programs likewise resolves interned decide programs: a record
	// flagged ProgramCached reuses the object's previously declared
	// program.
	programs := make(map[string]sral.Node)
	for i, rec := range records {
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("replay: record %d: %w", i, err)
		}
		clk.Set(rec.Time)
		obj := model.ObjectID(rec.Object)
		switch rec.Kind {
		case record.KindArrive:
			e.ObjectArrived(obj, model.ServerID(rec.Server))
		case record.KindActivate:
			// Mirror server.Authenticate: a re-authentication replaces
			// the object's session.
			if old := sessions[rec.Object]; old != nil {
				old.Close()
			}
			sess := replaySession(e, rec.User, rec.Roles)
			sessions[rec.Object] = sess
			if sess != nil {
				e.ActivatePermissions(sess, obj)
			}
		case record.KindDeactivate:
			// Mirror server.Depart: deactivate but keep the session —
			// the live engine deactivates before closing, and a decide
			// record may still follow under another member's session.
			if sess := sessions[rec.Object]; sess != nil {
				e.DeactivatePermissions(sess, obj)
			}
		case record.KindGrant:
			e.RecordGrant(model.Access{
				Object:   obj,
				Op:       model.Operation(rec.Op),
				Resource: model.ResourceID(rec.Resource),
				Server:   model.ServerID(rec.Server),
			})
		case record.KindDecide:
			sess := sessions[rec.Object]
			if sess == nil && rec.User != "" {
				// Mid-flight recording: the activation predates the
				// stream. Best-effort recreate the subject; temporal
				// activation happens inside Authorize (idempotent).
				sess = replaySession(e, rec.User, rec.Roles)
				sessions[rec.Object] = sess
			}
			hist, err := reconstructHistory(histories[rec.Object], rec)
			if err != nil {
				return nil, fmt.Errorf("replay: record %d: %w", i, err)
			}
			histories[rec.Object] = hist
			// Mirror the live engine's interning: the cache advances
			// only on an inline program (a no-program decide leaves it
			// for later ProgramCached records). Best-effort, matching
			// schema 1: an unparseable program replays as no program.
			var prog sral.Node
			if rec.Program != "" {
				if n, err := sral.Parse(rec.Program); err == nil {
					prog = n
				}
				programs[rec.Object] = prog
			} else if rec.ProgramCached {
				prog = programs[rec.Object]
			}
			visit(rec, e.Authorize(replayRequest(sess, rec, hist, prog)))
		}
	}
	return e, nil
}

// reconstructHistory unfolds a decide record's delta-encoded history:
// the first HistoryBase entries of the object's previously
// reconstructed history followed by the record's own entries. Schema 1
// records always have HistoryBase 0, so reconstruction is the identity
// for them.
func reconstructHistory(prev []record.HistoryEntry, rec record.Record) ([]record.HistoryEntry, error) {
	if rec.HistoryBase > len(prev) {
		return nil, fmt.Errorf("history base %d exceeds the object's %d reconstructed entries (truncated stream?)",
			rec.HistoryBase, len(prev))
	}
	if rec.HistoryBase == 0 {
		return rec.History, nil
	}
	full := make([]record.HistoryEntry, 0, rec.HistoryBase+len(rec.History))
	full = append(full, prev[:rec.HistoryBase]...)
	full = append(full, rec.History...)
	return full, nil
}

// replaySession recreates a subject: a session for the user with the
// recorded roles activated. Roles the (candidate) policy no longer
// assigns are skipped — that is exactly the counterfactual a shadow
// diff must surface as RBAC denials. Returns nil when the user is
// unknown to the policy.
func replaySession(e *Engine, user string, roles []string) *rbac.Session {
	sess, err := e.RBAC.CreateSession(rbac.UserID(user))
	if err != nil {
		return nil
	}
	for _, r := range roles {
		_ = sess.ActivateRole(rbac.RoleID(r)) // best-effort by design
	}
	return sess
}

// replayRequest reconstructs the Authorize input from a decide
// record: the access, the reconstructed proof-backed history with the
// RECORDED oracle verdicts, and the (interning-resolved) declared
// program.
func replayRequest(sess *rbac.Session, rec record.Record, entries []record.HistoryEntry, prog sral.Node) Request {
	req := Request{
		Session: sess,
		Access: model.Access{
			Object:   model.ObjectID(rec.Object),
			Op:       model.Operation(rec.Op),
			Resource: model.ResourceID(rec.Resource),
			Server:   model.ServerID(rec.Server),
		},
	}
	if len(entries) > 0 {
		proven := make(map[model.Access]bool, len(entries))
		hist := make(trace.Trace, 0, len(entries))
		for _, h := range entries {
			a := model.Access{
				Object:   model.ObjectID(h.Object),
				Op:       model.Operation(h.Op),
				Resource: model.ResourceID(h.Resource),
				Server:   model.ServerID(h.Server),
			}
			hist = append(hist, a)
			proven[a] = h.Proven
		}
		req.History = hist
		req.Proofs = srac.OracleFunc(func(a model.Access) bool { return proven[a] })
	}
	req.Program = prog
	return req
}

// explanationJSON canonicalises an explanation for comparison — the
// same json.Marshal the recorder used, so equal explanations yield
// equal bytes.
func explanationJSON(ex *Explanation) string {
	if ex == nil {
		return ""
	}
	b, err := json.Marshal(ex)
	if err != nil {
		return ""
	}
	return string(b)
}
