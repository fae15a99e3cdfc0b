package server

// Live shadow evaluation: a candidate policy runs side-by-side with
// the served one. Every authorisation request is decided by BOTH
// engines; the shadow verdict never affects the served outcome, but
// verdict flips are counted (stac_shadow_flip_total) and carried on
// the decision's decide record (so on its audit entry and on the
// /debug/journal tail `stacctl watch -flips` follows) — the online
// counterpart of core.ShadowDiff, for rehearsing a policy change
// against production traffic before rolling it out.

import (
	"fmt"
	"sync"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/rbac"
)

// shadowKey scopes shadow sessions per (server, object), mirroring
// the coalition's per-server subjects: a roaming device holds one
// live subject per server, and a delayed Depart from the previous
// hop's daemon must not tear down the session the next hop just
// opened.
type shadowKey struct {
	server model.ServerID
	object model.ObjectID
}

// shadowState is one loaded candidate policy: its own engine (sharing
// the coalition clock, isolated metrics registry) plus the shadow
// sessions mirroring each authenticated subject.
type shadowState struct {
	mu       sync.Mutex
	engine   *core.Engine
	digest   string
	source   string
	sessions map[shadowKey]*rbac.Session
	evals    *obs.Counter
	flips    *obs.Counter
}

// SetShadowPolicy loads a candidate policy for live shadow
// evaluation (the daemon's -shadow-policy flag). The shadow engine
// shares the coalition clock — temporal verdicts are comparable — but
// reports into a private metrics registry so its decisions never
// pollute the served counters. Load it before objects authenticate:
// an object already resident has no shadow session and evaluates as
// an RBAC denial until it re-authenticates.
func (c *Coalition) SetShadowPolicy(src string) error {
	se := core.NewEngine(c.Engine.Clock())
	se.SetObs(obs.NewRegistry())
	if err := core.LoadPolicyString(se, src); err != nil {
		return fmt.Errorf("shadow policy: %w", err)
	}
	reg := c.Engine.Obs()
	c.shadow.Store(&shadowState{
		engine:   se,
		digest:   core.PolicyDigest(se),
		source:   src,
		sessions: make(map[shadowKey]*rbac.Session),
		evals: reg.Counter("stac_shadow_eval_total", "",
			"Requests additionally evaluated against the shadow policy."),
		flips: reg.Counter("stac_shadow_flip_total", "",
			"Shadow-policy verdicts that disagreed with the served verdict."),
	})
	return nil
}

// ClearShadowPolicy disables shadow evaluation.
func (c *Coalition) ClearShadowPolicy() { c.shadow.Store(nil) }

// ShadowInfo reports whether a shadow policy is loaded, its digest,
// and the flip count so far.
func (c *Coalition) ShadowInfo() (enabled bool, digest string, flips int64) {
	st := c.shadow.Load()
	if st == nil {
		return false, "", 0
	}
	return true, st.digest, st.flips.Value()
}

// shadowArrive mirrors a successful Authenticate onto the shadow
// engine: fresh session, credential roles (best-effort — a candidate
// policy may drop a role, which must surface as RBAC denials, not
// errors), arrival and activation.
func (c *Coalition) shadowArrive(cred proof.Credential, server model.ServerID) {
	st := c.shadow.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := shadowKey{server, cred.Object}
	if old := st.sessions[key]; old != nil {
		old.Close()
		delete(st.sessions, key)
	}
	sess, err := st.engine.RBAC.CreateSession(rbac.UserID(cred.Object))
	if err != nil {
		// Unknown user under the candidate policy: decided as
		// no-session denials.
		st.engine.ObjectArrived(cred.Object, server)
		return
	}
	for _, role := range cred.Roles {
		_ = sess.ActivateRole(rbac.RoleID(role))
	}
	st.sessions[key] = sess
	st.engine.ObjectArrived(cred.Object, server)
	st.engine.ActivatePermissions(sess, cred.Object)
}

// shadowDepart mirrors Depart at one server.
func (c *Coalition) shadowDepart(obj model.ObjectID, server model.ServerID) {
	st := c.shadow.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := shadowKey{server, obj}
	if sess := st.sessions[key]; sess != nil {
		st.engine.DeactivatePermissions(sess, obj)
		sess.Close()
		delete(st.sessions, key)
	}
}

// shadowEval decides the request under the candidate policy and
// compares verdicts. served is the ENGINE verdict of the real
// decision (resource-existence failures are not policy and do not
// count as flips). Returns nil when shadow evaluation is off.
func (c *Coalition) shadowEval(req core.Request, served core.Decision) *record.ShadowVerdict {
	st := c.shadow.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	shadowReq := req
	shadowReq.Session = st.sessions[shadowKey{req.Access.Server, req.Access.Object}]
	d := st.engine.Authorize(shadowReq)
	st.mu.Unlock()
	st.evals.Inc()
	sv := &record.ShadowVerdict{Granted: d.Granted, Flip: d.Granted != served.Granted}
	if !sv.Flip {
		return sv
	}
	st.flips.Inc()
	if !d.Granted {
		// grant → deny: the shadow decision explains itself.
		sv.Deny = string(d.Deny)
		sv.Reason = d.Reason
		sv.Clause, sv.Detail = d.Explanation.FlipSummary()
	} else {
		// deny → grant: the served explanation names what the
		// candidate relaxed.
		sv.Deny = string(served.Deny)
		sv.Reason = served.Reason
		sv.Clause, sv.Detail = served.Explanation.FlipSummary()
	}
	return sv
}
