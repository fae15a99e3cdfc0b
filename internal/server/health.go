package server

// Health probes for the daemon: /healthz is pure liveness (the
// process answers), /readyz runs concrete checks — policy loaded,
// decision WAL writable, connection capacity left — so an orchestrator
// or the federate poller can tell a live-but-degraded member from a
// healthy one.

import "stac/internal/core"

// Check is one named readiness probe result.
type Check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Detail explains a failing check (and may annotate a passing one).
	Detail string `json:"detail,omitempty"`
}

// Health is the aggregate probe document: OK is the AND of all checks.
type Health struct {
	OK     bool    `json:"ok"`
	Checks []Check `json:"checks"`
}

// Liveness is the /healthz body: the process is up and the coalition
// object is reachable. No dependency checks — liveness must not flap
// when a downstream degrades.
func (c *Coalition) Liveness() Health {
	return Health{OK: true, Checks: []Check{{Name: "process", OK: true, Detail: "serving"}}}
}

// Readiness runs the concrete readiness checks. daemons, when given,
// contribute a connection-saturation check per TCP listener.
func (c *Coalition) Readiness(daemons ...*Daemon) Health {
	var h Health
	h.OK = true
	add := func(ck Check) {
		h.Checks = append(h.Checks, ck)
		h.OK = h.OK && ck.OK
	}

	// policy_loaded: an engine with zero permissions denies everything —
	// almost certainly a daemon that started before its policy loaded.
	_, _, perms, _ := c.Engine.RBAC.Stats()
	ck := Check{Name: "policy_loaded", OK: perms > 0}
	if ck.OK {
		ck.Detail = core.PolicyDigest(c.Engine)[:12]
	} else {
		ck.Detail = "no permissions registered"
	}
	add(ck)

	// decision_wal: the recorder's WAL is the one durable decision
	// log. Its first failed append degrades the recorder to ring-only
	// for good, so every later decision is missing from the file; the
	// check stays failed until a new recorder is attached.
	ck = Check{Name: "decision_wal", OK: true, Detail: "not configured"}
	if rec := c.Engine.Recorder(); rec != nil {
		switch st := rec.Status(); {
		case st.WALDegraded:
			ck.OK, ck.Detail = false, st.WALError
		case st.WALConfigured:
			ck.Detail = ""
		}
	}
	add(ck)

	// conn_saturation / draining, one pair per daemon.
	for _, d := range daemons {
		st := d.Stats()
		ck = Check{Name: "conns:" + st.Server, OK: !st.Saturated && !st.Draining}
		switch {
		case st.Draining:
			ck.Detail = "draining"
		case st.Saturated:
			ck.Detail = "connection limit reached"
		}
		add(ck)
	}
	return h
}
