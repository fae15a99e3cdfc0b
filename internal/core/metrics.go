package core

import (
	"time"

	"stac/internal/obs"
)

// DenyReason is the machine-readable classification of a denial — the
// label the decision-path metrics and the audit trail share, so a
// security officer can go from a counter spike to the matching audit
// records without parsing prose.
type DenyReason string

// Denial classes, in the order Authorize checks them.
const (
	// DenyNone marks a granted decision.
	DenyNone DenyReason = ""
	// DenyNoSession: the request carried no authenticated session.
	DenyNoSession DenyReason = "no_session"
	// DenyInvalidAccess: the requested access failed validation.
	DenyInvalidAccess DenyReason = "invalid_access"
	// DenyRBAC: no active role confers a covering permission.
	DenyRBAC DenyReason = "rbac"
	// DenyProgram: the declared program can never satisfy the spatial
	// constraint (check(P, C) returned NoTrace).
	DenyProgram DenyReason = "program_rejected"
	// DenySpatialViolated: the post-state history irreversibly
	// violates the spatial constraint.
	DenySpatialViolated DenyReason = "spatial_violated"
	// DenySpatialStrict: the constraint is not yet satisfied and the
	// permission demands strict (already-satisfied) enforcement.
	DenySpatialStrict DenyReason = "spatial_strict"
	// DenyTemporalExhausted: the permission is active but its validity
	// budget is spent (Expression 4.1).
	DenyTemporalExhausted DenyReason = "temporal_exhausted"
	// DenyTemporalInactive: the permission is not temporally active.
	DenyTemporalInactive DenyReason = "temporal_inactive"
)

// denyReasons enumerates every class so the counters exist (at zero)
// from the first scrape.
var denyReasons = []DenyReason{
	DenyNoSession, DenyInvalidAccess, DenyRBAC, DenyProgram,
	DenySpatialViolated, DenySpatialStrict,
	DenyTemporalExhausted, DenyTemporalInactive,
}

// authzBuckets resolve the in-process decision cost (single-digit µs
// on the E4 hot path) up through ledger-scan outliers.
var authzBuckets = []float64{
	500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6,
	100e-6, 500e-6, 2.5e-3, 10e-3, 50e-3,
}

// engineMetrics holds the engine's resolved metric handles. Handles
// are resolved once (at engine construction or SetObs), so the
// Authorize hot path only touches atomics.
type engineMetrics struct {
	reg       *obs.Registry
	granted   *obs.Counter
	denied    map[DenyReason]*obs.Counter
	authorize *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		reg: r,
		granted: r.Counter("stac_authz_granted_total", "",
			"Authorization decisions that granted the access."),
		denied: make(map[DenyReason]*obs.Counter, len(denyReasons)),
		authorize: r.Histogram("stac_authz_seconds", "",
			"End-to-end Engine.Authorize latency.", authzBuckets),
	}
	// Decision-latency exemplars: each bucket of the authorize
	// histogram retains the decision ID (and trace ID when sampled) of
	// a recent bucket-max observation, so a p99 cell links to a
	// replayable decision.
	m.authorize.EnableExemplars(0)
	for _, reason := range denyReasons {
		m.denied[reason] = r.Counter("stac_authz_denied_total",
			obs.Label("reason", string(reason)),
			"Authorization denials by reason class.")
	}
	return m
}

// captureExemplar retains slow decisions in the authorize histogram's
// exemplar slots, with the request's stage vector so far, minting the
// decision ID lazily — only observations that claim a slot (rare, by
// construction the slowest recent one per bucket) pay the allocation,
// so the unsampled hot path stays ID-free.
func (m *engineMetrics) captureExemplar(d *Decision, elapsed time.Duration, tc obs.TraceContext, l *obs.StageLedger) {
	if !m.authorize.ExemplarQualifies(elapsed) {
		return
	}
	if d.ID == "" {
		d.ID = obs.NewDecisionID()
	}
	traceID := ""
	if tc.Valid() {
		traceID = tc.Trace.String()
	}
	m.authorize.RecordExemplar(elapsed, d.ID, traceID, l.StageTimes()...)
}

// DecisionExemplars returns the engine's currently retained decision
// latency exemplars, ordered by bucket.
func (e *Engine) DecisionExemplars() []obs.Exemplar {
	return e.met.Load().authorize.Exemplars()
}

// recordDecision classifies one finished decision.
func (m *engineMetrics) recordDecision(d Decision, elapsed time.Duration) {
	m.authorize.Observe(elapsed)
	if d.Granted {
		m.granted.Inc()
		return
	}
	if c, ok := m.denied[d.Deny]; ok {
		c.Inc()
		return
	}
	// An unclassified denial still counts (future-proofing).
	m.reg.Counter("stac_authz_denied_total", obs.Label("reason", "other"),
		"Authorization denials by reason class.").Inc()
}
