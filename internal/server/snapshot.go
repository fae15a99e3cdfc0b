package server

import (
	"time"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
)

// The federated health snapshot: one versioned JSON document
// capturing everything a fleet poller needs from a daemon in a single
// scrape — decision counters, temporal-budget series tails,
// connection/drain state and the policy digest. internal/obs/federate
// merges these documents across coalition members.

// SnapshotVersion is the schema version of the snapshot document.
// Consumers must skip documents with a greater version (a mixed-build
// fleet is a deploy in flight, not an error — see federate).
//
// Version history:
//
//	1 — counters, budgets, conns, policy digest
//	2 — adds shadow-policy state, SRAC clause coverage, Go runtime
//	    self-telemetry and flight-recorder status
//	3 — adds the hot-path perf section (lock-stripe contention, shard
//	    imbalance, SLO burn rate, decision-latency exemplars)
//	4 — adds the hybrid-logical-clock reading (hlc, hlc_wall_unix_s)
//	    and the /debug/journal tail state (journal), feeding the
//	    federate clock-skew and journal-lag anomaly detectors
//	5 — adds the per-clause evaluation-cost profile (cost): clause
//	    heat, static-check cost table and re-walk amplification,
//	    feeding the federate hot-clause rollup and stacctl heat
//	6 — drops coverage: the clause census rides on cost.clauses,
//	    whose rows now carry the satisfied/violated/pending tallies
const SnapshotVersion = 6

// Snapshot is one daemon-process view of its coalition state.
type Snapshot struct {
	// Version is the document schema version (SnapshotVersion).
	Version int `json:"version"`
	// Time is the engine clock reading at snapshot time; WallTime is
	// the host's wall clock, for cross-fleet correlation.
	Time     float64   `json:"time"`
	WallTime time.Time `json:"wall_time"`
	// PolicyDigest fingerprints the loaded policy (SHA-256 of its
	// canonical dump): members of one coalition should agree on it.
	PolicyDigest string `json:"policy_digest"`
	// Servers carries the per-server decision counters.
	Servers []ServerSnapshot `json:"servers"`
	// Budgets is the sampled temporal-budget state of every
	// finite-duration (object, permission) tracker, series tails
	// included.
	Budgets []core.BudgetStatus `json:"budgets"`
	// Conns is the transport state of each TCP daemon in the process.
	Conns []DaemonStats `json:"conns,omitempty"`
	// Grants/Denies/Decisions aggregate the per-server counters.
	Grants    int `json:"grants"`
	Denies    int `json:"denies"`
	Decisions int `json:"decisions"`
	// Migrations counts completed mobile-object migrations.
	Migrations int `json:"migrations"`
	// Watchers and WatchDropped describe the decision stream: live
	// /debug/watch streams and the decisions they missed because the
	// decision log evicted them before a poll reached them.
	Watchers     int   `json:"watchers"`
	WatchDropped int64 `json:"watch_dropped"`
	// AuditSinkErrors counts decisions lost by a failing JSONL sink.
	AuditSinkErrors int64 `json:"audit_sink_errors"`
	// ShadowDigest fingerprints the candidate policy under live shadow
	// evaluation ("" when none is loaded); ShadowFlips counts verdicts
	// where it disagreed with the served policy.
	ShadowDigest string `json:"shadow_digest,omitempty"`
	ShadowFlips  int64  `json:"shadow_flips,omitempty"`
	// Cost is the per-clause evaluation profile (nil unless the
	// engine has cost profiling enabled; version ≥ 5): the clause
	// census and heat, the static-check cost table and re-walk
	// amplification. Dead clauses — never decisive — are the fleet
	// signal stacctl top surfaces; stacctl heat ranks the heat.
	Cost *cost.Report `json:"cost,omitempty"`
	// Runtime is the Go runtime's health at snapshot time.
	Runtime obs.RuntimeStats `json:"runtime"`
	// Recorder reports the decision flight recorder (nil when off).
	Recorder *record.Status `json:"recorder,omitempty"`
	// Perf is the engine's hot-path health: per-stripe lock contention,
	// shard imbalance, SLO burn rate and decision-latency exemplars
	// (version ≥ 3).
	Perf core.PerfStats `json:"perf"`
	// HLC is the engine's hybrid logical clock reading at snapshot
	// time (version ≥ 4). HLCWallUnix is the RAW physical wall source
	// in Unix seconds — deliberately not the causally propagated HLC
	// wall, which absorbs remote readings and so hides exactly the
	// skew a fleet poller wants to measure. Only meaningful against
	// other wall clocks when the engine runs a real clock (stacd
	// always does); simulated engines report their sim time here and
	// federate treats the implausible offset as not comparable.
	HLC         string  `json:"hlc,omitempty"`
	HLCWallUnix float64 `json:"hlc_wall_unix_s,omitempty"`
	// Journal reports the /debug/journal tail state (version ≥ 4).
	// Present only when the snapshot is served by a DebugServer — the
	// tails live there, not on the coalition.
	Journal *JournalStats `json:"journal,omitempty"`
}

// ServerSnapshot is one coalition server's decision counters.
type ServerSnapshot struct {
	ID     string `json:"id"`
	Grants int    `json:"grants"`
	Denies int    `json:"denies"`
	// AuditRetained counts the server's decisions still in the
	// coalition decision log; AuditTotal all it has made.
	AuditRetained int `json:"audit_retained"`
	AuditTotal    int `json:"audit_total"`
}

// DaemonStats is the connection/drain state of one TCP daemon.
type DaemonStats struct {
	Server string `json:"server"`
	// Inflight is the number of connections currently being served;
	// ConnsTotal counts every connection ever accepted.
	Inflight   int   `json:"inflight"`
	ConnsTotal int64 `json:"conns_total"`
	// MaxConns is the configured cap (0 = unlimited); Saturated
	// reports Inflight >= MaxConns.
	MaxConns  int  `json:"max_conns"`
	Saturated bool `json:"saturated"`
	// Draining reports a daemon whose Close has begun.
	Draining bool `json:"draining"`
	// Subjects is the number of authenticated sessions; DedupEntries
	// the retained idempotency cache size.
	Subjects     int `json:"subjects"`
	DedupEntries int `json:"dedup_entries"`
}

// Stats returns the daemon's current connection/drain state.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DaemonStats{
		Server:       string(d.srv.ID()),
		Inflight:     len(d.conns),
		ConnsTotal:   d.connsTotal,
		MaxConns:     d.cfg.MaxConns,
		Draining:     d.closed,
		Subjects:     len(d.subjects),
		DedupEntries: len(d.seen),
	}
	st.Saturated = st.MaxConns > 0 && st.Inflight >= st.MaxConns
	return st
}

// Snapshot assembles the versioned snapshot document. budgetTail
// bounds the series tail per budget (0 omits series, negative keeps
// the full retained window); daemons, when given, contribute their
// transport state. Taking a snapshot samples the budgets, so scraping
// also feeds the burn-rate window.
func (c *Coalition) Snapshot(budgetTail int, daemons ...*Daemon) Snapshot {
	snap := Snapshot{
		Version:      SnapshotVersion,
		Time:         c.Engine.Clock().Now(),
		WallTime:     time.Now(),
		PolicyDigest: core.PolicyDigest(c.Engine),
		Budgets:      c.Engine.SampleBudgets(budgetTail),
		Migrations:   c.Migrations(),
		Watchers:     c.Watchers(),
		WatchDropped: c.WatchDropped(),
		Runtime:      obs.PublishRuntime(c.Engine.Obs()),
		Perf:         c.Engine.PerfStats(),
	}
	hclk := c.Engine.HLC()
	snap.HLC = hclk.Now().String()
	snap.HLCWallUnix = float64(hclk.Wall()) / 1e9
	if enabled, digest, flips := c.ShadowInfo(); enabled {
		snap.ShadowDigest = digest
		snap.ShadowFlips = flips
	}
	if c.Engine.CostEnabled() {
		rep := c.Engine.CostReport()
		snap.Cost = &rep
	}
	if rec := c.Engine.Recorder(); rec != nil {
		st := rec.Status()
		snap.Recorder = &st
	}
	_, _, sinkErrs := c.AuditSinkStatus()
	snap.AuditSinkErrors = sinkErrs
	retained := c.retainedByServer()
	for _, s := range c.Servers() {
		grants, denies := s.Counters()
		snap.Servers = append(snap.Servers, ServerSnapshot{
			ID:            string(s.ID()),
			Grants:        grants,
			Denies:        denies,
			AuditRetained: retained[string(s.ID())],
			AuditTotal:    grants + denies,
		})
		snap.Grants += grants
		snap.Denies += denies
	}
	snap.Decisions = snap.Grants + snap.Denies
	for _, d := range daemons {
		snap.Conns = append(snap.Conns, d.Stats())
	}
	return snap
}
