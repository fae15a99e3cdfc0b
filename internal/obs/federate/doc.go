// Package federate turns N independent coalition daemons into one
// fleet view.
//
// Each stacd process exposes a versioned /debug/snapshot document
// (decision counters, temporal budgets, connection state, policy
// digest — see internal/server.Snapshot). The Poller scrapes every
// configured member, merges the documents into a FleetView, and flags
// cross-server anomalies no single daemon can see:
//
//   - unreachable members (scrape failed or wrong document version),
//   - temporal budgets burning toward exhaustion (estimated time to
//     exhaustion under a configurable horizon),
//   - deny-rate spikes between consecutive polls,
//   - policy divergence (members disagreeing on the policy digest),
//   - dead clauses (never decisive on any member) and clauses that
//     dominate the fleet's evaluation time, both read off the merged
//     per-clause cost rows (cost.go).
//
// The merge mirrors the paper's two base-time schemes (Section 4):
// budgets declared with the global scheme accumulate coalition-wide,
// so their consumption is SUMMED across members; per-server budgets
// restart at each server, so the rollup keeps the per-member maximum
// and reports how many members hold state for the permission.
//
// stacctl's `top` verb renders the FleetView as a live table; it is
// a thin client over this package (`watch` follows the members'
// /debug/journal decision logs through internal/obs/journal).
package federate
