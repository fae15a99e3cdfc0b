package core

import (
	"sort"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/rbac"
	"stac/internal/temporal"
)

// This file makes the paper's central runtime quantity — the
// accumulated valid time ∫ valid(perm,t) dt against dur(perm)
// (Expression 4.1) — first-class live telemetry. Each finite-budget
// (object, temporal key) pair the engine holds activation state for
// gets a ring-buffered time series of its consumption, read against
// dur(perm) from the current policy; sampling derives a burn rate
// (consumed seconds per clock second over the retained window) and an
// estimated time-to-exhaustion, and mirrors everything into float
// gauges so a /metrics scrape sees the budgets alongside the decision
// counters.

// BudgetStatus is one sampled temporal budget: the consumption of a
// permission's validity duration by one mobile object, with the
// derived burn trajectory.
type BudgetStatus struct {
	// Object and Perm identify the budget: Perm is the permission, or
	// its class pool key.
	Object string `json:"object"`
	Perm   string `json:"perm"`
	// Scheme is the base-time scheme ("global" or "per-server").
	Scheme string `json:"scheme"`
	// State is the permission state at sampling time.
	State string `json:"state"`
	// Consumed is ∫ valid(perm,t) dt at sampling time, in seconds.
	Consumed float64 `json:"consumed_s"`
	// Budget is dur(perm) in seconds.
	Budget float64 `json:"budget_s"`
	// Remaining is the unused validity duration in seconds.
	Remaining float64 `json:"remaining_s"`
	// BurnRate is the consumption speed over the sampling window, in
	// consumed seconds per clock second: 1.0 while the permission is
	// continuously active, 0 while idle. Zero when the window is too
	// short to derive a rate.
	BurnRate float64 `json:"burn_rate"`
	// ETA estimates the clock seconds until exhaustion at the current
	// burn rate; -1 when no exhaustion is in sight (zero rate or no
	// window yet).
	ETA float64 `json:"eta_s"`
	// At is the engine clock reading of this sample.
	At float64 `json:"at"`
	// Series is the tail of the sampled consumption series (oldest
	// first); empty when the caller asked for no history.
	Series []obs.Sample `json:"series,omitempty"`
}

// Exhausting reports whether the budget will run out within the given
// horizon (clock seconds) at the current burn rate.
func (b BudgetStatus) Exhausting(horizon float64) bool {
	return b.ETA >= 0 && b.ETA <= horizon
}

// budgetSeriesCapacity is the retained sampling window per budget.
const budgetSeriesCapacity = 128

// SampleBudgets takes one sample of every finite budget: it appends
// the current consumption to the budget's time series, refreshes the
// budget gauges in the engine's registry, and returns the statuses
// sorted by (object, perm) with up to tail trailing samples each (tail
// 0 omits series, tail < 0 returns the full window). Time-insensitive
// permissions (dur = ∞) carry no budget and are skipped.
//
// Sampling is deliberately off the Authorize hot path: a daemon
// samples on a timer and on observability scrapes. The walk visits the
// object-state shards one at a time, so in-flight decisions on other
// shards proceed undisturbed.
func (e *Engine) SampleBudgets(tail int) []BudgetStatus {
	now := e.clock.Now()
	reg := e.met.Load().reg

	var out []BudgetStatus
	for i := range e.shards {
		sh := &e.shards[i]
		type entry struct {
			obj model.ObjectID
			st  *objectState
		}
		sh.mu.RLock()
		objs := make([]entry, 0, len(sh.objs))
		for obj, os := range sh.objs {
			objs = append(objs, entry{obj: obj, st: os})
		}
		sh.mu.RUnlock()
		for _, en := range objs {
			// Lock order: policy, then object.
			e.policyMu.RLock()
			en.st.mu.Lock()
			en.st.keys.Each(func(key rbac.PermID) {
				dur, scheme := e.keyParamsLocked(key)
				if dur == temporal.Infinite {
					return
				}
				if en.st.budgets == nil {
					en.st.budgets = make(map[rbac.PermID]*obs.TimeSeries)
				}
				ts, ok := en.st.budgets[key]
				if !ok {
					ts = obs.NewTimeSeries(budgetSeriesCapacity)
					en.st.budgets[key] = ts
				}
				v, _ := en.st.keys.Validity(key, dur, now)
				ts.Append(now, v.Used)
				window := ts.Samples()

				st := BudgetStatus{
					Object:    string(en.obj),
					Perm:      string(key),
					Scheme:    scheme.String(),
					State:     v.State.String(),
					Consumed:  v.Used,
					Budget:    max(dur, 0),
					Remaining: v.Remaining,
					ETA:       -1,
					At:        now,
				}
				if rate, ok := obs.Rate(window); ok && rate > 0 {
					st.BurnRate, st.ETA = rate, st.Remaining/rate
				} else if st.Remaining == 0 {
					st.ETA = 0
				}
				if tail != 0 {
					st.Series = window
					if tail > 0 && len(window) > tail {
						st.Series = window[len(window)-tail:]
					}
				}
				e.publishBudgetGauges(reg, st)
				out = append(out, st)
			})
			en.st.mu.Unlock()
			e.policyMu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Perm < out[j].Perm
	})
	return out
}

// publishBudgetGauges mirrors one budget status into the registry.
// Handles are get-or-create, so repeated sampling reuses them; the
// cardinality is bounded by the live (object, perm) budget set.
func (e *Engine) publishBudgetGauges(reg *obs.Registry, st BudgetStatus) {
	labels := obs.Labels(obs.Label("object", st.Object), obs.Label("perm", st.Perm))
	reg.FloatGauge("stac_budget_consumed_seconds", labels,
		"Accumulated valid time consumed against dur(perm), per (object, perm).").Set(st.Consumed)
	reg.FloatGauge("stac_budget_remaining_seconds", labels,
		"Unused validity duration, per (object, perm).").Set(st.Remaining)
	reg.FloatGauge("stac_budget_burn_rate", labels,
		"Budget consumption speed over the sampling window (consumed s per clock s).").Set(st.BurnRate)
	reg.FloatGauge("stac_budget_eta_seconds", labels,
		"Estimated clock seconds until budget exhaustion at the current burn rate (-1 = none in sight).").Set(st.ETA)
}
