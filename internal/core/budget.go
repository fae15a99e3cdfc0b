package core

import (
	"sort"

	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/temporal"
)

// This file reads the paper's central runtime quantity — the
// accumulated valid time ∫ valid(perm,t) dt against dur(perm)
// (Expression 4.1) — off the activation clocks the engine already
// keeps. The integrand is valid(perm,t) itself, so a budget burns at
// exactly 1 consumed second per clock second while its permission is
// valid and at 0 otherwise: the burn rate and the time to exhaustion
// are closed forms of the clock reading, not estimates from a sampled
// copy of it.

// BudgetStatus is one temporal budget: the consumption of a
// permission's validity duration by one mobile object, with its burn
// rate and time to exhaustion.
type BudgetStatus struct {
	// Object and Perm identify the budget: Perm is the permission, or
	// its class pool key.
	Object string `json:"object"`
	Perm   string `json:"perm"`
	// Scheme is the base-time scheme ("global" or "per-server").
	Scheme string `json:"scheme"`
	// State is the permission state at reading time.
	State string `json:"state"`
	// Consumed is ∫ valid(perm,t) dt at reading time, in seconds.
	Consumed float64 `json:"consumed_s"`
	// Budget is dur(perm) in seconds.
	Budget float64 `json:"budget_s"`
	// Remaining is the unused validity duration in seconds.
	Remaining float64 `json:"remaining_s"`
	// BurnRate is valid(perm,t), the consumption speed in consumed
	// seconds per clock second: 1 while the permission is valid, else
	// 0.
	BurnRate float64 `json:"burn_rate"`
	// ETA is the clock seconds until exhaustion: Remaining while the
	// permission is valid, 0 once the budget is spent, and -1 while
	// it burns nothing.
	ETA float64 `json:"eta_s"`
	// At is the engine clock reading.
	At float64 `json:"at"`
}

// Exhausting reports whether the budget will run out within the given
// horizon (clock seconds) at the current burn rate.
func (b BudgetStatus) Exhausting(horizon float64) bool {
	return b.ETA >= 0 && b.ETA <= horizon
}

// Budgets reads every finite budget the engine holds activation state
// for, sorted by (object, perm). Time-insensitive permissions (dur =
// ∞) carry no budget and are skipped.
//
// The walk visits the object-state shards one at a time, so in-flight
// decisions on other shards proceed undisturbed.
func (e *Engine) Budgets() []BudgetStatus {
	now := e.clock.Now()
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
				v, _ := en.st.keys.Validity(key, dur, now)
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
				switch {
				case v.State == temporal.Valid:
					st.BurnRate, st.ETA = 1, st.Remaining
				case st.Remaining == 0:
					st.ETA = 0
				}
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
