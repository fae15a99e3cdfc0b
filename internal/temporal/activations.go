package temporal

import "math"

// Scheme selects the base time t_b of Expression 4.1.
type Scheme int

// Base-time schemes (Section 4): with t_b the arrival time at the
// current server the temporal constraint restricts validity per
// server; with t_b the first arrival it governs the object's entire
// execution across servers.
const (
	// GlobalBase accumulates valid time over the mobile object's whole
	// life-cycle: t_b = t_1, the arrival at the first server.
	GlobalBase Scheme = iota
	// PerServerBase resets the accumulation on every server arrival:
	// t_b = t_i, the arrival at the current server s_i.
	PerServerBase
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if s == PerServerBase {
		return "per-server"
	}
	return "global"
}

// Infinite is the validity duration of a time-insensitive permission.
const Infinite = math.MaxFloat64

// PermState is the three-state permission status of Section 4.
type PermState int

// Permission states: a permission is inactive when not activated in a
// session; an active permission is valid while the accumulated valid
// duration is within dur(perm) and active-but-invalid afterwards.
const (
	Inactive PermState = iota
	ActiveInvalid
	Valid
)

// String implements fmt.Stringer.
func (s PermState) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case ActiveInvalid:
		return "active-but-invalid"
	default:
		return "valid"
	}
}

// Validity is a permission's temporal state at one instant.
type Validity struct {
	State PermState
	// Used is ∫_{t_b}^{t} valid(perm, u) du.
	Used float64
	// Remaining is the unused validity; Infinite if time-insensitive.
	Remaining float64
}

// Activations is one mobile object's temporal state, kept by session.
// A session's permissions share its on/off signal and differ only in
// the budget clip, and acc + min(len, dur − acc) = min(dur, acc + len):
// so its keys (permissions or class pools) share one activation per
// base-time scheme, a key joined at reading a has used min(dur,
// reading − a), and a hop is O(1) in the permissions conferred. A key
// whose history left the session set keeps a copy of its activation.
// The zero value holds no state; it is not safe for concurrent use.
type Activations[K comparable] struct {
	set    *KeySet[K]
	in     KeySet[K]
	shared [2]activation
	own    map[K]*activation
}

// KeySet is the temporal keys of one session's permissions with their
// schemes; keep one per resolved session (sets compare by pointer).
type KeySet[K comparable] map[K]Scheme

// activation is an on/off signal with its on-time since t_b, and the
// reading at which a key joined it.
type activation struct {
	open                bool
	scheme              Scheme
	since, closed, from float64
}

func (a *activation) reading(now float64) float64 {
	if a.open && now > a.since {
		return a.closed + (now - a.since)
	}
	return a.closed
}

func (a *activation) start(now float64) {
	if !a.open {
		a.open, a.since = true, now
	}
}

func (a *activation) stop(now float64) {
	a.closed, a.open = a.reading(now), false
}

// validity evaluates Expression 4.1, valid ⇔ active ∧ ∫_{t_b}^{t} valid
// ≤ dur(perm) (a negative dur reads as 0): the integral is min(dur,
// on-time), so at the exact boundary an active permission is invalid.
func (a *activation) validity(dur, now float64) Validity {
	budget := max(dur, 0)
	v := Validity{Used: min(budget, a.reading(now)-a.from), Remaining: Infinite}
	if budget != Infinite {
		v.Remaining = budget - v.Used
	}
	if a.open && v.Remaining == 0 {
		v.State = ActiveInvalid
	} else if a.open {
		v.State = Valid
	}
	return v
}

// of returns the activation governing key, or nil.
func (as *Activations[K]) of(key K) *activation {
	if a, ok := as.own[key]; ok {
		return a
	}
	if sc, ok := as.in[key]; ok {
		return &as.shared[sc]
	}
	return nil
}

// detach gives key its own activation, copied from the set's or fresh.
func (as *Activations[K]) detach(key K, scheme Scheme) *activation {
	a, ok := as.own[key]
	if !ok {
		a = &activation{scheme: scheme}
		if sc, in := as.in[key]; in {
			*a = as.shared[sc]
			a.scheme = sc
		}
		if as.own == nil {
			as.own = make(map[K]*activation)
		}
		as.own[key] = a
	}
	return a
}

// same reports whether set holds the session set's keys and schemes.
func (as *Activations[K]) same(set *KeySet[K]) bool {
	if as.set == set {
		return true
	}
	for key, sc := range *set {
		if osc, ok := as.in[key]; !ok || osc != sc {
			return false
		}
	}
	return len(as.in) == len(*set)
}

// Arrive records a server arrival: per-server activations start a new
// epoch, closed at reading 0 (t_b = t_i); global ones keep running.
func (as *Activations[K]) Arrive() {
	as.shared[PerServerBase] = activation{}
	for key, a := range as.own {
		if sc, in := as.in[key]; in && sc == PerServerBase {
			delete(as.own, key) // back in step with the set
		} else if a.scheme == PerServerBase {
			*a = activation{scheme: PerServerBase}
		}
	}
}

// Activate activates the keys of set at now and makes it the session
// set. New keys join at the current readings; a key of the old set
// that leaves it, or joined at another reading, keeps its own copy.
func (as *Activations[K]) Activate(set *KeySet[K], now float64) {
	if !as.same(set) {
		for key, sc := range as.in {
			a := &as.shared[sc]
			if nsc, in := (*set)[key]; !in || nsc != sc || a.from != a.reading(now) {
				as.detach(key, sc)
			}
		}
		for sc := range as.shared {
			as.shared[sc].from = as.shared[sc].reading(now)
		}
	}
	as.set, as.in = set, *set
	for sc := range as.shared {
		as.shared[sc].start(now)
	}
	for key, a := range as.own {
		if _, in := (*set)[key]; in {
			a.start(now)
		}
	}
}

// Deactivate deactivates the keys of set at now. Those of a set other
// than the session set stop on copies, leaving the session set on.
func (as *Activations[K]) Deactivate(set *KeySet[K], now float64) {
	if as.same(set) {
		for sc := range as.shared {
			as.shared[sc].stop(now)
		}
	} else {
		for key, sc := range *set {
			if osc, in := as.in[key]; !in || as.shared[osc].open {
				as.detach(key, sc)
			}
		}
	}
	for key, a := range as.own {
		if _, in := (*set)[key]; in {
			a.stop(now)
		}
	}
}

// ActivateKey activates key alone at now, when no session activation
// carries it, and returns its validity under duration dur.
func (as *Activations[K]) ActivateKey(key K, scheme Scheme, dur, now float64) Validity {
	a := as.of(key)
	if a == nil || !a.open {
		a = as.detach(key, scheme)
		a.start(now)
	}
	return a.validity(dur, now)
}

// Validity returns key's validity at now under duration dur; ok is
// false when no activation holds state for key.
func (as *Activations[K]) Validity(key K, dur, now float64) (v Validity, ok bool) {
	if a := as.of(key); a != nil {
		return a.validity(dur, now), true
	}
	return v, false
}

// Each calls f for every key an activation holds state for.
func (as *Activations[K]) Each(f func(key K)) {
	for key := range as.in {
		if _, own := as.own[key]; !own {
			f(key)
		}
	}
	for key := range as.own {
		f(key)
	}
}
