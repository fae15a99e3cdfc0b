package srac

// Online prefix evaluation. Every leaf's prefix status is monotone in
// the history and needs O(1) state to follow it: an atom keeps its
// first witness, an ordering a three-state latch with both positions
// (nothing, first seen, both seen in order), a count an integer. A
// Monitor is a constraint compiled once into the pre-order node array
// Evaluate's records follow; a State is that array's leaf observations
// over one history prefix, advanced entry by entry and never recomputed
// from the start — the per-subformula verdict signals of Bartocci et
// al.'s spatially distributed monitors. The connectives are combined
// from the leaf observations on demand.
//
// This file holds the package's one transcription of the leaf rules
// (op.advance: how accesses move a leaf's observation) and of the
// three-valued connective rules (Monitor.combine). Evaluate is a fresh
// state advanced over a whole history; State.Peek is a kept state that
// catches up on the entries appended since its last evaluation and then
// steps the requested access on a copy; Monitor.Decide is a fresh state
// for a history no store owns. All three run State.run.

import (
	"time"

	"stac/internal/model"
	"stac/internal/trace"
)

// opKind is a compiled node's construct.
type opKind uint8

const (
	opOther opKind = iota // unknown construct: Pending, like a nil constraint
	opTrue
	opFalse
	opAtom
	opOrdered
	opCount
	opAnd
	opOr
	opNot
)

// op is one compiled node: its construct, a leaf's patterns or window,
// and the static part of its record (End and Atoms).
type op struct {
	kind opKind
	// first is an atom's pattern or an ordering's first access; second
	// is an ordering's second access.
	first, second model.Access
	// min, max and sel are a count's window and selector.
	min, max int
	sel      model.Selector
	// end and atoms are the record's End and Atoms.
	end, atoms int
}

// Monitor is a constraint compiled for online prefix evaluation: its
// nodes in pre-order, so the i-th op is the i-th record of an
// evaluation and WalkPaths' i-th clause path. A Monitor is immutable
// and safe for concurrent use; the mutable part is a State.
//
// A Monitor is compiled from the policy's unstamped constraint. A
// state bound to an object (NewState, Decide) matches as the
// constraint StampObject(c, obj) would, without building it: an
// anonymous access pattern stands for obj, and a selector with no
// object restriction selects obj's accesses only.
type Monitor struct {
	ops []op
}

// Compile compiles a constraint into a Monitor.
func Compile(c Constraint) *Monitor {
	m := &Monitor{}
	m.init(c)
	return m
}

// init compiles c into m, sizing the node array once (Walk, unlike
// Size, tolerates a nil operand, which compiles to a Pending node).
func (m *Monitor) init(c Constraint) {
	size := 1
	Walk(c, func(Constraint) bool { size++; return true })
	m.ops = make([]op, 0, size)
	m.compile(c)
}

// compile appends the ops of c's subtree in pre-order.
func (m *Monitor) compile(c Constraint) {
	k := len(m.ops)
	m.ops = append(m.ops, op{})
	o := op{atoms: 1}
	switch x := c.(type) {
	case TrueC:
		o.kind = opTrue
	case FalseC:
		o.kind = opFalse
	case Atom:
		o.kind, o.first = opAtom, x.A
	case Ordered:
		o.kind, o.first, o.second = opOrdered, x.First, x.Second
	case Count:
		o.kind, o.min, o.max, o.sel = opCount, x.Min, x.Max, x.Sel
	case And:
		o.kind = opAnd
		m.compile(x.Left)
		m.compile(x.Right)
	case Or:
		o.kind = opOr
		m.compile(x.Left)
		m.compile(x.Right)
	case Not:
		o.kind = opNot
		m.compile(x.C)
	}
	o.end = len(m.ops)
	if o.end > k+1 {
		// A connective: its leaves are its operands' leaves, and each
		// operand's record starts where the previous one ends.
		o.atoms = 0
		for i := k + 1; i < o.end; i = m.ops[i].end {
			o.atoms += m.ops[i].atoms
		}
	}
	m.ops[k] = o
}

// State is a Monitor's leaf state over one history prefix: the
// pre-order records whose leaf observations (First, Second, Count) are
// the state, and the number of history entries consumed. A State is
// not safe for concurrent use; its owner (proof.Store) serialises it.
type State struct {
	m     *Monitor
	obj   model.ObjectID
	bound bool
	nodes []NodeEval
	n     int
}

// NewState returns a fresh state of m bound to obj, over the empty
// history.
func (m *Monitor) NewState(obj model.ObjectID) *State {
	s := m.start(obj, true, nil)
	return &s
}

// start returns a fresh state whose records are nodes[:0] grown to the
// monitor's length.
func (m *Monitor) start(obj model.ObjectID, bound bool, nodes []NodeEval) State {
	if cap(nodes) < len(m.ops) {
		nodes = make([]NodeEval, 0, len(m.ops))
	}
	nodes = nodes[:0]
	for i := range m.ops {
		nodes = append(nodes, NodeEval{End: m.ops[i].end, Atoms: m.ops[i].atoms, First: -1, Second: -1})
	}
	return State{m: m, obj: obj, bound: bound, nodes: nodes}
}

// Len is the number of history entries the state has consumed.
func (s *State) Len() int { return s.n }

// Peek advances the state over the entries of t it has not consumed (t
// must extend the history the state has seen), then evaluates t
// followed by the access a: a is stepped on out's copy of the leaf
// state, so the state does not consume it. pr attests the new entries
// and a (nil attests every access). It returns the records of the
// evaluation, written to out[:0]. With timed set, a leaf's NS is its
// wall time for this evaluation, catch-up and step; a connective's is
// the sum of its operands'.
func (s *State) Peek(t trace.Trace, pr ProofOracle, a model.Access, out []NodeEval, timed bool) []NodeEval {
	return s.run(t, feed{pr: pr}, &a, append(out[:0], s.nodes...), timed)
}

// Decide evaluates the monitor, bound to obj, over hist followed by the
// access a as performed and proven, on a fresh state written to
// out[:0]: the evaluation for a history no store keeps a state on. As
// with HypotheticalOracle, a counts as proven, and so does every entry
// of hist equal to it; pr attests the rest (nil attests every access).
func (m *Monitor) Decide(obj model.ObjectID, hist trace.Trace, pr ProofOracle, a model.Access, out []NodeEval, timed bool) []NodeEval {
	s := m.start(obj, true, out)
	return s.run(hist, feed{pr: pr, pending: a, hyp: true}, &a, nil, timed)
}

// feed attests and matches the accesses a state consumes.
type feed struct {
	pr ProofOracle
	// pending, when hyp is set, is an access counted as proven.
	pending model.Access
	hyp     bool
	// obj binds anonymous patterns when bound is set (see Monitor).
	obj   model.ObjectID
	bound bool
}

func (f *feed) proven(a *model.Access) bool {
	return f.pr == nil || f.hyp && *a == f.pending || f.pr.Proven(*a)
}

// matches reports whether pattern p, stamped with the bound object,
// matches a.
func (f *feed) matches(p, a *model.Access) bool {
	if f.bound && p.Object == "" && f.obj != "" && a.Object != f.obj {
		return false
	}
	return p.Matches(*a)
}

// selects reports whether sel, stamped with the bound object, selects a.
func (f *feed) selects(sel *model.Selector, a *model.Access) bool {
	if f.bound && len(sel.Objects) == 0 && a.Object != f.obj {
		return false
	}
	return sel.SelectAccess(*a)
}

// run is the one evaluation step. It advances the leaf state over
// t[s.n:] and, with peek set, steps *peek at position len(t) — on out
// when out is non-nil (a copy of the state's records, so the peek does
// not touch the state), otherwise on the state itself. It then combines
// the connectives on the records it returns.
func (s *State) run(t trace.Trace, f feed, peek *model.Access, out []NodeEval, timed bool) []NodeEval {
	f.obj, f.bound = s.obj, s.bound
	from := s.n
	s.n = len(t)
	if out == nil {
		out = s.nodes
	}
	var pk [1]model.Access
	if peek != nil {
		pk[0] = *peek
	}
	var t0 time.Time
	for i := range s.m.ops {
		o := &s.m.ops[i]
		if o.end > i+1 {
			continue // a connective observes nothing; combine derives it
		}
		if timed {
			t0 = time.Now()
		}
		n, r := &s.nodes[i], &out[i]
		o.advance(n, t[from:], from, &f)
		r.First, r.Second, r.Count = n.First, n.Second, n.Count
		if peek != nil {
			o.advance(r, pk[:], len(t), &f)
		}
		if timed {
			r.NS = time.Since(t0).Nanoseconds()
		}
	}
	s.m.combine(out)
	return out
}

// advance feeds the accesses ts, the first at history position base,
// to leaf record n: the leaf rules of Definition 3.6 read online. An
// atom latches its first proof-backed witness, an ordering its first
// access and then the first second access after it, a count counts
// proof-backed selected accesses. A witnessed atom or ordering reads no
// further.
func (o *op) advance(n *NodeEval, ts []model.Access, base int, f *feed) {
	switch o.kind {
	case opAtom:
		for i := 0; i < len(ts) && n.First < 0; i++ {
			if f.matches(&o.first, &ts[i]) && f.proven(&ts[i]) {
				n.First = base + i
			}
		}
	case opOrdered:
		for i := 0; i < len(ts) && n.Second < 0; i++ {
			switch {
			case n.First < 0:
				if f.matches(&o.first, &ts[i]) && f.proven(&ts[i]) {
					n.First = base + i
				}
			case f.matches(&o.second, &ts[i]) && f.proven(&ts[i]):
				n.Second = base + i
			}
		}
	case opCount:
		for i := range ts {
			if f.selects(&o.sel, &ts[i]) && f.proven(&ts[i]) {
				n.Count++
			}
		}
	}
}

// combine derives every record's Status, Stable and Holds from the leaf
// observations, operands before connectives (a connective's operands
// follow it in pre-order, so a reverse sweep meets them first):
//
//   - Atom a: Satisfied once witnessed (stably: the witness stays in
//     the history), otherwise Pending.
//   - a1 ⊗ a2: Satisfied, stably, once witnessed in order; otherwise
//     Pending.
//   - #(m, n, σ): Violated, stably, once the count exceeds n (more
//     accesses only increase it); Satisfied within [m, n], stably only
//     without a ceiling; Pending below m.
//   - ∧ is Violated if either side is, Satisfied if both are; ∨ dually;
//     ¬ follows NegateStable.
//
// Holds is Definition 3.6 on the current history: the two-valued
// combination of the operands' Holds.
func (m *Monitor) combine(nodes []NodeEval) {
	for i := len(nodes) - 1; i >= 0; i-- {
		n, o := &nodes[i], &m.ops[i]
		st, stable, holds := Pending, false, false
		switch o.kind {
		case opTrue:
			st, stable, holds = Satisfied, true, true
		case opFalse:
			st, stable = Violated, true
		case opAtom:
			if n.First >= 0 {
				st, stable, holds = Satisfied, true, true
			}
		case opOrdered:
			if n.Second >= 0 {
				st, stable, holds = Satisfied, true, true
			}
		case opCount:
			holds = n.Count >= o.min && n.Count <= o.max
			switch {
			case n.Count > o.max:
				st, stable = Violated, true
			case holds:
				st, stable = Satisfied, o.max == Unbounded
			}
		case opAnd:
			l, r := &nodes[i+1], &nodes[nodes[i+1].End]
			holds = l.Holds && r.Holds
			switch {
			case l.Status == Violated || r.Status == Violated:
				st, stable = Violated, true
			case l.Status == Satisfied && r.Status == Satisfied:
				st, stable = Satisfied, l.Stable && r.Stable
			}
			n.NS = l.NS + r.NS
		case opOr:
			l, r := &nodes[i+1], &nodes[nodes[i+1].End]
			holds = l.Holds || r.Holds
			switch {
			case l.Status == Satisfied || r.Status == Satisfied:
				st, stable = Satisfied, (l.Status == Satisfied && l.Stable) || (r.Status == Satisfied && r.Stable)
			case l.Status == Violated && r.Status == Violated:
				st, stable = Violated, true
			}
			n.NS = l.NS + r.NS
		case opNot:
			in := &nodes[i+1]
			st, stable = NegateStable(in.Status, in.Stable)
			holds = !in.Holds
			n.NS = in.NS
		}
		n.Status, n.Stable, n.Holds = st, stable, holds
	}
}
