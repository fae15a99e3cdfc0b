package core

// Tests for the static-check verdict memo: each permission definition
// answers check(P, C) once per (program, object) pairing, and the
// memoised verdict is always srac.CheckProgram's on the stamped
// constraint.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/workload"
)

// countChecks makes checkProgram count its runs for the rest of the
// test.
func countChecks(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	orig := checkProgram
	checkProgram = func(p sral.Node, c srac.Constraint, obj model.ObjectID) srac.Verdict {
		n.Add(1)
		return orig(p, c, obj)
	}
	t.Cleanup(func() { checkProgram = orig })
	return &n
}

// memoCorpus is the differential corpus: the shapes of
// srac.TestStaticSoundnessOnEnumeration, of experiments E1 and E2, and
// the bench/ workloads' 256-construct programs.
func memoCorpus() (progs []sral.Node, cons []srac.Constraint) {
	add := func(p sral.Node, c srac.Constraint) {
		progs, cons = append(progs, p), append(cons, c)
	}
	r := rand.New(rand.NewSource(23))
	for range 300 {
		add(enumProgram(r, 3), enumConstraint(r, 2))
	}
	r = rand.New(rand.NewSource(2025))
	v := workload.DefaultVocabulary(4, 8)
	for _, m := range []int{10, 100, 1000} {
		p := workload.Program(r, v, workload.ProgramOptions{Size: m, LoopFraction: 0.1, ParFraction: 0.1})
		for _, n := range []int{4, 32} {
			add(p, workload.Constraint(r, v, workload.ConstraintOptions{Size: n}))
		}
	}
	r = rand.New(rand.NewSource(2026))
	v = workload.DefaultVocabulary(3, 6)
	for _, b := range []int{2, 6, 10} {
		branches := make([]sral.Node, b)
		for i := range branches {
			branches[i] = sral.If{Cond: sral.Opaque{Name: "c"},
				Then: workload.LinearProgram(r, v, 1), Else: workload.LinearProgram(r, v, 1)}
		}
		add(sral.SeqOf(branches...), workload.Constraint(r, v, workload.ConstraintOptions{Size: 6}))
	}
	r = rand.New(rand.NewSource(256))
	v = workload.DefaultVocabulary(3, 8)
	for range 8 {
		p := workload.Program(r, v, workload.ProgramOptions{Size: 256, LoopFraction: 0.1, ParFraction: 0.2})
		for _, n := range []int{4, 16, 64} {
			add(p, workload.Constraint(r, v, workload.ConstraintOptions{Size: n}))
		}
	}
	return progs, cons
}

// enumProgram is the loop-free program shape of the srac enumeration
// corpus.
func enumProgram(r *rand.Rand, depth int) sral.Node {
	accs := []sral.Prim{
		sral.AccessOp("read", "f1", "s1"),
		sral.AccessOp("write", "f2", "s1"),
		sral.AccessOp("read", "f3", "s2"),
	}
	if depth <= 0 {
		if r.Intn(4) == 0 {
			return sral.Skip{}
		}
		return accs[r.Intn(len(accs))]
	}
	switch r.Intn(4) {
	case 0:
		return sral.Seq{First: enumProgram(r, depth-1), Second: enumProgram(r, depth-1)}
	case 1:
		return sral.If{Cond: sral.Opaque{Name: "c"}, Then: enumProgram(r, depth-1), Else: enumProgram(r, depth-1)}
	case 2:
		return sral.Par{Left: enumProgram(r, depth-1), Right: enumProgram(r, depth-1)}
	default:
		return enumProgram(r, depth-1)
	}
}

// enumConstraint is the constraint shape of the srac enumeration
// corpus, one of whose accesses names object o1: for any other
// requester it mentions another object, and the check does not apply.
func enumConstraint(r *rand.Rand, depth int) srac.Constraint {
	accs := []model.Access{
		{Op: "read", Resource: "f1", Server: "s1"},
		{Op: "write", Resource: "f2", Server: "s1"},
		{Object: "o1", Op: "read", Resource: "f3", Server: "s2"},
		{Op: "execute", Resource: "f4"},
	}
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return srac.TrueC{}
		case 1:
			return srac.FalseC{}
		case 2:
			return srac.Require(accs[r.Intn(len(accs))])
		case 3:
			return srac.Before(accs[r.Intn(len(accs))], accs[r.Intn(len(accs))])
		default:
			lo := r.Intn(3)
			hi := lo + r.Intn(4)
			if r.Intn(4) == 0 {
				hi = srac.Unbounded
			}
			sel := model.Selector{}
			if r.Intn(2) == 0 {
				sel.Ops = []model.Operation{"read"}
			}
			if r.Intn(2) == 0 {
				sel.Servers = []model.ServerID{"s1", "s2"}
			}
			return srac.Count{Min: lo, Max: hi, Sel: sel}
		}
	}
	switch r.Intn(3) {
	case 0:
		return srac.And{Left: enumConstraint(r, depth-1), Right: enumConstraint(r, depth-1)}
	case 1:
		return srac.Or{Left: enumConstraint(r, depth-1), Right: enumConstraint(r, depth-1)}
	default:
		return srac.Not{C: enumConstraint(r, depth-1)}
	}
}

// The memoised verdict, on the checking call and on every repeat, is
// srac.CheckProgram(P, StampObject(C, o), o) wherever the check
// applies, and the memo runs it once per (program, object).
func TestStaticMemoMatchesCheckProgram(t *testing.T) {
	checks := countChecks(t)
	progs, cons := memoCorpus()
	objects := []model.ObjectID{"o1", "o2", "o3"}
	applied := 0
	for i := range progs {
		p, c := progs[i], cons[i]
		sm := &specMonitor{c: c}
		digest := ProgramDigest(p)
		for _, o := range objects {
			stamped := srac.StampObject(c, o)
			want := staticVerdict{applies: !srac.MentionsOtherObject(stamped, o), verdict: srac.AllTraces}
			if want.applies {
				want.verdict = srac.CheckProgram(p, stamped, o)
				applied++
			}
			before := checks.Load()
			for call := range 3 {
				if got := sm.static(p, digest, o); got != want {
					t.Fatalf("pair %d, object %s, call %d: memo %+v, CheckProgram %+v\nP = %s\nC = %s",
						i, o, call, got, want, sral.String(p), srac.String(c))
				}
			}
			if n := checks.Load() - before; n > 1 {
				t.Fatalf("pair %d, object %s: %d checks for one pairing", i, o, n)
			}
		}
	}
	if applied == 0 || applied == len(progs)*len(objects) {
		t.Fatalf("the check applied to %d of %d pairings: the corpus misses a case", applied, len(progs)*len(objects))
	}
}

// memoEngine builds an engine whose session for object o1 holds one
// permission covering reads of f1, constrained by c.
func memoEngine(t testing.TB, id rbac.PermID, c srac.Constraint) (*Engine, *rbac.Session) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	e.SetObs(obs.NewRegistry())
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: id, Op: "read", Resource: "f1"}, Spatial: c}),
		e.RBAC.GrantPermission("r", id),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("r"); err != nil {
		t.Fatal(err)
	}
	return e, sess
}

var (
	// twoReads declares two reads of f1: all of its traces hold
	// atMostTwo, and none holds atMostOne.
	twoReads  = sral.MustParse("read f1 @ s1; read f1 @ s2")
	atMostTwo = srac.Count{Min: 0, Max: 2, Sel: model.Selector{Resources: []model.ResourceID{"f1"}}}
	atMostOne = srac.Count{Min: 0, Max: 1, Sel: model.Selector{Resources: []model.ResourceID{"f1"}}}
)

// A permission defined mid-run in place of another decides the next
// request under its own constraint's verdict, not the one the earlier
// definition memoised for the same program and object.
func TestStaticMemoFollowsNewDefinition(t *testing.T) {
	e, sess := memoEngine(t, "p-old", atMostTwo)
	a := model.NewAccess("o1", "read", "f1", "s1")
	r := Request{Session: sess, Access: a, Program: twoReads, ProgramDigest: ProgramDigest(twoReads)}
	for range 2 {
		if d := e.Authorize(r); !d.Granted || d.ProgramVerdict != srac.AllTraces {
			t.Fatalf("under the old definition: %s (%v)", d, d.ProgramVerdict)
		}
	}
	if err := e.DefinePermission(PermSpec{Perm: rbac.Permission{ID: "p-new", Op: "read", Resource: "f1"},
		Spatial: atMostOne}); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.RevokePermission("r", "p-old"); err != nil {
		t.Fatal(err)
	}
	if err := e.RBAC.GrantPermission("r", "p-new"); err != nil {
		t.Fatal(err)
	}
	d := e.Authorize(r)
	if d.Granted || d.Perm != "p-new" || d.Deny != DenyProgram || d.ProgramVerdict != srac.NoTrace {
		t.Fatalf("under the new definition: %s (perm %s, %v), want a program denial by p-new", d, d.Perm, d.ProgramVerdict)
	}
	if d.Explanation == nil || d.Explanation.Clause != srac.String(srac.StampObject(atMostOne, "o1")) {
		t.Fatalf("program denial explanation = %+v", d.Explanation)
	}
}

// A shadow engine's definitions hold memos of their own: the served
// engine's memoised verdict for a pairing never answers the shadow's,
// in either order.
func TestStaticMemoShadowUnaffected(t *testing.T) {
	served, sess := memoEngine(t, "p", atMostTwo)
	shadow, shadowSess := memoEngine(t, "p", atMostOne)
	a := model.NewAccess("o1", "read", "f1", "s1")
	r := Request{Session: sess, Access: a, Program: twoReads, ProgramDigest: ProgramDigest(twoReads)}
	sr := r
	sr.Session = shadowSess
	for range 2 {
		if d := served.Authorize(r); d.ProgramVerdict != srac.AllTraces || !d.Granted {
			t.Fatalf("served: %s (%v)", d, d.ProgramVerdict)
		}
		if d := shadow.Authorize(sr); d.ProgramVerdict != srac.NoTrace || d.Deny != DenyProgram {
			t.Fatalf("shadow: %s (%v)", d, d.ProgramVerdict)
		}
	}
}

// Concurrent decisions of one object and program share one check, and
// each program of a tour is checked once per object however many
// decisions declare it.
func TestStaticMemoConcurrentDecisions(t *testing.T) {
	checks := countChecks(t)
	e, sess := memoEngine(t, "p", atMostTwo)
	a := model.NewAccess("o1", "read", "f1", "s1")
	const workers, decisions = 8, 50
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range decisions {
				if d := e.Authorize(Request{Session: sess, Access: a, Program: twoReads,
					ProgramDigest: ProgramDigest(twoReads)}); d.ProgramVerdict != srac.AllTraces {
					t.Errorf("concurrent decision: %s (%v)", d, d.ProgramVerdict)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := checks.Load(); n != 1 {
		t.Fatalf("%d concurrent decisions of one pairing ran %d checks, want 1", workers*decisions, n)
	}

	// Three programs across two objects: six pairings, six checks. A
	// request without a digest has one computed.
	for i := range 3 {
		p := sral.MustParse(fmt.Sprintf("read f1 @ s%d", i+1))
		for _, obj := range []model.ObjectID{"o1", "o2"} {
			for range 4 {
				e.Authorize(Request{Session: sess, Access: model.NewAccess(obj, "read", "f1", "s1"), Program: p})
			}
		}
	}
	if n := checks.Load(); n != 1+6 {
		t.Fatalf("six pairings ran %d checks, want 6", n-1)
	}
}

// The memo holds at most staticMemoSize pairings per definition, the
// oldest out first.
func TestStaticMemoBounded(t *testing.T) {
	checks := countChecks(t)
	sm := &specMonitor{c: atMostTwo}
	obj := func(i int) model.ObjectID { return model.ObjectID(fmt.Sprintf("o%d", i)) }
	for i := range 2 * staticMemoSize {
		sm.static(twoReads, "d", obj(i))
		if n := sm.memo.Len(); n > staticMemoSize {
			t.Fatalf("after %d pairings the memo holds %d, bound %d", i+1, n, staticMemoSize)
		}
	}
	before := checks.Load()
	sm.static(twoReads, "d", obj(2*staticMemoSize-1))
	if checks.Load() != before {
		t.Fatal("the newest pairing was evicted")
	}
	sm.static(twoReads, "d", obj(0))
	if checks.Load() != before+1 {
		t.Fatal("the oldest pairing survived eviction")
	}
}

// BenchmarkStaticVerdictMemo is one decision declaring a 256-construct
// program: first, the definition's first decision of the pairing,
// which runs the check; repeat, every later one, answered from the
// memo.
func BenchmarkStaticVerdictMemo(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := workload.DefaultVocabulary(3, 8)
	p := workload.Program(r, v, workload.ProgramOptions{Size: 256, LoopFraction: 0.1, ParFraction: 0.2})
	e, sess := memoEngine(b, "p", workload.Constraint(r, v, workload.ConstraintOptions{Size: 16}))
	req := Request{Session: sess, Access: model.NewAccess("o1", "read", "f1", "s1"),
		Program: p, ProgramDigest: ProgramDigest(p)}
	mon := e.specs["p"].mon
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			b.StopTimer()
			mon.memoMu.Lock()
			mon.memo = nil
			mon.memoMu.Unlock()
			b.StartTimer()
			e.Authorize(req)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		e.Authorize(req)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			e.Authorize(req)
		}
	})
}
