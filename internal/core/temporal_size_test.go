package core

import (
	"fmt"
	"runtime"
	"testing"

	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/temporal"
)

// sizedEngine builds an engine whose one role confers n finite-budget
// permissions under the given scheme, and a session of that role.
func sizedEngine(t *testing.T, n int, scheme temporal.Scheme) (*Engine, *rbac.Session, *temporal.SimClock) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.RBAC.AddUser("o1"))
	must(e.RBAC.AddRole("r"))
	for i := 0; i < n; i++ {
		id := rbac.PermID(fmt.Sprintf("p%03d", i))
		must(e.DefinePermission(PermSpec{
			Perm:     rbac.Permission{ID: id, Op: "read", Resource: model.ResourceID(fmt.Sprintf("f%03d", i))},
			Duration: 1e9,
			Scheme:   scheme,
		}))
		must(e.RBAC.GrantPermission("r", id))
	}
	must(e.RBAC.AssignUserRole("o1", "r"))
	sess, err := e.RBAC.CreateSession("o1")
	must(err)
	must(sess.ActivateRole("r"))
	return e, sess, clk
}

// hop moves the object through one server: arrival, activation of the
// session's permissions, a second on the server, and departure.
func hop(e *Engine, sess *rbac.Session, clk *temporal.SimClock) func() {
	return func() {
		clk.Advance(1)
		e.ObjectArrived("o1", "s1")
		e.ActivatePermissions(sess, "o1")
		clk.Advance(1)
		e.DeactivatePermissions(sess, "o1")
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTemporalHopSizeIndependent: with recording off, a hop allocates
// the same for a session conferring 8 permissions as for one conferring
// 512, and 1000 global-scheme hops do not grow the object's engine
// state — the temporal state is one clock per session, not a tracker
// (and a valid-state interval) per permission.
func TestTemporalHopSizeIndependent(t *testing.T) {
	var allocs [2]float64
	for i, n := range []int{8, 512} {
		e, sess, clk := sizedEngine(t, n, temporal.GlobalBase)
		h := hop(e, sess, clk)
		h() // the first hop creates the object's state
		allocs[i] = testing.AllocsPerRun(100, h)
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per hop: %v with 8 permissions, %v with 512", allocs[0], allocs[1])
	}

	e, sess, clk := sizedEngine(t, 512, temporal.GlobalBase)
	h := hop(e, sess, clk)
	h()
	before := heapAlloc()
	for i := 0; i < 1000; i++ {
		h()
	}
	after := heapAlloc()
	runtime.KeepAlive(e)
	if after > before && after-before > 256<<10 {
		t.Fatalf("1000 hops grew the heap by %d bytes", after-before)
	}
}
