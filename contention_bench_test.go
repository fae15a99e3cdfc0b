package stac

// Multi-core contention benchmarks for the sharded engine (ROADMAP
// item 1, PR 7): N goroutines, each acting as its own credential
// (object + session), authorize in parallel against one engine. Under
// the pre-PR-7 single coarse engine lock these flatlined regardless
// of cores; with per-credential shards and RWMutex-striped policy
// reads they should scale with GOMAXPROCS. EXPERIMENTS E14 records
// the before/after numbers.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
)

// contentionEngine builds an engine with nCreds registered credentials
// (users u0..uN-1 sharing one role) and a counting-constrained
// permission, and opens one session per credential.
func contentionEngine(b *testing.B, nCreds int) (*core.Engine, []*rbac.Session) {
	b.Helper()
	e := core.NewEngine(temporal.NewSimClock(0))
	if err := e.RBAC.AddRole("traveler"); err != nil {
		b.Fatal(err)
	}
	spec := core.PermSpec{
		Perm:    rbac.Permission{ID: "p-read", Op: model.OpRead},
		Spatial: srac.Count{Min: 0, Max: srac.Unbounded, Sel: model.Selector{Ops: []model.Operation{model.OpRead}}},
	}
	if err := e.DefinePermission(spec); err != nil {
		b.Fatal(err)
	}
	if err := e.RBAC.GrantPermission("traveler", "p-read"); err != nil {
		b.Fatal(err)
	}
	sessions := make([]*rbac.Session, nCreds)
	for i := 0; i < nCreds; i++ {
		u := rbac.UserID(fmt.Sprintf("u%d", i))
		if err := e.RBAC.AddUser(u); err != nil {
			b.Fatal(err)
		}
		if err := e.RBAC.AssignUserRole(u, "traveler"); err != nil {
			b.Fatal(err)
		}
		sess, err := e.RBAC.CreateSession(u)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.ActivateRole("traveler"); err != nil {
			b.Fatal(err)
		}
		obj := model.ObjectID(fmt.Sprintf("u%d", i))
		e.ObjectArrived(obj, "s1")
		e.ActivatePermissions(sess, obj)
		sessions[i] = sess
	}
	return e, sessions
}

// BenchmarkE14_ContentionScaling drives G parallel credentials, each
// authorizing its own accesses in a tight loop — independent
// credentials, so a sharded engine should never make them contend.
// Each credential carries a short history.
func BenchmarkE14_ContentionScaling(b *testing.B) {
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("scan/goroutines=%d", g), func(b *testing.B) {
			e, sessions := contentionEngine(b, g)
			reqs := make([]core.Request, g)
			for i := range reqs {
				obj := model.ObjectID(fmt.Sprintf("u%d", i))
				hist := make([]model.Access, 8)
				for j := range hist {
					hist[j] = model.Access{Object: obj, Op: model.OpRead, Resource: "f1", Server: "s1"}
				}
				reqs[i] = core.Request{
					Session: sessions[i],
					Access:  model.Access{Object: obj, Op: model.OpRead, Resource: "f1", Server: "s1"},
					History: hist,
					Proofs:  srac.AllProven,
				}
			}
			var idx int64
			b.ReportAllocs()
			b.SetParallelism(1)
			prev := runtime.GOMAXPROCS(g)
			defer runtime.GOMAXPROCS(prev)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each parallel worker takes its own credential.
				me := int(atomic.AddInt64(&idx, 1)-1) % g
				req := reqs[me]
				for pb.Next() {
					if d := e.Authorize(req); !d.Granted {
						b.Error(d.Reason)
						return
					}
				}
			})
		})
	}
}

// BenchmarkAuthorizeMany compares a burst decided one call at a time
// against the batched AuthorizeMany entry point.
func BenchmarkAuthorizeMany(b *testing.B) {
	const burst = 64
	e, sessions := contentionEngine(b, 1)
	reqs := make([]core.Request, burst)
	for i := range reqs {
		reqs[i] = core.Request{
			Session: sessions[0],
			Access:  model.Access{Object: "u0", Op: model.OpRead, Resource: "f1", Server: "s1"},
			Proofs:  srac.AllProven,
		}
	}
	b.Run("loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range reqs {
				if d := e.Authorize(reqs[j]); !d.Granted {
					b.Fatal(d.Reason)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, d := range e.AuthorizeMany(reqs) {
				if !d.Granted {
					b.Fatal(d.Reason)
				}
			}
		}
	})
}
