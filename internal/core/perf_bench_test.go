package core

import (
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// benchSpatialEngine builds an engine whose permission carries a real
// spatial constraint, so the decision path pays a prefix evaluation —
// the work the cost profiler shadows.
func benchSpatialEngine(b *testing.B) (*Engine, Request) {
	b.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	e.SetObs(obs.NewRegistry())
	dep := model.Access{Op: "read", Resource: "dep"}
	f := model.Access{Op: "read", Resource: "f"}
	spatial := srac.And{
		Left:  srac.Implies(srac.Require(f), srac.Before(dep, f)),
		Right: srac.Count{Min: 0, Max: 64, Sel: model.Selector{Ops: []model.Operation{"read"}}},
	}
	for _, step := range []error{
		e.RBAC.AddUser("o1"),
		e.RBAC.AddRole("r"),
		e.DefinePermission(PermSpec{
			Perm:    rbac.Permission{ID: "p", Op: "read", Resource: "f"},
			Spatial: spatial,
		}),
		e.RBAC.GrantPermission("r", "p"),
		e.RBAC.AssignUserRole("o1", "r"),
	} {
		if step != nil {
			b.Fatal(step)
		}
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.ActivateRole("r"); err != nil {
		b.Fatal(err)
	}
	hist := trace.Trace{
		model.NewAccess("o1", "read", "dep", "s1"),
		model.NewAccess("o1", "read", "f", "s1"),
		model.NewAccess("o1", "read", "dep", "s1"),
		model.NewAccess("o1", "read", "f", "s1"),
	}
	return e, Request{
		Session: sess,
		Access:  model.NewAccess("o1", "read", "f", "s1"),
		History: hist,
	}
}

// BenchmarkE17_CostProfilingOverhead runs the same constrained
// Authorize tour with the per-clause profiler (cost and coverage, one
// collector) on and off. The profiled arm pays one cost walk, the
// per-clause cell updates and the 1-in-64 timing samples.
func BenchmarkE17_CostProfilingOverhead(b *testing.B) {
	for _, arm := range []string{"profiled", "detached"} {
		b.Run(arm, func(b *testing.B) {
			e, req := benchSpatialEngine(b)
			if arm == "profiled" {
				e.EnableCostProfiling()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d := e.Authorize(req); !d.Granted {
					b.Fatal(d.Reason)
				}
			}
		})
	}
}
