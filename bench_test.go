package stac

// Benchmark harness: one benchmark per experiment of EXPERIMENTS.md.
// Each benchmark exercises the same code path as the corresponding
// experiment in internal/experiments (which cmd/coalition-sim runs as
// a table); the benchmarks give per-operation costs with -benchmem.

import (
	"fmt"
	"math/rand"
	"testing"

	"stac/internal/agent"
	"stac/internal/baseline"
	"stac/internal/core"
	"stac/internal/digraph"
	"stac/internal/experiments"
	"stac/internal/model"
	proofpkg "stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/server"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/workload"
)

// BenchmarkF1_Figure1Audit measures one full Figure 1 audit: the
// 8-module digraph over three servers, constraint-checked hashing in
// dependency order (the paper's only figure, run end to end).
func BenchmarkF1_Figure1Audit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.F1(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_StaticCheckScaling validates Theorem 3.2's O(m·n) bound:
// ns/op should grow linearly with m at fixed n and with n at fixed m.
func BenchmarkE1_StaticCheckScaling(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	v := workload.DefaultVocabulary(4, 8)
	for _, m := range []int{10, 100, 1000, 10000} {
		prog := workload.Program(r, v, workload.ProgramOptions{Size: m, LoopFraction: 0.1, ParFraction: 0.1})
		for _, n := range []int{4, 64} {
			cons := workload.Constraint(r, v, workload.ConstraintOptions{Size: n})
			b.Run(fmt.Sprintf("m=%d/n=%d", prog.Size(), cons.Size()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					srac.CheckProgram(prog, cons, "o1")
				}
			})
		}
	}
}

// BenchmarkE2_EnumVsPoly compares the enumeration baseline with the
// polynomial checker on programs with 2^branches traces.
func BenchmarkE2_EnumVsPoly(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	v := workload.DefaultVocabulary(3, 6)
	for _, branches := range []int{4, 8, 12} {
		var nodes []sral.Node
		for i := 0; i < branches; i++ {
			nodes = append(nodes, sral.If{
				Cond: sral.Opaque{Name: "c"},
				Then: workload.LinearProgram(r, v, 1),
				Else: workload.LinearProgram(r, v, 1),
			})
		}
		prog := sral.SeqOf(nodes...)
		cons := workload.Constraint(r, v, workload.ConstraintOptions{Size: 6})
		b.Run(fmt.Sprintf("enum/branches=%d", branches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				baseline.EnumCheck(prog, cons, "o1", sral.TraceOptions{MaxTraces: -1})
			}
		})
		b.Run(fmt.Sprintf("static/branches=%d", branches), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srac.CheckProgram(prog, srac.StampObject(cons, "o1"), "o1")
			}
		})
	}
}

// BenchmarkE3_TemporalValidity measures Expression 4.1 evaluation —
// the duration integral and the duration-calculus safety query — as
// the valid-state function grows.
func BenchmarkE3_TemporalValidity(b *testing.B) {
	for _, k := range []int{10, 1000, 100000} {
		st := temporal.NewState()
		for i := 0; i < k; i++ {
			base := float64(2 * i)
			st.SetOn(base, base+1)
		}
		window := temporal.Interval{Begin: 0, End: float64(2 * k)}
		b.Run(fmt.Sprintf("integral/intervals=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = st.Integral(window.Begin, window.End)
			}
		})
		f := temporal.DCNot{D: temporal.Chop{
			Left:  temporal.IntegralCmp{P: "valid", Op: temporal.DCGt, C: float64(k)},
			Right: temporal.LenCmp{Op: temporal.DCGe, C: 0},
		}}
		states := temporal.States{"valid": st}
		b.Run(fmt.Sprintf("dc-query/intervals=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = temporal.EvalDC(f, states, window)
			}
		})
	}
}

// benchCoalition builds a coalition for the enforcement benchmarks.
func benchCoalition(b *testing.B, constrained bool, servers int) (*server.Coalition, []*server.Server) {
	b.Helper()
	c := server.NewCoalition(temporal.NewSimClock(0), []byte("bench-key"))
	policy := `
user o1
role traveler
permission p-read read * @ *
grant traveler p-read
assign o1 traveler
`
	if constrained {
		policy = `
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, 1000000000, sigma[op=read])
    duration 1000000000s
    scheme global
}
grant traveler p-read
assign o1 traveler
`
	}
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		b.Fatal(err)
	}
	var srvs []*server.Server
	for i := 0; i < servers; i++ {
		srv, err := c.AddServer(model.ServerID(fmt.Sprintf("s%d", i+1)))
		if err != nil {
			b.Fatal(err)
		}
		srv.HostResource("f1", []byte("payload"))
		srvs = append(srvs, srv)
	}
	return c, srvs
}

// BenchmarkE4_EnforcementOverhead measures a single authorised access
// under plain RBAC vs the full spatio-temporal policy — the per-request
// enforcement cost of Section 5's prototype.
func BenchmarkE4_EnforcementOverhead(b *testing.B) {
	for _, constrained := range []bool{false, true} {
		name := "plain-rbac"
		if constrained {
			name = "spatio-temporal"
		}
		b.Run(name, func(b *testing.B) {
			c, srvs := benchCoalition(b, constrained, 1)
			cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
			sub, err := srvs[0].Authenticate(cred)
			if err != nil {
				b.Fatal(err)
			}
			// No proof store: unbounded accumulation across b.N
			// iterations would distort ns/op; the oracle attests all.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srvs[0].Request(sub, model.OpRead, "f1", server.RequestContext{Proofs: srac.AllProven}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_RoamingTour measures a whole tour (authenticate, access,
// depart at each of 8 servers).
func BenchmarkE4_RoamingTour(b *testing.B) {
	c, _ := benchCoalition(b, true, 8)
	cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
	var nodes []sral.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, sral.Prim{Op: model.OpRead, Resource: "f1", Server: model.ServerID(fmt.Sprintf("s%d", i+1))})
	}
	prog := sral.SeqOf(nodes...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ag := agent.New("o1", cred, prog, nil)
		if err := agent.Launch(c, ag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_TRBACRoleExplosion measures the planning cost and
// documents the role-count gap via the experiment table.
func BenchmarkE5_TRBACRoleExplosion(b *testing.B) {
	perms := make([]baseline.TRBACPermission, 120)
	for i := range perms {
		perms[i] = baseline.TRBACPermission{
			ID:       model.ResourceID(fmt.Sprintf("perm-%03d", i)),
			Duration: float64(10 * (i%40 + 1)),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := baseline.PlanTRBAC(perms)
		if plan.RoleCount() != 40 {
			b.Fatalf("roles = %d", plan.RoleCount())
		}
		_ = baseline.TotalChurn(plan)
	}
}

// BenchmarkE6_ParallelAudit measures the sharded Section 6 audit at
// k ∈ {1, 4} clones over the Figure 1 digraph hosted coalition.
func BenchmarkE6_ParallelAudit(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("clones=%d", k), func(b *testing.B) {
			g := digraph.Figure1()
			c := server.NewCoalition(temporal.NewSimClock(0), []byte("bench-key"))
			for _, s := range g.ServersOf(g.Modules()) {
				if _, err := c.AddServer(s); err != nil {
					b.Fatal(err)
				}
			}
			for _, id := range g.Modules() {
				m, _ := g.Module(id)
				srv, _ := c.Server(m.Server)
				srv.HostResource(m.Resource(), m.Content)
			}
			if err := c.Engine.RBAC.AddUser("aud"); err != nil {
				b.Fatal(err)
			}
			if err := c.Engine.RBAC.AddRole("auditor"); err != nil {
				b.Fatal(err)
			}
			if err := c.Engine.DefinePermission(core.PermSpec{
				Perm: rbac.Permission{ID: "p-audit", Op: model.OpRead},
			}); err != nil {
				b.Fatal(err)
			}
			if err := c.Engine.RBAC.GrantPermission("auditor", "p-audit"); err != nil {
				b.Fatal(err)
			}
			if err := c.Engine.RBAC.AssignUserRole("aud", "auditor"); err != nil {
				b.Fatal(err)
			}
			order, err := g.TopoOrder()
			if err != nil {
				b.Fatal(err)
			}
			var accesses []agent.AccessPattern
			for _, id := range order {
				m, _ := g.Module(id)
				accesses = append(accesses, agent.AccessPattern{Op: model.OpRead, Res: m.Resource(), Server: m.Server})
			}
			prog := agent.Sharded(accesses, k, nil, nil).Build()
			cred := c.Signer.IssueCredential("aud", "auditor@hq", []string{"auditor"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ag := agent.New("aud", cred, prog, nil)
				if err := agent.Launch(c, ag); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7_Synthesis measures Theorem 3.1's constructive synthesis
// plus the bounded trace-model equality check.
func BenchmarkE7_Synthesis(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	m, err := sral.ParseRegular("(read f1 @ s1 | read f2 @ s1) . (write f3 @ s2)* . (read f1 @ s2 | eps)")
	if err != nil {
		b.Fatal(err)
	}
	_ = r
	opts := sral.TraceOptions{MaxLoopReps: 3, MaxTraces: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := sral.Synthesize(m)
		got, _ := sral.Traces(p, opts)
		want, _ := sral.Enumerate(m, opts)
		if !got.Equal(want) {
			b.Fatal("synthesis mismatch")
		}
	}
}

// BenchmarkRuntimeTraceCheck measures Definition 3.6 evaluation on a
// growing proof-backed history — the hot path of every access grant.
func BenchmarkRuntimeTraceCheck(b *testing.B) {
	sel := model.Selector{Resources: []model.ResourceID{"rsw"}}
	cons := srac.AndOf(
		srac.AtMost(1000000, sel),
		srac.Before(
			model.Access{Op: "read", Resource: "dep"},
			model.Access{Op: "read", Resource: "mod"},
		),
	)
	for _, histLen := range []int{10, 100, 1000} {
		hist := make([]model.Access, histLen)
		for i := range hist {
			hist[i] = model.NewAccess("o1", "read", model.ResourceID(fmt.Sprintf("f%d", i%7)), "s1")
		}
		b.Run(fmt.Sprintf("history=%d", histLen), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = srac.EvalPrefix(hist, cons, nil)
			}
		})
	}
}

// BenchmarkE8_LedgerCoordination measures one gated decision against a
// coalition ledger of growing size (companion coordination).
func BenchmarkE8_LedgerCoordination(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprintf("ledger=%d", n), func(b *testing.B) {
			clk := temporal.NewSimClock(0)
			c := server.NewCoalition(clk, []byte("bench-key"))
			c.EnableLedger()
			policy := `
user scout
user striker
role scouting
role striking
permission p-mark write target @ *
permission p-strike execute target @ * {
    spatial [scout: read go-signal @ *] >> [striker: execute target @ *]
    mode strict
}
grant scouting p-mark
grant striking p-strike
assign scout scouting
assign striker striking
`
			if err := core.LoadPolicyString(c.Engine, policy); err != nil {
				b.Fatal(err)
			}
			s1, err := c.AddServer("s1")
			if err != nil {
				b.Fatal(err)
			}
			s1.HostResource("target", []byte("x"))
			scoutSub, err := s1.Authenticate(c.Signer.IssueCredential("scout", "o", []string{"scouting"}))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := s1.Request(scoutSub, model.OpWrite, "target", server.RequestContext{Payload: []byte("m")}); err != nil {
					b.Fatal(err)
				}
			}
			strikerSub, err := s1.Authenticate(c.Signer.IssueCredential("striker", "o", []string{"striking"}))
			if err != nil {
				b.Fatal(err)
			}
			// Measure the still-gated decision (the scout never ran
			// the required *read*): denials scan the merged ledger
			// history — the cost under test — without appending to
			// it, so ns/op reflects the configured ledger size rather
			// than b.N.
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s1.Request(strikerSub, model.OpExecute, "target", server.RequestContext{}); err == nil {
					b.Fatal("gated strike unexpectedly granted")
				}
			}
		})
	}
}

// BenchmarkAblation_StaticProgramCheck isolates the cost of the
// check(P, C) admission step by authorising the same request with and
// without the declared program attached.
func BenchmarkAblation_StaticProgramCheck(b *testing.B) {
	c, srvs := benchCoalition(b, true, 1)
	cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
	sub, err := srvs[0].Authenticate(cred)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	prog := workload.Program(r, workload.DefaultVocabulary(4, 8),
		workload.ProgramOptions{Size: 200, LoopFraction: 0.1, ParFraction: 0.1})
	for _, withProgram := range []bool{false, true} {
		name := "without-program"
		if withProgram {
			name = "with-program"
		}
		b.Run(name, func(b *testing.B) {
			ctx := server.RequestContext{Proofs: srac.AllProven}
			if withProgram {
				ctx.Program = prog
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srvs[0].Request(sub, model.OpRead, "f1", ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProportionalShares measures the stride scheduler's decision
// cost at different client counts (the Naplet proportional-share
// facility).
func BenchmarkProportionalShares(b *testing.B) {
	for _, clients := range []int{4, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s := server.NewShareScheduler()
			for i := 0; i < clients; i++ {
				if err := s.SetWeight(fmt.Sprintf("agent-%d", i), 1+i%7); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Next(); !ok {
					b.Fatal("empty scheduler")
				}
			}
		})
	}
}

// BenchmarkPolicyLoad measures parsing + installing a realistic policy.
func BenchmarkPolicyLoad(b *testing.B) {
	var sb []byte
	sb = append(sb, "role worker\nuser o1\nassign o1 worker\n"...)
	for i := 0; i < 50; i++ {
		sb = append(sb, fmt.Sprintf(
			"permission p-%02d read f%d @ * {\n    spatial count(0, %d, sigma[r=f%d])\n    duration %dm\n}\ngrant worker p-%02d\n",
			i, i, i+1, i, i+1, i)...)
	}
	policy := string(sb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(temporal.NewSimClock(0))
		if err := core.LoadPolicyString(e, policy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofIssueVerify measures the HMAC proof hot path.
func BenchmarkProofIssueVerify(b *testing.B) {
	s := proofpkg.NewSigner([]byte("bench-key"))
	a := model.NewAccess("o1", "read", "f1", "s1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := s.Issue(a, float64(i))
		if err := s.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
}
