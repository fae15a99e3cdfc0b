package stac

// End-to-end tracing and explainability: a mobile agent roams a
// 3-server coalition over TCP under ONE trace context; a count-ceiling
// denial at the last hop must be attributable from every artefact the
// run leaves behind — the span store, the Chrome trace-event export,
// and the decision WAL — all correlated by the same trace and
// decision IDs.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
)

const tracedPolicy = `
user dev-1
role courier
permission p-doc read doc @ * {
    spatial count(0, 2, sigma[r=doc])
}
grant courier p-doc
assign dev-1 courier
`

func TestTracedItineraryExplainsDenialAcrossHops(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("trace-e2e-key"))
	if err := core.LoadPolicyString(c.Engine, tracedPolicy); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(1024)
	c.Engine.SetTracer(tracer)
	var wal bytes.Buffer
	c.Engine.SetRecorder(record.New(record.Config{WAL: &wal, Registry: obs.NewRegistry()}))

	addrs := map[model.ServerID]string{}
	for _, id := range []model.ServerID{"s1", "s2", "s3"} {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource("doc", []byte("payload at "+id))
		d := server.NewDaemon(srv)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		addrs[id] = addr
	}

	// The client-side runtime and the coalition engine share one
	// tracer, so the whole itinerary lands in one span store.
	rt := &agent.RemoteRuntime{Addrs: addrs, Tracer: tracer}
	// The third read is conditional, so the static check cannot rule
	// the program out (some trace stays within the ceiling) — but the
	// runtime path takes the else branch and trips count(0,2) at s3.
	prog := sral.MustParse(
		"read doc @ s1; read doc @ s2; if x > 0 then skip else read doc @ s3")
	ag := agent.New("dev-1",
		c.Signer.IssueCredential("dev-1", "owner@hq", []string{"courier"}),
		prog, c.Signer)
	tc := tracer.NewContext()
	err := rt.LaunchTraced(tc, ag)
	if err == nil {
		t.Fatal("3rd doc read granted despite count(0,2) ceiling")
	}
	if !strings.Contains(err.Error(), "spatial") {
		t.Fatalf("denial reason: %v", err)
	}
	if got := ag.Proofs.Len(); got != 2 {
		t.Fatalf("proofs before denial = %d", got)
	}

	// --- One trace ID spans every hop, client and server side. ---
	spans := tracer.Store().Trace(tc.Trace)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the launch trace")
	}
	for _, sp := range tracer.Store().Spans() {
		if sp.TraceID != tc.Trace {
			t.Fatalf("span %s escaped the itinerary trace: %s", sp.Name, sp.TraceID)
		}
	}
	services := map[string]bool{}
	names := map[string]int{}
	for _, sp := range spans {
		services[sp.Service] = true
		names[sp.Name]++
	}
	for _, svc := range []string{"agent", "daemon:s1", "daemon:s2", "daemon:s3",
		"server:s1", "server:s2", "server:s3", "engine"} {
		if !services[svc] {
			t.Fatalf("trace missing service %q (have %v)", svc, services)
		}
	}
	for name, want := range map[string]int{"itinerary": 1, "access": 3, "wire.access": 3, "authorize": 3} {
		if names[name] != want {
			t.Fatalf("span %q count = %d, want %d (all: %v)", name, names[name], want, names)
		}
	}

	// --- The Chrome export parses and carries the decision tree. ---
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	spanIDs := map[string]string{} // span_id -> name
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			spanIDs[ev.Args["span_id"]] = ev.Name
		}
	}
	var sawDecisionTree bool
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Name == "prefix_eval" && spanIDs[ev.Args["parent_id"]] == "authorize" {
			sawDecisionTree = true
		}
	}
	if !sawDecisionTree {
		t.Fatal("export lacks the authorize → prefix_eval decision tree")
	}

	// --- The WAL's decide records name the violated clause, same
	// trace (what `stacctl explain -wal` reads). ---
	recs, err := record.ReadAll(&wal)
	if err != nil {
		t.Fatalf("WAL does not decode: %v", err)
	}
	var denied *server.AuditEntry
	grants := 0
	for _, r := range recs {
		if r.Kind != record.KindDecide {
			continue
		}
		e := server.AuditFromRecord(r)
		if e.TraceID != tc.Trace.String() {
			t.Fatalf("decide record off-trace: %+v", e)
		}
		if e.Granted {
			grants++
		} else {
			denied = &e
		}
	}
	if grants != 2 || denied == nil {
		t.Fatalf("WAL: %d grants, denied=%v", grants, denied)
	}
	x := denied.Explanation
	if x == nil {
		t.Fatal("denial entry carries no explanation")
	}
	if !strings.Contains(x.Clause, "count") || !strings.Contains(x.Detail, "count 3 exceeds ceiling 2") {
		t.Fatalf("explanation does not name the violated counting clause: %+v", x)
	}
	if len(x.Counts) != 1 || x.Counts[0].Observed != 3 || x.Counts[0].Max != 2 {
		t.Fatalf("count window = %+v", x.Counts)
	}

	// --- The decision ID resolves server-side to the same clause
	// (what `stacctl explain -addr` serves). ---
	rec, ok := c.Explain(denied.DecisionID)
	if !ok {
		t.Fatalf("decision %s not resolvable via Coalition.Explain", denied.DecisionID)
	}
	if got := rec.Explanation; got == nil || got.Clause != x.Clause {
		t.Fatalf("Explain clause = %+v, audit clause = %q", got, x.Clause)
	}
	if rec.Server != "s3" {
		t.Fatalf("denial recorded at %s, want s3", rec.Server)
	}
}
