package server

// Tests for the per-request stage ledger: an untraced access records
// no spans and still leaves a stage vector on its exemplar, the stages
// of every access sum to its wall time and fit inside the client's
// round trip, and a sampled context's span tree is rendered from the
// same marks with the names, parents and attributes it always had.

import (
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
)

// ledgerDaemon serves s1 of a fresh coalition on a private registry,
// with a sampling tracer on the engine; onStages, when set, sees each
// access's closed ledger.
func ledgerDaemon(t *testing.T, onStages func(*obs.StageLedger)) (*Coalition, *obs.Tracer, *obs.Registry, string) {
	t.Helper()
	c, _ := newCoalition(t)
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	tracer := obs.NewTracer(256)
	c.Engine.SetTracer(tracer)
	srv, err := c.Server("s1")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDaemonWith(srv, DaemonConfig{Obs: reg})
	d.onStages = onStages
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return c, tracer, reg, addr
}

func stageHistogram(reg *obs.Registry, s obs.Stage) *obs.Histogram {
	return reg.Histogram("stac_request_stage_seconds", obs.Label("stage", s.String()), "", nil)
}

// TestUntracedAccessRecordsNoSpans: against a daemon whose tracer is
// sampling, a client that sends no trace context gets no span, no trace
// echo, and still a decision ID; the latency exemplar the decision
// claims carries its stage vector.
func TestUntracedAccessRecordsNoSpans(t *testing.T) {
	c, tracer, reg, addr := ledgerDaemon(t, nil)
	rc := dialRaw(t, addr)
	token := rc.auth(cred(c, "o1", "owner", "traveler"))
	const n = 3
	for i := 0; i < n; i++ {
		resp := rc.send(wireRequest{Type: "access", Token: token, Op: "read", Resource: "f-s1"})
		if !resp.OK {
			t.Fatalf("access %d: %s", i, resp.Error)
		}
		if resp.Trace != "" {
			t.Fatalf("untraced access echoed trace %q", resp.Trace)
		}
		if resp.DecisionID == "" {
			t.Fatalf("access %d has no decision_id", i)
		}
	}
	if got := tracer.Store().Total(); got != 0 {
		t.Fatalf("untraced accesses recorded %d spans: %+v", got, tracer.Store().Spans())
	}
	exemplars := c.Engine.DecisionExemplars()
	if len(exemplars) == 0 {
		t.Fatal("no decision exemplar retained")
	}
	for _, ex := range exemplars {
		if ex.TraceID != "" {
			t.Fatalf("untraced exemplar has trace %q", ex.TraceID)
		}
		stages := map[string]bool{}
		for _, st := range ex.Stages {
			stages[st.Stage] = true
		}
		for _, want := range []string{"decode", "verify", "lookup", "prefix"} {
			if !stages[want] {
				t.Fatalf("exemplar %s stage vector %+v lacks %s", ex.DecisionID, ex.Stages, want)
			}
		}
		if obs.DominantStage(ex.Stages) == "" {
			t.Fatalf("exemplar %s names no dominant stage", ex.DecisionID)
		}
	}
	// Every access fed the stage family; the reply write is the last
	// stage, so its count can trail the client by one observation.
	deadline := time.Now().Add(5 * time.Second)
	for stageHistogram(reg, obs.StageWrite).Count() != n {
		if time.Now().After(deadline) {
			t.Fatalf("write stage count %d, want %d", stageHistogram(reg, obs.StageWrite).Count(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if got := stageHistogram(reg, obs.StageDecode).Count(); got != n {
		t.Fatalf("decode stage count %d, want %d", got, n)
	}
}

// maxResidueShare is the stated bound on the ledger's unattributed
// time: in the median loopback access, the residue stage (dispatch,
// session and dedup lookups, profiling, bookkeeping) stays under this
// share of the request's wall time. The median, because a request the
// scheduler preempts charges the pause to whichever stage was current.
const maxResidueShare = 0.5

// TestStageLedgerReconciles drives loopback accesses and holds every
// request's ledger to its wall time: the stages sum to it exactly, the
// decision's stages were each entered, the sum over all requests fits
// inside the clients' round trips, the median request's residue stays
// under its stated share, and the stage histograms add up to the same total — while a
// scraper reads the exemplars and the stage family concurrently.
func TestStageLedgerReconciles(t *testing.T) {
	var mu sync.Mutex
	var ledgers []obs.StageLedger
	c, _, reg, addr := ledgerDaemon(t, func(l *obs.StageLedger) {
		mu.Lock()
		ledgers = append(ledgers, *l)
		mu.Unlock()
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	// A scraper reads the exemplars' stage vectors and the stage
	// family while connection goroutines write ledgers.
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ex := range c.Engine.DecisionExemplars() {
				_ = obs.DominantStage(ex.Stages)
			}
			obs.WritePrometheus(io.Discard, reg)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	const n = 200
	var rtt time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := cl.Access(model.OpRead, "f-s1", "read f-s1 @ s1", nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		rtt += time.Since(start)
	}
	close(stop)
	scraper.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(ledgers)
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ledgers closed, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}

	var wall, histSum time.Duration
	shares := make([]float64, 0, n)
	for i := range ledgers {
		l := &ledgers[i]
		var sum time.Duration
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			sum += l.Stage(s)
		}
		if sum != l.Wall() {
			t.Fatalf("request %d: stages sum to %v, wall %v", i, sum, l.Wall())
		}
		for _, s := range []obs.Stage{obs.StageDecode, obs.StageVerify, obs.StageLookup, obs.StageStatic,
			obs.StagePrefix, obs.StageTemporal, obs.StageLog, obs.StageIssue, obs.StageWrite} {
			if _, _, ok := l.Interval(s); !ok {
				t.Fatalf("request %d never entered stage %s", i, s)
			}
		}
		wall += l.Wall()
		shares = append(shares, float64(l.Stage(obs.StageResidue))/float64(l.Wall()))
	}
	sort.Float64s(shares)
	residue := shares[n/2]
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		histSum += stageHistogram(reg, s).Sum()
	}
	t.Logf("%d accesses: ledger wall %v, client round trips %v, median residue %.1f%%",
		n, wall, rtt, 100*residue)
	if wall > rtt {
		t.Fatalf("ledgers total %v, more than the round trips' %v", wall, rtt)
	}
	if residue > maxResidueShare {
		t.Fatalf("median residue is %.1f%% of wall time, over the stated %.0f%%", 100*residue, 100*maxResidueShare)
	}
	if histSum != wall {
		t.Fatalf("stage histograms sum to %v, ledgers to %v", histSum, wall)
	}
}

// TestSampledAccessRendersSpanTree: a context the client sampled gets
// the span tree it always had — wire.access → server.request →
// authorize → static_check / prefix_eval / temporal_check, one each,
// with their attributes — and every child lies inside its parent, as
// spans cut from one ledger must.
func TestSampledAccessRendersSpanTree(t *testing.T) {
	c, tracer, _, addr := ledgerDaemon(t, nil)
	rc := dialRaw(t, addr)
	token := rc.auth(cred(c, "o1", "owner", "traveler"))
	tc := tracer.NewContext().Child()
	resp := rc.send(wireRequest{Type: "access", Token: token, Op: "read", Resource: "f-s1",
		Program: "read f-s1 @ s1", Trace: tc.String()})
	if !resp.OK || resp.DecisionID == "" {
		t.Fatalf("sampled access: %+v", resp)
	}
	if resp.Trace != tc.String() {
		t.Fatalf("trace echo %q, want %q", resp.Trace, tc)
	}
	spans := map[string]obs.Span{}
	for _, sp := range tracer.Store().Trace(tc.Trace) {
		if _, dup := spans[sp.Name]; dup {
			t.Fatalf("two %s spans", sp.Name)
		}
		spans[sp.Name] = sp
	}
	tree := []struct{ name, parent, service string }{
		{"wire.access", "", "daemon:s1"},
		{"server.request", "wire.access", "server:s1"},
		{"authorize", "server.request", "engine"},
		{"static_check", "authorize", "engine"},
		{"prefix_eval", "authorize", "engine"},
		{"temporal_check", "authorize", "engine"},
	}
	if len(spans) != len(tree) {
		t.Fatalf("%d spans, want %d: %v", len(spans), len(tree), spans)
	}
	for _, node := range tree {
		sp, ok := spans[node.name]
		if !ok {
			t.Fatalf("no %s span", node.name)
		}
		if sp.Service != node.service {
			t.Fatalf("%s service %q, want %q", node.name, sp.Service, node.service)
		}
		parent := tc.Span
		if node.parent != "" {
			p := spans[node.parent]
			parent = p.SpanID
			if sp.Start.Before(p.Start) || sp.Start.Add(sp.Duration).After(p.Start.Add(p.Duration)) {
				t.Fatalf("%s [%v +%v] lies outside %s [%v +%v]", node.name, sp.Start, sp.Duration,
					node.parent, p.Start, p.Duration)
			}
		}
		if sp.Parent != parent {
			t.Fatalf("%s parent %s, want %s", node.name, sp.Parent, parent)
		}
	}
	attr := func(name, key string) string {
		for _, a := range spans[name].Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for name, want := range map[[2]string]string{
		{"wire.access", "decision_id"}:    resp.DecisionID,
		{"wire.access", "granted"}:        "true",
		{"server.request", "decision_id"}: resp.DecisionID,
		{"server.request", "access"}:      "o1: read f-s1 @ s1",
		{"authorize", "decision_id"}:      resp.DecisionID,
		{"authorize", "granted"}:          "true",
		{"static_check", "verdict"}:       "all-traces",
		{"prefix_eval", "status"}:         "satisfied",
		{"prefix_eval", "history_len"}:    "1",
		{"temporal_check", "state"}:       "valid",
	} {
		if got := attr(name[0], name[1]); got != want {
			t.Fatalf("%s %s = %q, want %q (attrs %+v)", name[0], name[1], got, want, spans[name[0]].Attrs)
		}
	}
}
