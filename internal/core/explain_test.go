package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// A count-ceiling denial on the scan path must name the violated
// counting clause and carry its window arithmetic.
func TestDenialExplanationCountCeiling(t *testing.T) {
	sel := model.Selector{Resources: []model.ResourceID{"f1"}}
	spatial := srac.AtMost(2, sel)
	e, sess, _ := testEngine(t, spatial, 0, temporal.GlobalBase)
	a := model.NewAccess("o1", "read", "f1", "s1")
	hist := trace.Trace{a, a}
	d := e.Authorize(Request{Session: sess, Access: a, History: hist})
	if d.Granted {
		t.Fatal("3rd access granted despite ceiling 2")
	}
	x := d.Explanation
	if x == nil {
		t.Fatal("denial has no explanation")
	}
	if x.Clause == "" || !strings.Contains(x.Detail, "count 3 exceeds ceiling 2") {
		t.Fatalf("explanation = %+v", x)
	}
	if len(x.Counts) != 1 || x.Counts[0].Observed != 3 || x.Counts[0].Max != 2 {
		t.Fatalf("counts = %+v", x.Counts)
	}
	// The explanation is JSON-serialisable (it rides audit entries).
	if _, err := json.Marshal(x); err != nil {
		t.Fatal(err)
	}
	if x.String() == "" {
		t.Fatal("empty String")
	}
}

// A temporal denial must carry the budget arithmetic: consumed vs
// dur(perm), with the scheme named.
func TestDenialExplanationTemporalExhausted(t *testing.T) {
	e, sess, clk := testEngine(t, nil, 10, temporal.GlobalBase)
	a := model.NewAccess("o1", "read", "f1", "s1")
	if d := e.Authorize(req(sess, a)); !d.Granted {
		t.Fatalf("initial access denied: %s", d)
	}
	clk.Advance(11)
	d := e.Authorize(req(sess, a))
	if d.Granted || d.Deny != DenyTemporalExhausted {
		t.Fatalf("decision = %+v", d)
	}
	x := d.Explanation
	if x == nil || x.Temporal == nil {
		t.Fatalf("explanation = %+v", x)
	}
	te := x.Temporal
	if te.Budget != 10 || te.Consumed < 10 || te.Remaining != 0 {
		t.Fatalf("temporal explanation = %+v", te)
	}
	if te.Scheme == "" {
		t.Fatal("scheme not named")
	}
	if !strings.Contains(x.String(), "consumed") {
		t.Fatalf("String = %q", x.String())
	}
}

// A statically rejected program is explained as such.
func TestDenialExplanationStaticCheck(t *testing.T) {
	e, sess, _ := testEngine(t, srac.FalseC{}, 0, temporal.GlobalBase)
	a := model.NewAccess("o1", "read", "f1", "s1")
	prog := sral.MustParse("read f1 @ s1")
	d := e.Authorize(Request{Session: sess, Access: a, Program: prog})
	if d.Granted || d.Deny != DenyProgram {
		t.Fatalf("decision = %+v", d)
	}
	if d.Explanation == nil || !strings.Contains(d.Explanation.Detail, "static check") {
		t.Fatalf("explanation = %+v", d.Explanation)
	}
}

// Grants carry no explanation — the field is a denial artifact.
func TestGrantHasNoExplanation(t *testing.T) {
	e, sess, _ := testEngine(t, nil, 0, temporal.GlobalBase)
	d := e.Authorize(req(sess, model.NewAccess("o1", "read", "f1", "s1")))
	if !d.Granted || d.Explanation != nil {
		t.Fatalf("decision = %+v", d)
	}
}

// A traced decision emits the span tree (authorize → prefix_eval →
// temporal_check) and mints a decision ID; an untraced one emits
// nothing and leaves the ID empty.
func TestAuthorizeTracedEmitsSpanTree(t *testing.T) {
	sel := model.Selector{Resources: []model.ResourceID{"f1"}}
	e, sess, _ := testEngine(t, srac.AtMost(5, sel), 0, temporal.GlobalBase)
	tr := obs.NewTracer(64)
	e.SetTracer(tr)

	a := model.NewAccess("o1", "read", "f1", "s1")
	d := e.AuthorizeTraced(tr.NewContext(), Request{Session: sess, Access: a})
	if !d.Granted {
		t.Fatalf("denied: %s", d)
	}
	if d.ID == "" {
		t.Fatal("traced decision has no ID")
	}
	spans := tr.Store().Spans()
	byName := map[string]obs.Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["authorize"]
	if !ok {
		t.Fatalf("no authorize span in %d spans", len(spans))
	}
	for _, child := range []string{"prefix_eval", "temporal_check"} {
		sp, ok := byName[child]
		if !ok {
			t.Fatalf("missing %s span", child)
		}
		if sp.Parent != root.SpanID {
			t.Fatalf("%s span parent = %s, want %s", child, sp.Parent, root.SpanID)
		}
	}
	var foundID bool
	for _, at := range root.Attrs {
		if at.Key == "decision_id" && at.Value == d.ID {
			foundID = true
		}
	}
	if !foundID {
		t.Fatalf("authorize span lacks decision_id attr: %+v", root.Attrs)
	}

	// Unsampled context: no new spans, no ID. A decision that claims a
	// latency-exemplar slot mints an ID lazily, and an empty slot takes
	// any latency, so first fill every slot with its bucket's ceiling:
	// the decision below can then only mint through tracing.
	h := e.met.Load().authorize
	for _, le := range authzBuckets {
		h.RecordExemplar(time.Duration(le*float64(time.Second)), "", "")
	}
	h.RecordExemplar(math.MaxInt64, "", "")
	before := tr.Store().Total()
	d = e.AuthorizeTraced(obs.TraceContext{}, Request{Session: sess, Access: a})
	if !d.Granted || d.ID != "" {
		t.Fatalf("untraced decision = %+v", d)
	}
	if tr.Store().Total() != before {
		t.Fatal("untraced decision recorded spans")
	}
}
