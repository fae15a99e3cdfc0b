package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/temporal"
	"stac/internal/trace"
)

const replayPolicy = `
user o1
user o2
role surveyor
permission p-map read map @ * {
    spatial count(0, 3, sigma[op=read])
    duration 10s
    scheme global
}
permission p-log write log @ * {
    spatial [read map @ s1] >> [write log @ s2]
    mode strict
}
grant surveyor p-map
grant surveyor p-log
assign o1 surveyor
assign o2 surveyor
`

// authorizeLogged decides and logs the decision to the engine's
// recorder, as a server does once it has served it.
func authorizeLogged(e *Engine, req Request) Decision {
	d := e.Authorize(req)
	e.LogDecision(obs.TraceContext{}, req, d, "", nil)
	return d
}

// liveRun drives a recorded itinerary on a fresh engine: arrivals,
// role activations, a mix of granted and denied accesses (spatial
// ceiling, strict-mode gate, temporal exhaustion), departures. It
// returns the recorder's stream and the decisions taken.
func liveRun(t *testing.T) ([]record.Record, []Decision) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	e.SetObs(obs.NewRegistry())
	if err := LoadPolicyString(e, replayPolicy); err != nil {
		t.Fatal(err)
	}
	rec := record.New(record.Config{Capacity: 256, Registry: obs.NewRegistry()})
	e.SetRecorder(rec)

	var decisions []Decision
	var hist trace.Trace
	decide := func(sess *rbac.Session, a model.Access) Decision {
		d := authorizeLogged(e, Request{Session: sess, Access: a, History: hist.Clone()})
		decisions = append(decisions, d)
		if d.Granted {
			hist = append(hist, a)
			e.RecordGrant(a)
		}
		return d
	}

	newSubject := func(user string) *rbac.Session {
		sess, err := e.RBAC.CreateSession(rbac.UserID(user))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.ActivateRole("surveyor"); err != nil {
			t.Fatal(err)
		}
		return sess
	}

	// o1 arrives at s1; the strict-mode gate denies the log write
	// before the ordered premise is witnessed.
	e.ObjectArrived("o1", "s1")
	s1 := newSubject("o1")
	e.ActivatePermissions(s1, "o1")
	decide(s1, model.NewAccess("o1", "write", "log", "s2"))
	// Burn through the count ceiling.
	for i := 0; i < 5; i++ {
		decide(s1, model.NewAccess("o1", "read", "map", "s1"))
		clk.Advance(1)
	}
	// Premise witnessed now: the same write is granted.
	decide(s1, model.NewAccess("o1", "write", "log", "s2"))
	// o2 roams: per-server arrival, temporal budget burning down.
	e.ObjectArrived("o2", "s2")
	s2 := newSubject("o2")
	e.ActivatePermissions(s2, "o2")
	decide(s2, model.NewAccess("o2", "read", "map", "s2"))
	clk.Advance(12) // past the 10s global budget
	decide(s2, model.NewAccess("o2", "read", "map", "s2"))
	// o1 departs and comes back (fresh session, budget persists).
	e.DeactivatePermissions(s1, "o1")
	s1.Close()
	clk.Advance(1)
	e.ObjectArrived("o1", "s2")
	s1b := newSubject("o1")
	e.ActivatePermissions(s1b, "o1")
	decide(s1b, model.NewAccess("o1", "read", "map", "s2"))
	return rec.Records(), decisions
}

func TestReplayReproducesLiveRunScan(t *testing.T) {
	records, decisions := liveRun(t)
	testReplayReproduces(t, records, decisions)
}

// Streams recorded while the engine still had an incremental counting
// mode carry "incremental":true on their decide records. The flag is
// no longer part of the schema: such lines still decode (unknown
// fields are ignored) and replay deterministically on the one
// evaluation path.
func TestReplayReproducesLiveRunIncremental(t *testing.T) {
	records, decisions := liveRun(t)
	var wal bytes.Buffer
	for _, r := range records {
		if err := record.Encode(&wal, r); err != nil {
			t.Fatal(err)
		}
	}
	legacy := bytes.ReplaceAll(wal.Bytes(), []byte(`"kind":"decide"`), []byte(`"kind":"decide","incremental":true`))
	if n := bytes.Count(legacy, []byte(`"incremental":true`)); n != len(decisions) {
		t.Fatalf("flagged %d decide lines, want %d", n, len(decisions))
	}
	decoded, err := record.ReadAll(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	testReplayReproduces(t, decoded, decisions)
}

func testReplayReproduces(t *testing.T, records []record.Record, decisions []Decision) {
	t.Helper()
	res, err := Replay(replayPolicy, records, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions != len(decisions) {
		t.Fatalf("replayed %d decisions, live run took %d", res.Decisions, len(decisions))
	}
	if !res.Deterministic() {
		t.Fatalf("replay diverged: %+v", res.Divergences)
	}
	if res.PolicyMismatch {
		t.Fatalf("policy mismatch: recorded %s vs replay %s", res.RecordedDigest, res.ReplayDigest)
	}
	// The live run must have exercised all three denial families, or
	// the oracle is vacuous.
	var sawSpatial, sawTemporal, sawStrict bool
	for _, d := range decisions {
		switch d.Deny {
		case DenySpatialViolated:
			sawSpatial = true
		case DenyTemporalExhausted:
			sawTemporal = true
		case DenySpatialStrict:
			sawStrict = true
		}
	}
	if !sawSpatial || !sawTemporal || !sawStrict {
		t.Fatalf("itinerary too tame: spatial=%v temporal=%v strict=%v", sawSpatial, sawTemporal, sawStrict)
	}
}

// Property: random itineraries replay deterministically.
func TestReplayPropertyRandomItineraries(t *testing.T) {
	r := rand.New(rand.NewSource(331))
	for iter := 0; iter < 30; iter++ {
		records, n := randomLiveRun(t, r)
		res, err := Replay(replayPolicy, records, ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Decisions != n {
			t.Fatalf("iter %d: replayed %d of %d decisions", iter, res.Decisions, n)
		}
		if !res.Deterministic() {
			t.Fatalf("iter %d: replay diverged: %+v", iter, res.Divergences)
		}
	}
}

func randomLiveRun(t *testing.T, r *rand.Rand) ([]record.Record, int) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	e.SetObs(obs.NewRegistry())
	if err := LoadPolicyString(e, replayPolicy); err != nil {
		t.Fatal(err)
	}
	rec := record.New(record.Config{Capacity: 512, Registry: obs.NewRegistry()})
	e.SetRecorder(rec)

	users := []string{"o1", "o2"}
	servers := []model.ServerID{"s1", "s2", "s3"}
	sessions := map[string]*rbac.Session{}
	hists := map[string]trace.Trace{}
	decisions := 0
	for step := 0; step < 20+r.Intn(30); step++ {
		u := users[r.Intn(len(users))]
		obj := model.ObjectID(u)
		switch r.Intn(5) {
		case 0:
			e.ObjectArrived(obj, servers[r.Intn(len(servers))])
		case 1:
			if old := sessions[u]; old != nil {
				e.DeactivatePermissions(old, obj)
				old.Close()
			}
			sess, err := e.RBAC.CreateSession(rbac.UserID(u))
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.ActivateRole("surveyor"); err != nil {
				t.Fatal(err)
			}
			sessions[u] = sess
			e.ActivatePermissions(sess, obj)
		case 2:
			if sess := sessions[u]; sess != nil {
				e.DeactivatePermissions(sess, obj)
			}
		default:
			sess := sessions[u]
			if sess == nil {
				continue
			}
			var a model.Access
			if r.Intn(3) == 0 {
				a = model.NewAccess(obj, "write", "log", "s2")
			} else {
				a = model.NewAccess(obj, "read", "map", servers[r.Intn(len(servers))])
			}
			d := authorizeLogged(e, Request{Session: sess, Access: a, History: hists[u].Clone()})
			decisions++
			if d.Granted {
				hists[u] = append(hists[u], a)
				e.RecordGrant(a)
			}
		}
		if r.Intn(2) == 0 {
			clk.Advance(float64(r.Intn(4)) + 0.5)
		}
	}
	return rec.Records(), decisions
}

// RecordGrant only feeds the flight recorder: with none attached it
// leaves no trace, and with one it logs one grant record.
func TestRecordGrantNoopWhenDisabled(t *testing.T) {
	e := NewEngine(nil)
	a := model.NewAccess("o1", "read", "f", "s")
	e.RecordGrant(a)
	if e.CostEnabled() || e.Recorder() != nil {
		t.Fatal("RecordGrant enabled recording or profiling")
	}

	e.SetObs(obs.NewRegistry())
	rec := record.New(record.Config{Capacity: 4, Registry: obs.NewRegistry()})
	e.SetRecorder(rec)
	e.RecordGrant(a)
	// The grant before the recorder was attached must not count.
	recs := rec.Records()
	if len(recs) != 1 || recs[0].Kind != record.KindGrant || recs[0].Resource != "f" {
		t.Fatalf("records = %+v, want one grant record", recs)
	}
}

// A corrupted stream must surface as a divergence, not silently pass.
func TestReplayDetectsTamperedVerdict(t *testing.T) {
	records, _ := liveRun(t)
	tampered := false
	for i := range records {
		if records[i].Kind == record.KindDecide && records[i].Granted {
			records[i].Granted = false
			records[i].Deny = "spatial_violation"
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no granted decision to tamper with")
	}
	res, err := Replay(replayPolicy, records, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic() {
		t.Fatal("tampered stream replayed clean")
	}
}

// ShadowDiff against a tightened count ceiling must flip exactly the
// grants beyond the new ceiling and blame the ceiling clause.
func TestShadowDiffTightenedCeiling(t *testing.T) {
	records, decisions := liveRun(t)
	candidate := strings.Replace(replayPolicy, "count(0, 3, sigma[op=read])", "count(0, 1, sigma[op=read])", 1)
	rep, err := ShadowDiff(candidate, records, ReplayOptions{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions != len(decisions) {
		t.Fatalf("diffed %d decisions, want %d", rep.Decisions, len(decisions))
	}
	if rep.CandidateDigest == rep.RecordedDigest || rep.CandidateDigest == "" {
		t.Fatalf("digests: recorded %s candidate %s", rep.RecordedDigest, rep.CandidateDigest)
	}
	if len(rep.Flips) == 0 {
		t.Fatal("tightened ceiling produced no flips")
	}
	for _, f := range rep.Flips {
		if !f.RecordedGranted || f.CandidateGranted {
			t.Fatalf("unexpected flip direction: %+v", f)
		}
		if !strings.Contains(f.Clause, "count(0, 1") {
			t.Fatalf("flip not attributed to the tightened ceiling clause: %+v", f)
		}
	}
	// The candidate's coverage must mark the ceiling clause decisive.
	decisive := false
	for _, c := range rep.Coverage {
		if strings.Contains(c.Clause, "count(0, 1") && c.Decisive > 0 {
			decisive = true
		}
	}
	if !decisive {
		t.Fatalf("ceiling clause not decisive in candidate coverage: %+v", rep.Coverage)
	}
}

// A loosened policy flips denials to grants, attributed via the
// RECORDED explanation.
func TestShadowDiffLoosenedCeiling(t *testing.T) {
	records, _ := liveRun(t)
	candidate := strings.Replace(replayPolicy, "count(0, 3, sigma[op=read])", "count(0, 30, sigma[op=read])", 1)
	candidate = strings.Replace(candidate, "duration 10s", "duration 1000s", 1)
	rep, err := ShadowDiff(candidate, records, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var denyToGrant int
	for _, f := range rep.Flips {
		if !f.RecordedGranted && f.CandidateGranted {
			denyToGrant++
			if f.Deny == string(DenySpatialViolated) && !strings.Contains(f.Clause, "count(0, 3") {
				t.Fatalf("deny→grant spatial flip should cite the recorded clause: %+v", f)
			}
			if f.Deny == string(DenyTemporalExhausted) && !strings.Contains(f.Detail, "temporal budget") {
				t.Fatalf("deny→grant temporal flip should carry budget arithmetic: %+v", f)
			}
		}
	}
	if denyToGrant == 0 {
		t.Fatal("loosened policy produced no deny→grant flips")
	}
}

// Replay under a different policy is reported as a policy mismatch.
func TestReplayFlagsPolicyMismatch(t *testing.T) {
	records, _ := liveRun(t)
	other := strings.Replace(replayPolicy, "count(0, 3, sigma[op=read])", "count(0, 2, sigma[op=read])", 1)
	res, err := Replay(other, records, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PolicyMismatch {
		t.Fatal("replay under a different policy not flagged as mismatch")
	}
}

func TestReplayRejectsBadRecordAndPolicy(t *testing.T) {
	if _, err := Replay("permission q read f @ * {\nmode sometimes\n}", nil, ReplayOptions{}); err == nil {
		t.Fatal("bad policy accepted")
	}
	bad := []record.Record{{Schema: record.SchemaVersion + 1, Kind: record.KindDecide}}
	if _, err := Replay(replayPolicy, bad, ReplayOptions{}); err == nil {
		t.Fatal("newer-schema record accepted")
	}
}

// Coverage accounting on the live engine: the ceiling clause must be
// decisive for the spatial denials, and an unexercised clause shows
// up with zero counts.
func TestCoverageMarksDecisiveAndDeadClauses(t *testing.T) {
	clk := temporal.NewSimClock(0)
	e := NewEngine(clk)
	e.SetObs(obs.NewRegistry())
	if err := LoadPolicyString(e, replayPolicy); err != nil {
		t.Fatal(err)
	}
	e.EnableCostProfiling()
	if !e.CostEnabled() {
		t.Fatal("coverage not enabled")
	}
	sess, err := e.RBAC.CreateSession("o1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.ActivateRole("surveyor"); err != nil {
		t.Fatal(err)
	}
	e.ObjectArrived("o1", "s1")
	e.ActivatePermissions(sess, "o1")
	var hist trace.Trace
	for i := 0; i < 5; i++ {
		a := model.NewAccess("o1", "read", "map", "s1")
		if d := e.Authorize(Request{Session: sess, Access: a, History: hist.Clone()}); d.Granted {
			hist = append(hist, a)
		}
	}
	cov := e.CostReport().Clauses
	var ceiling, ordered *cost.ClauseCost
	for i := range cov {
		switch {
		case cov[i].Perm == "p-map" && cov[i].Path == "":
			ceiling = &cov[i]
		case cov[i].Perm == "p-log" && cov[i].Path == "":
			ordered = &cov[i]
		}
	}
	if ceiling == nil || ordered == nil {
		t.Fatalf("missing coverage rows: %+v", cov)
	}
	if ceiling.Evals != 5 || ceiling.Decisive != 5 {
		t.Fatalf("ceiling coverage = %+v, want 5 evaluations all decisive", *ceiling)
	}
	if ceiling.Violated == 0 || ceiling.Satisfied == 0 {
		t.Fatalf("ceiling outcomes = %+v, want both satisfied and violated evaluations", *ceiling)
	}
	if ceiling.Decisive == 0 {
		t.Fatal("decisive ceiling clause reported dead")
	}
	// p-log was never requested: its clause is pre-seeded and dead.
	if ordered.Evals != 0 || ordered.Decisive != 0 {
		t.Fatalf("unexercised p-log clause = %+v, want zero evaluations (dead)", *ordered)
	}
	if ordered.Clause == "" {
		t.Fatal("pre-seeded clause text missing")
	}
}
