package server

import (
	"strings"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/proof"
)

// tightened forbids rsw reads outright; the served testPolicy allows
// two. Everything else matches.
const tightenedPolicy = `
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, 0, sigma[r=rsw])
}
permission p-write write * @ *
grant traveler p-read
grant traveler p-write
assign o1 traveler
`

// loosened lifts the rsw ceiling to 10.
const loosenedPolicy = `
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, 10, sigma[r=rsw])
}
permission p-write write * @ *
grant traveler p-read
grant traveler p-write
assign o1 traveler
`

func lastAudit(t *testing.T, srv *Server) AuditEntry {
	t.Helper()
	records, _ := srv.Audit()
	if len(records) == 0 {
		t.Fatal("audit log empty")
	}
	return records[len(records)-1]
}

func TestShadowGrantToDenyFlip(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetObs(obs.NewRegistry()) // isolate counters from other tests
	if err := c.SetShadowPolicy(tightenedPolicy); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)

	// A read both policies allow: shadow verdict present, no flip.
	// (Must run before any rsw read — once the candidate's count
	// ceiling is exceeded the violation is history-sticky and every
	// later access flips.)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	sv := lastAudit(t, srv).Shadow
	if sv == nil || sv.Flip || !sv.Granted {
		t.Fatalf("agreeing verdict = %+v, want granted non-flip", sv)
	}
	if got := c.Engine.Obs().CounterValue("stac_shadow_flip_total", ""); got != 0 {
		t.Errorf("flip counter moved on agreement: %d", got)
	}

	// Served policy grants the first rsw read; the tightened candidate
	// forbids it → flip, without affecting the served verdict.
	if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatalf("served verdict changed by shadow: %v", err)
	}
	sv = lastAudit(t, srv).Shadow
	if sv == nil || !sv.Flip || sv.Granted {
		t.Fatalf("shadow verdict = %+v, want grant→deny flip", sv)
	}
	if !strings.Contains(sv.Clause, "count(0, 0") {
		t.Errorf("flip clause = %q, want the tightened ceiling count(0, 0, ...)", sv.Clause)
	}
	if got := c.Engine.Obs().CounterValue("stac_shadow_flip_total", ""); got != 1 {
		t.Errorf("stac_shadow_flip_total = %d, want 1", got)
	}

	enabled, digest, flips := c.ShadowInfo()
	if !enabled || digest == "" || flips != 1 {
		t.Errorf("ShadowInfo = %v %q %d", enabled, digest, flips)
	}
	if digest == core.PolicyDigest(c.Engine) {
		t.Error("shadow digest equals served digest for a different policy")
	}
}

func TestShadowDenyToGrantFlip(t *testing.T) {
	c, _ := newCoalition(t)
	if err := c.SetShadowPolicy(loosenedPolicy); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)

	// Burn the served ceiling of 2, then the third rsw read is denied
	// by the served policy but granted by the loosened candidate.
	for i := 0; i < 2; i++ {
		if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err == nil {
		t.Fatal("third rsw read should be denied by the served policy")
	}
	sv := lastAudit(t, srv).Shadow
	if sv == nil || !sv.Flip || !sv.Granted {
		t.Fatalf("shadow verdict = %+v, want deny→grant flip", sv)
	}
	// The flip explanation names what the candidate relaxed: the
	// served policy's violated ceiling.
	if !strings.Contains(sv.Clause, "count(0, 2") {
		t.Errorf("flip clause = %q, want the served ceiling count(0, 2, ...)", sv.Clause)
	}
}

func TestShadowUnknownUserAndDepart(t *testing.T) {
	c, _ := newCoalition(t)
	// Candidate that drops the user entirely: shadow evaluation must
	// degrade to denials, never errors.
	if err := c.SetShadowPolicy("role traveler\npermission p-read read * @ *\ngrant traveler p-read\n"); err != nil {
		t.Fatal(err)
	}
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	sv := lastAudit(t, srv).Shadow
	if sv == nil || !sv.Flip || sv.Granted {
		t.Fatalf("unknown-user shadow verdict = %+v, want deny flip", sv)
	}
	// Depart and re-authenticate exercise the shadow session lifecycle.
	srv.Depart(sub)
	if _, err := srv.Authenticate(cred(c, "o1", "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
}

func TestClearShadowPolicy(t *testing.T) {
	c, _ := newCoalition(t)
	if err := c.SetShadowPolicy(tightenedPolicy); err != nil {
		t.Fatal(err)
	}
	c.ClearShadowPolicy()
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	if sv := lastAudit(t, srv).Shadow; sv != nil {
		t.Fatalf("shadow verdict %+v after ClearShadowPolicy", sv)
	}
	if enabled, _, _ := c.ShadowInfo(); enabled {
		t.Error("ShadowInfo reports enabled after clear")
	}
}

func TestSetShadowPolicyRejectsBadSource(t *testing.T) {
	c, _ := newCoalition(t)
	if err := c.SetShadowPolicy("permission q read f @ * {\nmode sometimes\n}"); err == nil {
		t.Fatal("bad shadow policy accepted")
	}
	if enabled, _, _ := c.ShadowInfo(); enabled {
		t.Error("failed load left shadow enabled")
	}
}

func TestSnapshotVersionedFields(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetObs(obs.NewRegistry())
	if err := c.SetShadowPolicy(tightenedPolicy); err != nil {
		t.Fatal(err)
	}
	c.Engine.EnableCostProfiling()
	c.Engine.EnableCostProfiling()
	rec := record.New(record.Config{Capacity: 16, Registry: c.Engine.Obs()})
	c.Engine.SetRecorder(rec)

	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "rsw", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot(0)
	if snap.Version != SnapshotVersion || SnapshotVersion != 6 {
		t.Fatalf("snapshot version = %d, want 6", snap.Version)
	}
	if snap.ShadowDigest == "" || snap.ShadowFlips != 1 {
		t.Errorf("shadow fields = %q/%d, want digest + 1 flip", snap.ShadowDigest, snap.ShadowFlips)
	}
	if snap.Runtime.Goroutines < 1 || snap.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime stats = %+v", snap.Runtime)
	}
	if snap.Recorder == nil || snap.Recorder.Total == 0 {
		t.Errorf("recorder status = %+v, want recorded events", snap.Recorder)
	}
	// v3: the perf section carries every lock stripe and the decision
	// exemplars the request above produced.
	if len(snap.Perf.Stripes) < 33 {
		t.Errorf("perf stripes = %d, want policy+32 shards", len(snap.Perf.Stripes))
	}
	if snap.Perf.ObjectImbalance <= 0 {
		t.Errorf("object imbalance = %g, want > 0 with one live object", snap.Perf.ObjectImbalance)
	}
	if len(snap.Perf.Exemplars) == 0 {
		t.Error("perf section has no decision exemplars after a decision")
	}
	// v4: the engine's HLC reading (journal stats are folded in by the
	// DebugServer, not Coalition.Snapshot, so absent here).
	if snap.HLC == "" {
		t.Error("snapshot has no HLC reading")
	}
	// v5: the evaluation-cost profile, with the decision above counted
	// in both the clause cells and the amplification numerator.
	if snap.Cost == nil || len(snap.Cost.Clauses) == 0 {
		t.Fatalf("snapshot has no cost profile: %+v", snap.Cost)
	} else if snap.Cost.Amplification.PrefixEvals == 0 {
		t.Errorf("cost amplification = %+v, want prefix evals counted", snap.Cost.Amplification)
	}
	// v6: the clause census rides on the cost rows, the decision above
	// tallied by outcome.
	var tallied int64
	for _, cc := range snap.Cost.Clauses {
		tallied += cc.Satisfied + cc.Violated + cc.Pending
	}
	if tallied == 0 {
		t.Errorf("cost rows carry no clause coverage tallies: %+v", snap.Cost.Clauses)
	}
	if snap.Journal != nil {
		t.Error("coalition snapshot carries journal stats without a DebugServer")
	}
}
