package core

// Tests for the sharded engine state and the delta-encoded flight
// recorder (ROADMAP item 1): WAL growth must be O(N) over an N-access
// tour, delta-encoded streams must replay bit-identically including
// the full-re-record fallbacks, and concurrent credentials must
// reconcile cleanly against the metrics and the recorder under the
// race detector.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/rbac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

const shardPolicy = `
role traveler
permission p-read read * @ * {
    spatial count(0, 1000000, sigma[op=read])
}
grant traveler p-read
`

// tourEngine builds an engine running shardPolicy with nUsers
// credentials u0..uN-1 (sessions activated, objects arrived). A
// non-nil recorder is installed before the arrivals so a replay sees
// the full lifecycle stream.
func tourEngine(t *testing.T, nUsers int, rec *record.Recorder) (*Engine, []*rbac.Session) {
	t.Helper()
	e := NewEngine(temporal.NewSimClock(0))
	e.SetObs(obs.NewRegistry())
	if err := LoadPolicyString(e, shardPolicy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nUsers; i++ {
		u := rbac.UserID(fmt.Sprintf("u%d", i))
		if err := e.RBAC.AddUser(u); err != nil {
			t.Fatal(err)
		}
		if err := e.RBAC.AssignUserRole(u, "traveler"); err != nil {
			t.Fatal(err)
		}
	}
	// Users are policy (they enter the digest); install the recorder
	// only now so the stamped digest matches shardPolicy+userLines and
	// the runtime lifecycle (arrive/activate) is on the stream.
	if rec != nil {
		e.SetRecorder(rec)
	}
	sessions := make([]*rbac.Session, nUsers)
	for i := range sessions {
		sess, err := e.RBAC.CreateSession(rbac.UserID(fmt.Sprintf("u%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.ActivateRole("traveler"); err != nil {
			t.Fatal(err)
		}
		obj := model.ObjectID(fmt.Sprintf("u%d", i))
		e.ObjectArrived(obj, "s1")
		e.ActivatePermissions(sess, obj)
		sessions[i] = sess
	}
	return e, sessions
}

// walTourBytes drives one credential through an n-access tour whose
// carried history grows by one entry per decision — the proofheavy
// shape — and returns the WAL size in bytes.
func walTourBytes(t *testing.T, n int) int {
	t.Helper()
	var wal bytes.Buffer
	e, sessions := tourEngine(t, 1, nil)
	e.SetRecorder(record.New(record.Config{Capacity: 8, WAL: &wal, Registry: obs.NewRegistry()}))
	var hist trace.Trace
	for i := 0; i < n; i++ {
		a := model.Access{Object: "u0", Op: model.OpRead, Resource: model.ResourceID(fmt.Sprintf("f%d", i)), Server: "s1"}
		d := authorizeLogged(e, Request{Session: sessions[0], Access: a, History: hist})
		if !d.Granted {
			t.Fatalf("access %d denied: %s", i, d.Reason)
		}
		hist = append(hist, a)
		e.RecordGrant(a)
	}
	return wal.Len()
}

func TestWALGrowsLinearlyOverTour(t *testing.T) {
	const n = 80
	small := walTourBytes(t, n)
	large := walTourBytes(t, 2*n)
	// O(N) growth doubles the bytes when the tour doubles; the old
	// full-history-per-decide encoding quadrupled them. Allow slack for
	// fixed per-record overhead, but fail anywhere near quadratic.
	if ratio := float64(large) / float64(small); ratio > 2.6 {
		t.Fatalf("WAL grew superlinearly: %d bytes for %d accesses, %d for %d (ratio %.2f, want ~2)",
			small, n, large, 2*n, ratio)
	}
}

func TestDeltaRecordingReplaysBitIdentically(t *testing.T) {
	rec := record.New(record.Config{Capacity: 1024, Registry: obs.NewRegistry()})
	e, sessions := tourEngine(t, 2, rec)

	// u0 declares a program for its whole tour, so program interning
	// engages alongside the history deltas.
	prog := sral.Node(sral.Prim{Op: model.OpRead, Resource: "f0", Server: "s1"})
	decide := func(i int, hist trace.Trace, a model.Access) Decision {
		req := Request{Session: sessions[i], Access: a, History: hist}
		if i == 0 {
			req.Program = prog
		}
		d := authorizeLogged(e, req)
		if d.Granted {
			e.RecordGrant(a)
		}
		return d
	}

	// u0: a growing-history tour (delta encoding engages).
	var hist trace.Trace
	for i := 0; i < 6; i++ {
		a := model.Access{Object: "u0", Op: model.OpRead, Resource: model.ResourceID(fmt.Sprintf("f%d", i)), Server: "s1"}
		decide(0, hist, a)
		hist = append(hist, a)
	}
	// u0: a REORDERED history (a time-sorted ledger merge would do
	// this) — must force the full re-record fallback.
	rev := make(trace.Trace, 0, len(hist))
	for i := len(hist) - 1; i >= 0; i-- {
		rev = append(rev, hist[i])
	}
	decide(0, rev, model.Access{Object: "u0", Op: model.OpRead, Resource: "fx", Server: "s1"})
	// u0: history SHRINKS to empty (fresh session after a hop), then
	// grows again.
	decide(0, nil, model.Access{Object: "u0", Op: model.OpRead, Resource: "fy", Server: "s1"})
	decide(0, trace.Trace{{Object: "u0", Op: model.OpRead, Resource: "fy", Server: "s1"}},
		model.Access{Object: "u0", Op: model.OpRead, Resource: "fz", Server: "s1"})
	// u1 interleaves with its own history so per-object bases don't
	// bleed across credentials.
	decide(1, nil, model.Access{Object: "u1", Op: model.OpRead, Resource: "g0", Server: "s1"})
	decide(1, trace.Trace{{Object: "u1", Op: model.OpRead, Resource: "g0", Server: "s1"}},
		model.Access{Object: "u1", Op: model.OpRead, Resource: "g1", Server: "s1"})

	records := rec.Records()
	var sawDelta, sawFallback bool
	var inlineProgs, cachedProgs int
	for _, r := range records {
		if r.Kind != record.KindDecide {
			continue
		}
		if r.HistoryBase > 0 {
			sawDelta = true
		}
		if r.HistoryBase == 0 && r.Resource == "fx" && len(r.History) == len(rev) {
			sawFallback = true
		}
		if r.Program != "" {
			inlineProgs++
		}
		if r.ProgramCached {
			cachedProgs++
		}
	}
	if !sawDelta {
		t.Fatal("no decide record used delta encoding (HistoryBase > 0)")
	}
	if !sawFallback {
		t.Fatal("reordered history did not force a full re-record (HistoryBase 0)")
	}
	// u0 declared the same program on 9 decides: interning must write
	// it inline exactly once and flag the rest.
	if inlineProgs != 1 || cachedProgs != 8 {
		t.Fatalf("program interning: %d inline, %d cached records (want 1 and 8)", inlineProgs, cachedProgs)
	}

	res, err := Replay(shardPolicy+userLines(2), records, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("delta-encoded stream diverged: %+v", res.Divergences)
	}
	if res.PolicyMismatch {
		t.Fatalf("unexpected policy mismatch: %s vs %s", res.RecordedDigest, res.ReplayDigest)
	}
}

func userLines(n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "user u%d\nassign u%d traveler\n", i, i)
	}
	return b.String()
}

// TestShardedContentionReconciliation hammers one engine from many
// goroutines — each its own credential — while budget reads, policy
// dumps, policy digests and per-clause cost snapshots run
// concurrently, then reconciles the registry counters and the recorder
// against the ground truth. Run with -race (ci.sh does) this is the
// shard-refactor data-race net.
func TestShardedContentionReconciliation(t *testing.T) {
	t.Run("scan", func(t *testing.T) {
		const workers = 8
		const iters = 150
		e, sessions := tourEngine(t, workers, nil)
		reg := obs.NewRegistry()
		e.SetObs(reg)
		e.EnableCostProfiling()
		rec := record.New(record.Config{Capacity: 16 * workers * iters, Registry: obs.NewRegistry()})
		e.SetRecorder(rec)

		var granted, denied int64
		stop := make(chan struct{})
		var aux sync.WaitGroup
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Budgets()
					e.CostReport()
					_ = DumpPolicy(e)
					_ = PolicyDigest(e)
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				obj := model.ObjectID(fmt.Sprintf("u%d", g))
				var hist trace.Trace
				for i := 0; i < iters; i++ {
					a := model.Access{Object: obj, Op: model.OpRead, Resource: model.ResourceID(fmt.Sprintf("f%d", i)), Server: "s1"}
					var d Decision
					if i%16 == 7 {
						// A denial (unauthenticated) mixed into the stream.
						d = authorizeLogged(e, Request{Access: a})
					} else {
						d = authorizeLogged(e, Request{Session: sessions[g], Access: a, History: hist})
					}
					if d.Granted {
						atomic.AddInt64(&granted, 1)
						hist = append(hist, a)
						e.RecordGrant(a)
					} else {
						atomic.AddInt64(&denied, 1)
					}
					if i%40 == 39 {
						e.ObjectArrived(obj, "s1")
					}
				}
			}(g)
		}
		wg.Wait()
		close(stop)
		aux.Wait()

		gotGranted := reg.Counter("stac_authz_granted_total", "", "").Value()
		if gotGranted != granted {
			t.Errorf("granted counter = %d, want %d", gotGranted, granted)
		}
		gotDenied := reg.Counter("stac_authz_denied_total", obs.Label("reason", string(DenyNoSession)), "").Value()
		if gotDenied != denied {
			t.Errorf("denied(no_session) counter = %d, want %d", gotDenied, denied)
		}
		var decides, grants int64
		for _, r := range rec.Records() {
			switch r.Kind {
			case record.KindDecide:
				decides++
			case record.KindGrant:
				grants++
			}
		}
		if want := granted + denied; decides != want {
			t.Errorf("recorder decide records = %d, want %d", decides, want)
		}
		if grants != granted {
			t.Errorf("recorder grant records = %d, want %d", grants, granted)
		}
	})
}
