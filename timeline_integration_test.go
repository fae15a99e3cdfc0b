package stac

// End-to-end coalition timeline: three independent daemons — separate
// engines, separate recorders, separate debug listeners, one shared
// credential key — serve a roaming agent over TCP while one member's
// wall clock is held 5 seconds behind (fault-injected skew). Tailing
// all three /debug/journal streams and merging by HLC must reproduce
// the itinerary's causal order with zero violations, the skewed member
// must be flagged by the federate poller, and journal tailing must not
// meaningfully tax the decision path. Writes TIMELINE.json when
// ARTIFACTS_DIR is set (the ci.sh timeline smoke greps it).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/faults"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/federate"
	"stac/internal/obs/journal"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
)

const timelinePolicy = `
user courier-1
role courier
permission p-doc read doc @ *
grant courier p-doc
assign courier-1 courier
`

// timelineMember is one independent coalition daemon of the e2e fleet.
type timelineMember struct {
	name  string
	c     *server.Coalition
	srv   *server.Server
	debug *httptest.Server
}

func newTimelineMember(t testing.TB, name string, serverID model.ServerID, key []byte, skew time.Duration) (*timelineMember, string) {
	t.Helper()
	c := server.NewCoalition(temporal.NewRealClock(), key)
	if skew != 0 {
		// Swap the HLC wall source before any traffic: this member's
		// physical clock reads skewed, as if NTP never ran.
		c.Engine.SetHLCWall(faults.WallSkew(nil, skew))
	}
	if err := core.LoadPolicyString(c.Engine, timelinePolicy); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 1 << 14, Registry: reg}))
	srv, err := c.AddServer(serverID)
	if err != nil {
		t.Fatal(err)
	}
	srv.HostResource("doc", []byte("payload at "+name))
	d := server.NewDaemon(srv)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	h := server.NewDebugServer(c, []*server.Daemon{d}, nil, server.DebugConfig{Registry: reg})
	ts := httptest.NewServer(h.Mux())
	t.Cleanup(func() { h.Drain(); ts.Close() })
	return &timelineMember{name: name, c: c, srv: srv, debug: ts}, addr
}

// tailMember follows one member's journal until n records arrived,
// funnelling frames into the shared merger.
func tailMember(t *testing.T, m *timelineMember, n int, merger *journal.Merger, mu *sync.Mutex, out *[]journal.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	seen := 0
	f := &journal.Follower{
		Name:    m.name,
		BaseURL: m.debug.URL,
		Client:  m.debug.Client(),
		Poll:    50 * time.Millisecond,
		Delay:   func(int) time.Duration { return 10 * time.Millisecond },
	}
	err := f.Run(ctx, func(fr journal.Frame) {
		mu.Lock()
		defer mu.Unlock()
		switch fr.Kind {
		case journal.KindRecord:
			evs, err := merger.Push(journal.NewEvent(m.name, *fr.Record))
			if err != nil {
				t.Error(err)
			}
			*out = append(*out, evs...)
			seen++
			if seen >= n {
				cancel()
			}
		case journal.KindMeta, journal.KindEnd:
			if ts, ok := fr.Meta.Watermark(); ok {
				evs, err := merger.Advance(m.name, ts)
				if err != nil {
					t.Error(err)
				}
				*out = append(*out, evs...)
			}
		}
	})
	if err != nil {
		t.Errorf("follower %s: %v", m.name, err)
	}
	mu.Lock()
	evs, cerr := merger.Close(m.name)
	if cerr != nil {
		t.Error(cerr)
	}
	*out = append(*out, evs...)
	mu.Unlock()
	if seen < n {
		t.Errorf("follower %s saw %d records, want %d", m.name, seen, n)
	}
}

func TestTimelineMergesSkewedCoalition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon timeline e2e")
	}
	key := []byte("timeline-e2e-key")
	const skew = -5 * time.Second
	m1, a1 := newTimelineMember(t, "m1", "s1", key, 0)
	m2, a2 := newTimelineMember(t, "m2", "s2", key, skew) // the skewed member
	m3, a3 := newTimelineMember(t, "m3", "s3", key, 0)
	members := []*timelineMember{m1, m2, m3}
	addrs := map[model.ServerID]string{"s1": a1, "s2": a2, "s3": a3}

	// --- A roaming itinerary across all three members, repeated. ---
	rt := &agent.RemoteRuntime{Addrs: addrs, Obs: obs.NewRegistry()}
	prog := sral.MustParse("read doc @ s1; read doc @ s2; read doc @ s3")
	const itineraries = 4
	for i := 0; i < itineraries; i++ {
		ag := agent.New("courier-1",
			m1.c.Signer.IssueCredential("courier-1", "owner@hq", []string{"courier"}),
			prog, m1.c.Signer)
		if err := rt.Launch(ag); err != nil {
			t.Fatalf("itinerary %d: %v", i, err)
		}
	}

	// --- Tail all three journals over HTTP, merge by HLC. ---
	names := make([]string, len(members))
	totals := make([]int, len(members))
	for i, m := range members {
		names[i] = m.name
		totals[i] = int(m.c.Engine.Recorder().Status().Total)
		if totals[i] == 0 {
			t.Fatalf("member %s recorded nothing", m.name)
		}
	}
	merger := journal.NewMerger(names)
	var mu sync.Mutex
	var merged []journal.Event
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(m *timelineMember, n int) {
			defer wg.Done()
			tailMember(t, m, n, merger, &mu, &merged)
		}(m, totals[i])
	}
	wg.Wait()
	mu.Lock()
	merged = append(merged, merger.Flush()...)
	mu.Unlock()
	if t.Failed() {
		t.FailNow()
	}
	wantEvents := totals[0] + totals[1] + totals[2]
	if len(merged) != wantEvents {
		t.Fatalf("merged %d events, want %d", len(merged), wantEvents)
	}

	// The merged stream is totally ordered.
	for i := 1; i < len(merged); i++ {
		if merged[i].Less(merged[i-1]) {
			t.Fatalf("merged stream out of order at %d: %v after %v", i, merged[i].Record.Seq, merged[i-1].Record.Seq)
		}
	}

	// --- Causal order matches the trace-derived hop order. ---
	if v := journal.CheckCausality(merged); len(v) != 0 {
		t.Fatalf("causality violations across skewed members: %+v", v)
	}
	// Each itinerary contributed one decide per member, HLC-increasing
	// along s1 → s2 → s3 despite m2's clock running 5s behind.
	decides := map[string][]journal.Event{}
	for _, e := range merged {
		if e.Record.Kind == record.KindDecide && e.Record.TraceID != "" {
			decides[e.Record.TraceID] = append(decides[e.Record.TraceID], e)
		}
	}
	if len(decides) != itineraries {
		t.Fatalf("traces in journal = %d, want %d", len(decides), itineraries)
	}
	for id, evs := range decides {
		if len(evs) != 3 {
			t.Fatalf("trace %s: %d decides, want 3", id, len(evs))
		}
		hopOrder := []string{"m1", "m2", "m3"}
		for i, e := range evs { // merged order == causal order == hop order
			if e.Member != hopOrder[i] {
				t.Fatalf("trace %s hop %d on %s, want %s", id, i, e.Member, hopOrder[i])
			}
		}
	}

	// --- The federate poller flags the skewed member. ---
	fleet := make([]federate.Member, len(members))
	for i, m := range members {
		fleet[i] = federate.Member{Name: m.name, BaseURL: m.debug.URL}
	}
	view := federate.NewPoller(fleet, federate.Config{}).Poll(context.Background())
	if len(view.Clocks) != 3 {
		t.Fatalf("clock rollups = %+v", view.Clocks)
	}
	skewFlagged := false
	for _, a := range view.Anomalies {
		if a.Kind == "clock-skew" {
			if a.Member != "m2" {
				t.Fatalf("clock-skew flagged on %s, want m2: %+v", a.Member, a)
			}
			skewFlagged = true
		}
	}
	if !skewFlagged {
		t.Fatalf("skewed member not flagged; anomalies = %+v clocks = %+v", view.Anomalies, view.Clocks)
	}
	var m2skew float64
	for _, cr := range view.Clocks {
		if cr.Member == "m2" {
			if !cr.SkewKnown || cr.SkewSeconds > -3 || cr.SkewSeconds < -7 {
				t.Fatalf("m2 skew estimate = %+v, want ≈ -5s", cr)
			}
			m2skew = cr.SkewSeconds
		}
	}

	// --- Journal tailing overhead on a loaded daemon. ---
	// One ~25ms run per arm is at the mercy of whatever else shares the
	// CPU, so the arms run as adjacent pairs, in alternating order, and
	// the overhead is the median of the per-pair ratios: both runs of a
	// pair see the same background load, and the median discards the
	// pairs a load burst hit in only one run.
	timelineDecisionRun(t, m1) // warm caches so the pairs below compare fairly
	const pairs = 25
	ratios := make([]float64, pairs)
	var baseline, loaded float64
	for i := range ratios {
		var b, l float64
		if i%2 == 0 {
			b = timelineDecisionRun(t, m1)
			l = timelineTailedRun(t, m1)
		} else {
			l = timelineTailedRun(t, m1)
			b = timelineDecisionRun(t, m1)
		}
		ratios[i] = l / b
		baseline += b / pairs
		loaded += l / pairs
	}
	sort.Float64s(ratios)
	overheadPct := (ratios[pairs/2] - 1) * 100
	t.Logf("tail overhead: mean baseline %.4fs, mean tailed %.4fs, median pair %+.2f%%", baseline, loaded, overheadPct)
	// E16 measures the real figure (<3% target); the in-CI bound is
	// loose because shared runners make sub-percent timing noisy, and
	// it is skipped entirely under -race, whose instrumentation bills
	// the colocated follower's decode loop against decision time.
	if overheadPct > 25 && !raceDetectorOn {
		t.Fatalf("journal tailing cost %.1f%% of decision throughput", overheadPct)
	}

	// --- Artifact for the CI smoke. ---
	if dir := os.Getenv("ARTIFACTS_DIR"); dir != "" {
		artifact := map[string]any{
			"events":               len(merged),
			"causality_violations": 0,
			"members":              len(members),
			"itineraries":          itineraries,
			"skewed_member":        "m2",
			"skew_injected_s":      skew.Seconds(),
			"skew_estimated_s":     m2skew,
			"tail_overhead_pct":    overheadPct,
			"baseline_s":           baseline,
			"tailed_s":             loaded,
		}
		b, err := json.MarshalIndent(artifact, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "TIMELINE.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkE16_JournalTailOverhead is the E16 A/B: the per-decision
// cost of an attached journal tail polling the flight recorder while
// decisions flow. The tail shares nothing with the decision path but
// the recorder's own mutex; the bar is <3%.
func BenchmarkE16_JournalTailOverhead(b *testing.B) {
	// Six arms. "detached": direct in-memory decisions, no tail.
	// "ring-polled": only the part of a tail that can BLOCK a decision
	// — the bounded-batch recorder-ring read, no marshal/SSE/decode
	// pipeline. "tailed": a full follower colocated on the same core,
	// so on a 1-CPU container its entire consumer pipeline bills
	// against decision wall time. "tcp-detached"/"tcp-tailed": the
	// acceptance scenario — decisions driven through the TCP daemon,
	// i.e. at a rate a loaded daemon actually decides at.
	// "tcp-drained": same load, but the consumer only drains the
	// socket — isolating what the DAEMON pays to serve a tail from
	// what the follower pays to decode one (in production the latter
	// runs on a different machine).
	for _, arm := range []string{"detached", "ring-polled", "tailed", "tcp-detached", "tcp-tailed", "tcp-drained"} {
		b.Run(arm, func(b *testing.B) {
			m, addr := newTimelineMember(b, "bench", "s1", []byte("e16-key"), 0)
			cred := m.c.Signer.IssueCredential("courier-1", "owner@hq", []string{"courier"})
			overTCP := arm == "tcp-detached" || arm == "tcp-tailed" || arm == "tcp-drained"
			var cl *server.Client
			var sub *server.Subject
			if overTCP {
				defer func() {
					if cl != nil {
						cl.Close()
					}
				}()
			} else {
				var err error
				if sub, err = m.srv.Authenticate(cred); err != nil {
					b.Fatal(err)
				}
				defer m.srv.Depart(sub)
			}
			// A granted access appends to the session's proof history,
			// which every later decision re-scans; cycle the session
			// like a real visit does so per-op cost stays flat instead
			// of going quadratic in b.N.
			const sessionEvery = 100
			recycle := func() {
				if cl != nil {
					_ = cl.Depart()
					cl.Close()
				}
				var err error
				if cl, err = server.Dial(addr); err != nil {
					b.Fatal(err)
				}
				if err := cl.Auth(cred); err != nil {
					b.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			switch arm {
			case "ring-polled":
				rec := m.c.Engine.Recorder()
				go func() {
					defer close(done)
					const batch = 1024 // the tail's bounded per-read copy
					var cursor uint64
					tick := time.NewTicker(50 * time.Millisecond)
					defer tick.Stop()
					for {
						recs, missed, _ := rec.RecordsSinceN(cursor, batch)
						cursor += missed
						if len(recs) > 0 {
							cursor = recs[len(recs)-1].Seq
						}
						if len(recs) == batch {
							continue // drain the backlog like the tail does
						}
						select {
						case <-tick.C:
						case <-ctx.Done():
							return
						}
					}
				}()
			case "tailed", "tcp-tailed":
				f := &journal.Follower{
					Name: "bench", BaseURL: m.debug.URL, Client: m.debug.Client(),
					Poll: 50 * time.Millisecond,
				}
				go func() { defer close(done); _ = f.Run(ctx, func(journal.Frame) {}) }()
				// The first meta sets the skew estimate: the tail is attached.
				for !f.Status().SkewKnown {
					time.Sleep(time.Millisecond)
				}
			case "tcp-drained":
				req, err := http.NewRequestWithContext(ctx, http.MethodGet,
					m.debug.URL+"/debug/journal?poll=50ms", nil)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := m.debug.Client().Do(req)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					defer close(done)
					defer resp.Body.Close()
					_, _ = io.Copy(io.Discard, resp.Body)
				}()
			default:
				close(done)
			}
			defer func() { cancel(); <-done }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if overTCP {
					if i%sessionEvery == 0 {
						recycle()
					}
					if _, err := cl.Access(model.OpRead, "doc", "", nil); err != nil {
						b.Fatal(err)
					}
				} else if _, err := m.srv.Request(sub, model.OpRead, "doc", server.RequestContext{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// timelineDecisionRun drives one burst of direct decisions against a
// member and returns its duration in seconds. Fresh session and proof
// store per run, so consecutive runs are structurally identical.
func timelineDecisionRun(t *testing.T, m *timelineMember) float64 {
	t.Helper()
	sub, err := m.srv.Authenticate(m.c.Signer.IssueCredential("courier-1", "owner@hq", []string{"courier"}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.srv.Depart(sub)
	store := proof.NewStore(m.c.Signer)
	const n = 600
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := m.srv.Request(sub, model.OpRead, "doc", server.RequestContext{Store: store}); err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
	}
	return time.Since(start).Seconds()
}

// timelineTailedRun is timelineDecisionRun with a journal follower
// attached to the member's debug listener for the whole burst.
func timelineTailedRun(t *testing.T, m *timelineMember) float64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	tailing := &journal.Follower{
		Name: "overhead", BaseURL: m.debug.URL, Client: m.debug.Client(),
		Cursor: m.c.Engine.Recorder().Status().Total,
		Poll:   50 * time.Millisecond,
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = tailing.Run(ctx, func(journal.Frame) {}) }()
	defer func() { cancel(); wg.Wait() }()
	// The first meta frame sets the skew estimate: the tail is attached.
	deadline := time.Now().Add(10 * time.Second)
	for !tailing.Status().SkewKnown {
		if time.Now().After(deadline) {
			t.Fatal("journal follower did not attach within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return timelineDecisionRun(t, m)
}
