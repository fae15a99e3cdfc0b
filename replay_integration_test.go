package stac

// End-to-end flight-recorder exercise: a device roams a 3-daemon
// coalition over TCP while the engine records every decision to a
// WAL. The recorded stream must (a) replay bit-identically through a
// fresh engine — the determinism oracle — (b) shadow-diff against a
// tightened count ceiling with every flip attributed to the changed
// clause, and (c) agree with the LIVE shadow evaluation the daemons ran
// concurrently, whose flips stream over /debug/watch naming the same
// clause.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/temporal"
)

// Five reads fit the ceiling; the sixth is denied. The duration
// budget is generous — it keeps the temporal ledger in play (records
// carry advancing SimClock timestamps the replay must honour) without
// ever deciding a verdict.
const replayItineraryPolicy = `
user rover
role roamer
permission p-roam read * @ * {
    spatial count(0, 5, sigma[op=read])
    duration 100s
    scheme  global
}
grant roamer p-roam
assign rover roamer
`

// The candidate tightens the ceiling to 2: hops 3-5 flip to denials
// (a violated ceiling is history-sticky), hop 6 stays denied.
const replayTightenedPolicy = `
user rover
role roamer
permission p-roam read * @ * {
    spatial count(0, 2, sigma[op=read])
    duration 100s
    scheme  global
}
grant roamer p-roam
assign rover roamer
`

func TestReplayShadowEndToEnd(t *testing.T) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("replay-key"))
	reg := obs.NewRegistry()
	c.Engine.SetObs(reg)
	if err := core.LoadPolicyString(c.Engine, replayItineraryPolicy); err != nil {
		t.Fatal(err)
	}
	c.Engine.EnableCostProfiling()
	var wal bytes.Buffer
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 128, WAL: &wal, Registry: reg}))
	if err := c.SetShadowPolicy(replayTightenedPolicy); err != nil {
		t.Fatal(err)
	}

	serverIDs := []model.ServerID{"s1", "s2", "s3"}
	addrs := map[model.ServerID]string{}
	var daemons []*server.Daemon
	for i, id := range serverIDs {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		srv.HostResource(model.ResourceID(fmt.Sprintf("r%d", i+1)), []byte("data"))
		srv.HostResource(model.ResourceID(fmt.Sprintf("r%d", i+4)), []byte("data"))
		d := server.NewDaemon(srv)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		t.Cleanup(func() { _ = d.Close() })
		addrs[id] = addr
	}

	// A live watcher collects the SSE stream for the whole itinerary.
	dbg := server.NewDebugServer(c, daemons, nil,
		server.DebugConfig{Registry: reg, Heartbeat: 50 * time.Millisecond})
	dts := httptest.NewServer(dbg.Mux())
	defer dts.Close()
	watchResp, err := http.Get(dts.URL + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	flipData := make(chan []string, 1)
	go func() {
		var flips []string
		sc := bufio.NewScanner(watchResp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") && event == "flip" {
				flips = append(flips, strings.TrimPrefix(line, "data: "))
			}
		}
		flipData <- flips
	}()

	// The roaming itinerary: 6 reads round-robin across the daemons,
	// the clock advancing 2s per hop, proofs carried hop to hop.
	cred := c.Signer.IssueCredential("rover", "hq@coalition", []string{"roamer"})
	var carried []proof.Proof
	var verdicts []bool
	for hop := 0; hop < 6; hop++ {
		id := serverIDs[hop%len(serverIDs)]
		cl, err := server.Dial(addrs[id])
		if err != nil {
			t.Fatal(err)
		}
		cl.ImportProofs(carried)
		if err := cl.Auth(cred); err != nil {
			t.Fatal(err)
		}
		_, aerr := cl.Access(model.OpRead, model.ResourceID(fmt.Sprintf("r%d", hop+1)), "", nil)
		verdicts = append(verdicts, aerr == nil)
		carried = cl.Proofs()
		cl.Close()
		clk.Advance(2)
	}
	want := []bool{true, true, true, true, true, false}
	for i, v := range verdicts {
		if v != want[i] {
			t.Fatalf("hop verdicts = %v, want %v (live shadow must not leak into served verdicts)", verdicts, want)
		}
	}
	if len(carried) != 5 {
		t.Fatalf("proofs carried = %d, want 5", len(carried))
	}

	// Each hop's depart reaches the WAL when the daemon's connection
	// handler finishes, after the client has moved on. Closing the
	// daemons waits for those handlers, so the stream is complete and
	// no longer written while it is read.
	for _, d := range daemons {
		_ = d.Close()
	}

	// (a) The determinism oracle.
	recs, err := record.ReadAll(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Replay(replayItineraryPolicy, recs, core.ReplayOptions{Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyMismatch {
		t.Fatalf("digest mismatch: recorded %s, replayed %s", res.RecordedDigest, res.ReplayDigest)
	}
	if !res.Deterministic() || res.Decisions != 6 {
		t.Fatalf("decisions=%d divergences=%v", res.Decisions, res.Divergences)
	}
	decisive := int64(0)
	for _, cc := range res.Coverage {
		decisive += cc.Decisive
	}
	if decisive == 0 {
		t.Fatalf("replay coverage has no decisive clause: %+v", res.Coverage)
	}

	// (b) Offline diff against the tightened ceiling.
	rep, err := core.ShadowDiff(replayTightenedPolicy, recs, core.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flips) != 3 {
		t.Fatalf("flips = %+v, want hops 3-5", rep.Flips)
	}
	for _, f := range rep.Flips {
		if !f.RecordedGranted || f.CandidateGranted {
			t.Fatalf("flip direction wrong: %+v", f)
		}
		if !strings.Contains(f.Clause, "count(0, 2") {
			t.Fatalf("flip not attributed to the tightened ceiling: %+v", f)
		}
	}

	// (c) The live shadow agreed with the offline diff, and the flips
	// reached the watch stream naming the ceiling clause.
	if got := reg.CounterValue("stac_shadow_flip_total", ""); got != int64(len(rep.Flips)) {
		t.Fatalf("live stac_shadow_flip_total = %d, offline diff found %d flips", got, len(rep.Flips))
	}
	dbg.Drain()
	var flips []string
	select {
	case flips = <-flipData:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not close after Drain")
	}
	if len(flips) != len(rep.Flips) {
		t.Fatalf("watch delivered %d flip events, want %d:\n%s", len(flips), len(rep.Flips), strings.Join(flips, "\n"))
	}
	for _, f := range flips {
		if !strings.Contains(f, "count(0, 2") {
			t.Fatalf("flip event does not name the ceiling clause: %s", f)
		}
	}

	// The daemon-side clause rows saw every decision and found the
	// ceiling clause decisive.
	cresp, err := http.Get(dts.URL + "/debug/cost")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var cov cost.Report
	if err := json.NewDecoder(cresp.Body).Decode(&cov); err != nil {
		t.Fatal(err)
	}
	if len(cov.Clauses) == 0 {
		t.Fatal("daemon coverage is empty")
	}
	live := int64(0)
	for _, cc := range cov.Clauses {
		live += cc.Decisive
	}
	if live == 0 {
		t.Fatalf("no clause was decisive on the live daemons: %+v", cov.Clauses)
	}
}
