package server

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"stac/internal/hlc"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/journal"
	"stac/internal/obs/record"
	"stac/internal/proof"
)

// tailJournalErr performs one bounded /debug/journal request and
// decodes every frame until the end frame (or stream close). Safe to
// call off the test goroutine.
func tailJournalErr(url string) ([]journal.Frame, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var frames []journal.Frame
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			fr, err := journal.DecodeFrame(event, []byte(strings.TrimPrefix(line, "data: ")))
			if err != nil {
				return frames, fmt.Errorf("frame %q: %v", line, err)
			}
			frames = append(frames, fr)
			if fr.Kind == journal.KindEnd {
				return frames, nil
			}
		}
	}
	return frames, sc.Err()
}

func tailJournal(t *testing.T, url string) []journal.Frame {
	t.Helper()
	frames, err := tailJournalErr(url)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

func recordSeqs(frames []journal.Frame) []uint64 {
	var out []uint64
	for _, fr := range frames {
		if fr.Kind == journal.KindRecord {
			out = append(out, fr.Record.Seq)
		}
	}
	return out
}

// A default coalition's journal is its decision log: decide records
// only, each with its decision ID and its served outcome.
func TestJournalDefaultStreamsDecisionsOnly(t *testing.T) {
	c, _ := newCoalition(t)
	_, ts := newDebugHTTP(t, c)
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Depart(sub)
	store := proof.NewStore(c.Signer)
	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Request(sub, model.OpRead, "missing", RequestContext{Store: store}); err == nil {
		t.Fatal("unknown resource granted")
	}
	if _, err := srv.Request(sub, "delete", "f-s1", RequestContext{Store: store}); err == nil {
		t.Fatal("uncovered op granted")
	}

	frames := tailJournal(t, ts.URL+"/debug/journal?max=3&poll=50ms")
	var recs []record.Record
	for _, fr := range frames {
		if fr.Kind == journal.KindRecord {
			recs = append(recs, *fr.Record)
		}
	}
	if st := c.Engine.Recorder().Status(); len(recs) != 3 || st.Total != 3 {
		t.Fatalf("journal holds %d of %d records, want the 3 decisions", len(recs), st.Total)
	}
	for i, r := range recs {
		if r.Kind != record.KindDecide || r.DecisionID == "" || r.User != "" || r.Roles != nil {
			t.Fatalf("record %d = %+v, want a decide record without replay inputs", i, r)
		}
	}
	if r := recs[0]; !r.Granted || r.ServedReason != "" || r.Perm != "p-read" {
		t.Fatalf("grant = %+v", r)
	}
	// The engine granted the unknown resource; the server refused it.
	if r := recs[1]; !r.Granted || r.ServedReason != "unknown resource" || AuditFromRecord(r).Granted {
		t.Fatalf("served denial = %+v", r)
	}
	if r := recs[2]; r.Granted || r.Deny != "rbac" || r.ServedReason != "" {
		t.Fatalf("engine denial = %+v", r)
	}
}

// A drain first delivers every record already logged: a tail whose
// next poll is seconds away still sees the records appended before
// Drain.
func TestJournalDrainDeliversLoggedRecords(t *testing.T) {
	c, _ := newCoalition(t)
	h, ts := newDebugHTTP(t, c)
	resp, err := http.Get(ts.URL + "/debug/journal?poll=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readFrames(t, sc, 2) // connect meta, caught-up meta of the first read

	for i := 0; i < 3; i++ {
		grantOnce(t, c)
	}
	total := c.Engine.Recorder().Status().Total
	h.Drain()
	var seqs []uint64
	for _, fr := range readFrames(t, sc, int(total)) {
		if fr.Kind != journal.KindRecord {
			t.Fatalf("frame %+v before the logged records", fr)
		}
		seqs = append(seqs, fr.Record.Seq)
	}
	if seqs[0] != 1 || seqs[len(seqs)-1] != total {
		t.Fatalf("drained tail saw seqs %v, want 1..%d", seqs, total)
	}
}

func TestJournalRejectsBadParameters(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 8, Registry: obs.NewRegistry()}))
	_, ts := newDebugHTTP(t, c)
	for _, q := range []string{"?cursor=frog", "?max=-1", "?poll=never"} {
		resp, err := http.Get(ts.URL + "/debug/journal" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestJournalStreamsResumesAndGaps(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 64, Registry: obs.NewRegistry()}))
	h, ts := newDebugHTTP(t, c)
	grantOnce(t, c) // arrive + decide records at least

	// The first frame is a meta carrying the member's HLC watermark.
	frames := tailJournal(t, ts.URL+"/debug/journal?max=2&poll=50ms")
	if len(frames) < 3 || frames[0].Kind != journal.KindMeta {
		t.Fatalf("frames = %+v, want meta first then 2 records + end", frames)
	}
	// WallUnix is 0 here: a SimClock member's raw wall sits at the sim
	// epoch, which is exactly how followers learn it is not comparable.
	if frames[0].Meta.HLC == "" {
		t.Fatalf("meta lacks HLC: %+v", frames[0].Meta)
	}
	seqs := recordSeqs(frames)
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("first tail seqs = %v, want [1 2]", seqs)
	}

	// Resume from the cursor: only newer records arrive.
	grantOnce(t, c)
	pending := c.Engine.Recorder().Status().Total - seqs[1]
	frames = tailJournal(t, fmt.Sprintf("%s/debug/journal?cursor=%d&max=%d&poll=50ms", ts.URL, seqs[1], pending))
	resumed := recordSeqs(frames)
	if len(resumed) != int(pending) || resumed[0] != seqs[1]+1 {
		t.Fatalf("resumed seqs = %v, want the %d records after %d", resumed, pending, seqs[1])
	}

	// A cursor beyond the total (previous daemon incarnation) clamps to
	// the live tail instead of stalling: the tail delivers the NEXT
	// record that lands, not a replay and not a hang.
	st := c.Engine.Recorder().Status()
	type tailResult struct {
		frames []journal.Frame
		err    error
	}
	got := make(chan tailResult, 1)
	started := h.JournalStats().TailsTotal
	go func() {
		fs, err := tailJournalErr(fmt.Sprintf("%s/debug/journal?cursor=%d&max=1&poll=50ms", ts.URL, st.Total+1000))
		got <- tailResult{fs, err}
	}()
	// Wait for the tail to attach before producing its record. Count
	// started tails, not active ones: the resumed tail above may not
	// have deregistered yet.
	deadline := time.Now().Add(5 * time.Second)
	for h.JournalStats().TailsTotal == started && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	grantOnce(t, c)
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatal(res.err)
		}
		seqs := recordSeqs(res.frames)
		if len(seqs) != 1 || seqs[0] <= st.Total {
			t.Fatalf("clamped tail seqs = %v, want one record past total %d", seqs, st.Total)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("clamped tail never delivered the new record")
	}

	stats := h.JournalStats()
	if stats.TailsTotal < 3 || stats.Records < 3 {
		t.Fatalf("journal stats = %+v", stats)
	}
}

func TestJournalGapOnEvictedCursor(t *testing.T) {
	c, _ := newCoalition(t)
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 4, Registry: obs.NewRegistry()}))
	_, ts := newDebugHTTP(t, c)
	// Each grantOnce appends ≥2 records (arrive + decide); overflow the
	// 4-slot ring.
	for i := 0; i < 6; i++ {
		grantOnce(t, c)
	}
	st := c.Engine.Recorder().Status()
	frames := tailJournal(t, ts.URL+"/debug/journal?max=4&poll=50ms")
	var gap *journal.Gap
	for _, fr := range frames {
		if fr.Kind == journal.KindGap {
			gap = fr.Gap
			break
		}
	}
	if gap == nil {
		t.Fatalf("no gap frame despite ring eviction; frames = %+v", frames)
	}
	if gap.From != 0 || gap.Missed != st.Total-4 {
		t.Fatalf("gap = %+v, want the %d evicted records", gap, st.Total-4)
	}
	seqs := recordSeqs(frames)
	if len(seqs) != 4 || seqs[0] != st.Total-3 {
		t.Fatalf("post-gap seqs = %v, want the 4 retained", seqs)
	}
}

// TestJournalHLCOrderMatchesDecisionOrder is the single-daemon HLC
// ordering property: under a deterministic SimClock, sequential
// requests produce journal records whose HLC order equals their
// sequence order. (Wall readings are frozen between SimClock
// advances, so the ordering burden falls entirely on the logical
// counter.)
func TestJournalHLCOrderMatchesDecisionOrder(t *testing.T) {
	c, clk := newCoalition(t)
	c.Engine.SetRecorder(record.New(record.Config{Capacity: 1024, Registry: obs.NewRegistry()}))
	srv, _ := c.Server("s1")
	sub, err := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	if err != nil {
		t.Fatal(err)
	}
	store := proof.NewStore(c.Signer)
	drive := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(0.25)
		}
	}
	drive(40)

	recs, missed, _ := c.Engine.Recorder().RecordsSince(0)
	if missed != 0 || len(recs) == 0 {
		t.Fatalf("records = %d, missed = %d", len(recs), missed)
	}
	last := hlc.Timestamp{}
	for _, r := range recs {
		ts, err := hlc.Parse(r.HLC)
		if err != nil {
			t.Fatalf("seq %d: bad HLC %q: %v", r.Seq, r.HLC, err)
		}
		if ts.IsZero() {
			t.Fatalf("seq %d (%s): unstamped record", r.Seq, r.Kind)
		}
		if !ts.After(last) {
			t.Fatalf("seq %d: HLC %s not after predecessor %s — journal order diverges from decision order",
				r.Seq, ts, last)
		}
		last = ts
	}
}
