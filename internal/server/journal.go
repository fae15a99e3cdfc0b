package server

// The /debug/journal tail: a resumable, bounded, non-blocking SSE
// stream over the coalition decision log (the engine's flight
// recorder). It POLLS the ring by a client-supplied cursor, so a
// follower that falls behind or reconnects resumes exactly where it
// left off, and learns via gap frames when the ring evicted records it
// never saw; a cursor past the total starts at the live tail. Nothing
// here touches the decision path: the only shared state is the
// recorder's own mutex, taken briefly per poll to copy the pending
// records. internal/obs/journal is the client (behind `stacctl
// timeline` and `stacctl watch`); the frame wire format is defined
// there.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"stac/internal/obs"
	"stac/internal/obs/journal"
	"stac/internal/obs/record"
)

const (
	defaultJournalPoll = 250 * time.Millisecond
	minJournalPoll     = 50 * time.Millisecond
	maxJournalPoll     = 5 * time.Second
	// journalBatch bounds how many records one ring read copies (and
	// how long it holds the recorder mutex against the decision path);
	// a full batch loops straight into the next read, so backlog drain
	// throughput is unaffected.
	journalBatch = 1024
)

// JournalStats is the journal tail state folded into the snapshot
// (version ≥ 4) and rolled up by federate.
type JournalStats struct {
	// ActiveTails is the number of live tail streams; TailsTotal
	// counts every tail ever started.
	ActiveTails int   `json:"active_tails"`
	TailsTotal  int64 `json:"tails_total"`
	// Records counts records streamed across all tails; Gaps counts
	// records lost to ring eviction before a tail could read them.
	Records int64 `json:"records_streamed_total"`
	Gaps    int64 `json:"gaps_total"`
	// MaxLagRecords is the worst lag (recorder total minus cursor)
	// across active tails at their last poll.
	MaxLagRecords uint64 `json:"max_lag_records"`
}

// journalTelemetry tracks tails and backs the stac_journal_* metrics.
type journalTelemetry struct {
	mu     sync.Mutex
	nextID int
	lags   map[int]uint64 // per active tail

	tails   *obs.Counter
	active  *obs.Gauge
	records *obs.Counter
	gaps    *obs.Counter
	lag     *obs.Gauge
}

func newJournalTelemetry(reg *obs.Registry) *journalTelemetry {
	return &journalTelemetry{
		lags: make(map[int]uint64),
		tails: reg.Counter("stac_journal_tails_total", "",
			"Journal tail streams ever started on /debug/journal."),
		active: reg.Gauge("stac_journal_tail_active", "",
			"Journal tail streams currently connected."),
		records: reg.Counter("stac_journal_tail_records_total", "",
			"Flight-recorder records streamed to journal tails."),
		gaps: reg.Counter("stac_journal_tail_gaps_total", "",
			"Records evicted from the recorder ring before a journal tail read them."),
		lag: reg.Gauge("stac_journal_lag_records",
			"", "Worst tail lag in records (recorder total minus cursor) across active journal tails."),
	}
}

// open registers a tail and returns its id.
func (j *journalTelemetry) open() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextID++
	id := j.nextID
	j.lags[id] = 0
	j.tails.Inc()
	j.active.Inc()
	return id
}

func (j *journalTelemetry) close(id int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.lags, id)
	j.active.Dec()
	j.publishLagLocked()
}

// observe updates one tail's lag and the lag gauge.
func (j *journalTelemetry) observe(id int, lag uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lags[id] = lag
	j.publishLagLocked()
}

func (j *journalTelemetry) publishLagLocked() {
	var max uint64
	for _, l := range j.lags {
		if l > max {
			max = l
		}
	}
	j.lag.Set(int64(max))
}

// JournalStats snapshots the /debug/journal tail state, as folded
// into the daemon snapshot.
func (h *DebugServer) JournalStats() JournalStats { return h.journal.stats() }

func (j *journalTelemetry) stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		ActiveTails: len(j.lags),
		TailsTotal:  j.tails.Value(),
		Records:     j.records.Value(),
		Gaps:        j.gaps.Value(),
	}
	for _, l := range j.lags {
		if l > st.MaxLagRecords {
			st.MaxLagRecords = l
		}
	}
	return st
}

// lagBehind is total-cursor clamped at zero (a fresh clamped cursor
// can sit at total while records land concurrently).
func lagBehind(total, cursor uint64) uint64 {
	if total > cursor {
		return total - cursor
	}
	return 0
}

// handleJournal streams the flight recorder as SSE journal frames:
// "record" per retained record past ?cursor=, "gap" when the cursor
// fell off the ring, "journal" metas whenever the tail is caught up
// (doubling as keep-alive and as the merge watermark), "end" when a
// ?max= bound is reached. ?poll= tunes the ring poll interval within
// [50ms, 5s]. A drain first delivers one more bounded read, so a tail
// sees every record logged before it.
func (h *DebugServer) handleJournal(w http.ResponseWriter, r *http.Request) {
	rec := h.c.Engine.Recorder()
	var cursor uint64
	if arg := r.URL.Query().Get("cursor"); arg != "" {
		if _, err := fmt.Sscanf(arg, "%d", &cursor); err != nil {
			http.Error(w, "bad cursor parameter", http.StatusBadRequest)
			return
		}
	}
	max := 0
	if arg := r.URL.Query().Get("max"); arg != "" {
		if _, err := fmt.Sscanf(arg, "%d", &max); err != nil || max < 0 {
			http.Error(w, "bad max parameter", http.StatusBadRequest)
			return
		}
	}
	poll := defaultJournalPoll
	if arg := r.URL.Query().Get("poll"); arg != "" {
		d, err := time.ParseDuration(arg)
		if err != nil {
			http.Error(w, "bad poll parameter", http.StatusBadRequest)
			return
		}
		if d < minJournalPoll {
			d = minJournalPoll
		}
		if d > maxJournalPoll {
			d = maxJournalPoll
		}
		poll = d
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	h.wg.Add(1)
	defer h.wg.Done()
	select {
	case <-h.quit:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	// A cursor beyond the recorder's total is from a previous daemon
	// incarnation (restart reset the recorder): clamp to the live
	// tail rather than stalling the follower forever. Clamped before
	// the tail counts as active, so a record that lands once it does
	// is always past the cursor.
	if st := rec.Status(); cursor > st.Total {
		cursor = st.Total
	}
	id := h.journal.open()
	defer h.journal.close(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, ": stac journal schema v%d\n\n", record.SchemaVersion)

	meta := func(kind string) {
		st := rec.Status()
		hclk := h.c.Engine.HLC()
		m := journal.Meta{
			Cursor:   cursor,
			Total:    st.Total,
			Retained: st.Retained,
			Schema:   record.SchemaVersion,
			HLC:      hclk.Now().String(),
			WallUnix: float64(hclk.Wall()) / 1e9,
		}
		b, _ := json.Marshal(m)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, b)
	}
	meta(journal.KindMeta)
	fl.Flush()

	streamed := 0
	// read streams one bounded ring read; full reports a full batch
	// (more backlog is likely pending), ended a reached ?max= bound.
	read := func() (full, ended bool) {
		recs, missed, total := rec.RecordsSinceN(cursor, journalBatch)
		if missed > 0 {
			b, _ := json.Marshal(journal.Gap{From: cursor, Missed: missed})
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", journal.KindGap, b)
			cursor += missed
			h.journal.gaps.Add(int64(missed))
		}
		for _, rc := range recs {
			b, err := json.Marshal(rc)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", journal.KindRecord, b)
			cursor = rc.Seq
			streamed++
			h.journal.records.Inc()
			if max > 0 && streamed >= max {
				meta(journal.KindEnd)
				fl.Flush()
				h.journal.observe(id, lagBehind(total, cursor))
				return false, true
			}
		}
		if total <= cursor {
			// Caught up: the meta doubles as keep-alive and as the
			// merge watermark promise (see journal.KindMeta).
			meta(journal.KindMeta)
		}
		fl.Flush()
		h.journal.observe(id, lagBehind(total, cursor))
		return len(recs) == journalBatch, false
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	// A full batch reads on at once: more backlog is likely pending.
	immediately := make(chan time.Time)
	close(immediately)
	for {
		full, ended := read()
		if ended {
			return
		}
		wait := tick.C
		if full {
			wait = immediately
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		case <-h.quit:
			read()
			return
		}
	}
}
