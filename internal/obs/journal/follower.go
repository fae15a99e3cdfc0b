package journal

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Follower tails one member's /debug/journal stream: it holds the
// resumable cursor, reconnects with backoff when the member restarts
// or the stream breaks, surfaces gap frames, and keeps lag and
// clock-skew estimates from the member's meta frames. Fields are set
// before Run; accessors are safe concurrently with it.
type Follower struct {
	// Name labels the member in emitted events; BaseURL is its debug
	// listener ("http://host:port").
	Name    string
	BaseURL string
	// Client performs the HTTP requests (nil = http.DefaultClient).
	Client *http.Client
	// Cursor resumes the tail after the given recorder sequence number
	// (0 = from the oldest retained record; past the member's total,
	// e.g. math.MaxUint64, = from its live tail).
	Cursor uint64
	// Poll is forwarded as the server-side poll interval (?poll=);
	// zero keeps the server default.
	Poll time.Duration
	// Max bounds the records streamed per connection (?max=); zero
	// streams unbounded. The follower reconnects after a bounded
	// stream ends, resuming at its cursor.
	Max int
	// Delay is the reconnect backoff policy (attempt starts at 1).
	// Nil falls back to capped exponential 100ms·2^k; callers wanting
	// the coalition-standard jittered policy pass
	// (&agent.Backoff{}).Delay.
	Delay func(attempt int) time.Duration
	// OnReconnect, when set, observes each reconnect attempt.
	OnReconnect func(attempt int, err error)

	mu         sync.Mutex
	cursor     uint64
	reconnects int64
	gaps       uint64 // records lost to ring eviction
	lag        uint64 // total - cursor at last meta
	skewSum    float64
	skewN      int
}

func defaultDelay(attempt int) time.Duration {
	d := 100 * time.Millisecond << uint(attempt-1)
	if d > 5*time.Second || d <= 0 {
		d = 5 * time.Second
	}
	return d
}

// Run tails the member until ctx ends, invoking emit for every frame
// in stream order. Transport errors reconnect with backoff (resuming
// from the cursor); only a non-retryable server response (HTTP 4xx —
// e.g. a daemon without a journal) ends the run with an error.
func (f *Follower) Run(ctx context.Context, emit func(Frame)) error {
	delay := f.Delay
	if delay == nil {
		delay = defaultDelay
	}
	f.mu.Lock()
	f.cursor = f.Cursor
	f.mu.Unlock()
	attempt := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		err := f.stream(ctx, emit)
		if err == nil && ctx.Err() != nil {
			return nil
		}
		var nr *notRetryable
		if errors.As(err, &nr) {
			return nr.err
		}
		attempt++
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		if f.OnReconnect != nil {
			f.OnReconnect(attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay(attempt)):
		}
	}
}

type notRetryable struct{ err error }

func (e *notRetryable) Error() string { return e.err.Error() }

// stream runs one connection: request, SSE parse loop, state updates.
// Returns nil when the server ended a bounded stream (KindEnd), an
// error otherwise.
func (f *Follower) stream(ctx context.Context, emit func(Frame)) error {
	f.mu.Lock()
	cursor := f.cursor
	f.mu.Unlock()
	url := fmt.Sprintf("%s/debug/journal?cursor=%d", strings.TrimRight(f.BaseURL, "/"), cursor)
	if f.Poll > 0 {
		url += fmt.Sprintf("&poll=%s", f.Poll)
	}
	if f.Max > 0 {
		url += fmt.Sprintf("&max=%d", f.Max)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return &notRetryable{err}
	}
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("journal: %s: HTTP %d", f.Name, resp.StatusCode)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &notRetryable{err}
		}
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			fr, err := DecodeFrame(event, []byte(strings.TrimPrefix(line, "data: ")))
			if err != nil {
				return err
			}
			f.observe(fr)
			emit(fr)
			if fr.Kind == KindEnd {
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	if ctx.Err() != nil {
		return nil
	}
	return fmt.Errorf("journal: %s: stream closed", f.Name)
}

// observe folds a frame into the follower's cursor/lag/skew state.
func (f *Follower) observe(fr Frame) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch fr.Kind {
	case KindRecord:
		if fr.Record.Seq > f.cursor {
			f.cursor = fr.Record.Seq
		}
	case KindGap:
		f.gaps += fr.Gap.Missed
		if resume := fr.Gap.From + fr.Gap.Missed; resume > f.cursor {
			f.cursor = resume
		}
	case KindMeta, KindEnd:
		// The member clamps a cursor past its total to its live tail
		// (a restarted member, or a follower started there): resume
		// from the member's cursor, not the stale one.
		if fr.Meta.Cursor < f.cursor {
			f.cursor = fr.Meta.Cursor
		}
		if fr.Meta.Total >= f.cursor {
			f.lag = fr.Meta.Total - f.cursor
		}
		if fr.Meta.WallUnix != 0 {
			// The member's raw wall minus ours at receipt: its clock
			// skew, biased a network delay low. Averaged over metas.
			f.skewSum += fr.Meta.WallUnix - float64(time.Now().UnixNano())/1e9
			f.skewN++
		}
	}
}

// Status is the follower's observable state.
type Status struct {
	Member     string  `json:"member"`
	Cursor     uint64  `json:"cursor"`
	Lag        uint64  `json:"lag_records"`
	Gaps       uint64  `json:"gap_records"`
	Reconnects int64   `json:"reconnects"`
	SkewS      float64 `json:"skew_s"`
	SkewKnown  bool    `json:"skew_known"`
}

// Status reports the follower's cursor, lag, gap and reconnect
// counters and its mean clock-skew estimate.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Member:     f.Name,
		Cursor:     f.cursor,
		Lag:        f.lag,
		Gaps:       f.gaps,
		Reconnects: f.reconnects,
	}
	if f.skewN > 0 {
		st.SkewS = f.skewSum / float64(f.skewN)
		st.SkewKnown = true
	}
	return st
}
