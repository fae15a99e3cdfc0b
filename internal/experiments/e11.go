package experiments

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/journal"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/workload"
)

// e11ScrapeEvery is the scraped mode's scrape period. A fixed rate
// makes the scrape count follow the tour's length, not the cost of a
// scrape, so the scraped row reads as that cost times a known rate.
const e11ScrapeEvery = time.Millisecond

// E11 measures what the fleet-telemetry layer costs a loaded
// coalition: a roaming tour runs alone (baseline), then again while a
// client scrapes /debug/snapshot every e11ScrapeEvery, then again with
// SSE /debug/journal tails attached from the live tail, consuming
// every decision event. The claim: both observers ride outside the
// decision path — snapshots take the coalition lock briefly per
// scrape, and a tail polls the coalition decision log by cursor, so a
// decision appends once whoever watches — and per-access cost stays
// within a small factor of the baseline even under frequent
// scraping; decisions a lagging tail lets the log evict (journal
// gaps, not slowed decisions) are the overload valve.
func E11(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Fleet telemetry overhead: baseline vs snapshot scraping vs SSE journal tails",
		Header: []string{"mode", "accesses", "wall-time", "per-access", "scrapes", "events", "dropped"},
	}
	servers := scale.pickInt(4, 8)
	perServer := scale.pickInt(25, 250)
	reps := scale.pickInt(1, 5)
	watchers := scale.pickInt(2, 4)
	for _, mode := range []string{"baseline", "scraped", "watched"} {
		var best time.Duration
		var res e11Result
		for i := 0; i < reps; i++ {
			r, err := runObservedTour(servers, perServer, watchers, mode)
			if err != nil {
				return nil, err
			}
			if best == 0 || r.wall < best {
				best = r.wall
				res = r
			}
		}
		t.AddRow(mode, res.accesses, best.Round(time.Microsecond).String(),
			(best / time.Duration(res.accesses)).String(),
			res.scrapes, res.events, res.dropped)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scraped mode runs one client fetching /debug/snapshot every %v for the whole tour: a fixed", e11ScrapeEvery),
		"rate, so the scrape count follows the tour's length, not the cost of a scrape. Watched mode attaches",
		"SSE /debug/journal tails from the live tail that consume every decision event. Neither observer sits",
		"on the decision path: a scrape holds the coalition lock only while it copies counters, and a tail",
		"follows the 1024-entry decision log by cursor every 50ms; what the log evicts before a tail reads it",
		"is a journal gap (column 'dropped'), never waited for.")
	return t, nil
}

type e11Result struct {
	wall     time.Duration
	accesses int
	scrapes  int64
	events   int64
	dropped  int64
}

// runObservedTour drives one roaming itinerary with the given
// telemetry observers attached and reports the tour cost plus
// observer throughput.
func runObservedTour(servers, perServer, watchers int, mode string) (e11Result, error) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("e11-key"))
	c.Engine.SetObs(obs.NewRegistry())
	v := workload.DefaultVocabulary(servers, 4)
	for _, id := range v.Servers {
		srv, err := c.AddServer(id)
		if err != nil {
			return e11Result{}, err
		}
		for _, res := range v.Resources {
			srv.HostResource(res, []byte("payload"))
		}
	}
	policy := fmt.Sprintf(`
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, %d, sigma[op=read])
    duration 1000000s
    scheme global
}
grant traveler p-read
assign o1 traveler
`, servers*perServer+1)
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		return e11Result{}, err
	}

	dbg := server.NewDebugServer(c, nil, nil, server.DebugConfig{Registry: c.Engine.Obs()})
	ts := httptest.NewServer(dbg.Mux())
	defer func() {
		dbg.Drain()
		ts.Close()
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes, events int64

	switch mode {
	case "baseline":
	case "scraped":
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			tick := time.NewTicker(e11ScrapeEvery)
			defer tick.Stop()
			for {
				resp, err := client.Get(ts.URL + "/debug/snapshot")
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&scrapes, 1)
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		// Let the scraper finish one round trip before the tour starts
		// so a tour shorter than one scrape still counts as observed.
		deadline := time.Now().Add(5 * time.Second)
		for atomic.LoadInt64(&scrapes) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	case "watched":
		for i := 0; i < watchers; i++ {
			resp, err := http.Get(ts.URL + "/debug/journal?poll=50ms&cursor=" + strconv.FormatUint(math.MaxUint64, 10))
			if err != nil {
				return e11Result{}, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer resp.Body.Close()
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
				for sc.Scan() {
					if sc.Text() == "event: "+journal.KindRecord {
						atomic.AddInt64(&events, 1)
					}
				}
			}()
		}
		// Tails must be attached before the tour starts: each
		// follows the log from where it connected.
		deadline := time.Now().Add(5 * time.Second)
		for dbg.JournalStats().ActiveTails < watchers && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	default:
		return e11Result{}, fmt.Errorf("unknown mode %q", mode)
	}

	var nodes []sral.Node
	for i := 0; i < perServer; i++ {
		for _, s := range v.Servers {
			nodes = append(nodes, sral.Prim{
				Op:       model.OpRead,
				Resource: v.Resources[i%len(v.Resources)],
				Server:   s,
			})
		}
	}
	prog := sral.SeqOf(nodes...)
	cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
	ag := agent.New("o1", cred, prog, c.Signer)

	start := time.Now()
	err := agent.Launch(c, ag)
	wall := time.Since(start)
	if err != nil {
		return e11Result{}, err
	}

	close(stop)
	dbg.Drain() // ends the SSE streams so the tail goroutines exit
	wg.Wait()
	return e11Result{
		wall:     wall,
		accesses: ag.Proofs.Len(),
		scrapes:  atomic.LoadInt64(&scrapes),
		events:   atomic.LoadInt64(&events),
		dropped:  dbg.JournalStats().Gaps,
	}, nil
}
