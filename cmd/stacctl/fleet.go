package main

// Fleet observability verbs. `stacctl top` polls N daemons'
// /debug/snapshot endpoints through internal/obs/federate and renders
// the merged coalition view as a live table; `stacctl watch` follows
// their /debug/journal decision logs from the live tail and prints
// every authorisation decision as it happens.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"stac/internal/agent"
	"stac/internal/obs/federate"
	"stac/internal/obs/journal"
	"stac/internal/obs/record"
	"stac/internal/server"
)

// watchBackoff is the reconnect policy watch and timeline share: the
// coalition-standard jittered exponential backoff (internal/agent),
// rebased so the first retry waits ~100ms — a daemon restart, not a
// dropped packet, is the common cause.
func watchBackoff() *agent.Backoff {
	return &agent.Backoff{Base: 100 * time.Millisecond, Cap: 5 * time.Second}
}

// parseMembers parses "-members name=host:port,name2=host2:port2".
// The name is optional ("host:port" alone names the member after its
// address); a missing scheme defaults to http.
func parseMembers(spec string) ([]federate.Member, error) {
	var out []federate.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			addr = part
			name = part
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		out = append(out, federate.Member{Name: name, BaseURL: strings.TrimRight(addr, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no members given (want -members name=host:port,...)")
	}
	return out, nil
}

// cmdTop renders the merged fleet view.
//
//	stacctl top -members m1=127.0.0.1:9100,m2=127.0.0.1:9200
//	stacctl top -members ... -interval 2s        # live refresh
//	stacctl top -members ... -n 1                # one shot (scripting)
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	membersArg := fs.String("members", "", "comma-separated member list, name=host:port of each daemon's metrics listener")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iterations := fs.Int("n", 0, "number of refreshes; 0 = until interrupted")
	tail := fs.Int("tail", 8, "budget series tail to request per scrape")
	horizon := fs.Float64("horizon", 60, "flag budgets whose ETA falls under this many seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members, err := parseMembers(*membersArg)
	if err != nil {
		return fmt.Errorf("top: %w", err)
	}
	p := federate.NewPoller(members, federate.Config{BudgetTail: *tail, ExhaustionHorizon: *horizon})
	return runTop(os.Stdout, p, *interval, *iterations, *iterations != 1)
}

// runTop is the poll/render loop; clearScreen selects live-refresh
// behaviour (off for one-shot runs so output is pipeable).
func runTop(w io.Writer, p *federate.Poller, interval time.Duration, iterations int, clearScreen bool) error {
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		view := p.Poll(context.Background())
		if clearScreen {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderTop(w, view)
	}
	return nil
}

// renderTop prints one fleet view as a table.
func renderTop(w io.Writer, v federate.FleetView) {
	g := v.Global
	fmt.Fprintf(w, "fleet: %d/%d members up — %d decisions (%d grants, %d denies), %d migrations, %d tails\n",
		g.Members, g.Members+g.Unreachable+g.Skipped, g.Decisions, g.Grants, g.Denies, g.Migrations, g.Tails)
	if g.Skipped > 0 {
		fmt.Fprintf(w, "NOTE: %d member(s) skipped for snapshot version skew (deploy in flight?)\n", g.Skipped)
	}
	if g.ShadowFlips > 0 {
		fmt.Fprintf(w, "shadow: %d verdict flip(s) against the candidate policy fleet-wide\n", g.ShadowFlips)
	}
	if g.WALErrors > 0 {
		fmt.Fprintf(w, "WARNING: %d failed decision WAL append(s): decisions since are missing from the WAL\n", g.WALErrors)
	}
	if len(v.PerServer) > 0 {
		fmt.Fprintf(w, "\n%-12s %-12s %8s %8s\n", "MEMBER", "SERVER", "GRANTS", "DENIES")
		for _, s := range v.PerServer {
			fmt.Fprintf(w, "%-12s %-12s %8d %8d\n", s.Member, s.Server, s.Grants, s.Denies)
		}
	}
	if len(v.Budgets) > 0 {
		fmt.Fprintf(w, "\n%-24s %-10s %10s %10s %8s %8s %7s\n",
			"BUDGET", "SCHEME", "CONSUMED", "REMAIN", "RATE", "ETA", "MEMBERS")
		for _, b := range v.Budgets {
			eta := "-"
			if b.ETA >= 0 {
				eta = secs(b.ETA)
			}
			fmt.Fprintf(w, "%-24s %-10s %10s %10s %8.3g %8s %7d\n",
				b.Object+"/"+b.Perm, b.Scheme, secs(b.Consumed), secs(b.Remaining), b.BurnRate, eta, b.Members)
		}
	}
	if len(v.Cost) > 0 {
		var dead []federate.CostRollup
		for _, c := range v.Cost {
			if c.Dead() {
				dead = append(dead, c)
			}
		}
		fmt.Fprintf(w, "\ncoverage: %d clause(s) tracked, %d dead\n", len(v.Cost), len(dead))
		for _, c := range dead {
			path := c.Path
			if path == "" {
				path = "."
			}
			fmt.Fprintf(w, "  dead %s %s: %s (evaluated %d, never decisive)\n",
				c.Perm, path, c.Clause, c.Evals)
		}
	}
	if len(v.Perf) > 0 {
		fmt.Fprintf(w, "\n%-12s %6s %6s %10s %s\n",
			"MEMBER", "IMBAL", "BURN", "SLOWEST", "DECISION")
		for _, r := range v.Perf {
			slowest, id := "-", "-"
			if r.SlowestDecisionID != "" {
				slowest, id = secsTo(r.SlowestSeconds, 1e6), r.SlowestDecisionID
			}
			fmt.Fprintf(w, "%-12s %6.2f %6.2f %10s %s\n",
				r.Member, r.ObjectImbalance, r.SLOBurnRate, slowest, id)
		}
	}
	if len(v.Clocks) > 0 {
		fmt.Fprintf(w, "\n%-12s %10s %6s %8s %8s %10s\n",
			"MEMBER", "SKEW", "TAILS", "MAXLAG", "GAPS", "RECONNECTS")
		for _, c := range v.Clocks {
			skew := "n/a"
			if c.SkewKnown {
				skew = fmt.Sprintf("%+.3fs", c.SkewSeconds)
			}
			fmt.Fprintf(w, "%-12s %10s %6d %8d %8d %10d\n",
				c.Member, skew, c.Tails, c.MaxLagRecords, c.Gaps, c.Reconnects)
		}
	}
	for _, m := range v.Members {
		switch {
		case m.Skipped:
			fmt.Fprintf(w, "\nmember %s SKIPPED: %s\n", m.Name, m.Err)
		case !m.Reachable:
			fmt.Fprintf(w, "\nmember %s UNREACHABLE: %s\n", m.Name, m.Err)
		}
	}
	if len(v.Anomalies) > 0 {
		fmt.Fprintln(w, "\nanomalies:")
		for _, a := range v.Anomalies {
			subject := a.Member
			if subject == "" {
				subject = a.Subject
			}
			fmt.Fprintf(w, "  %-18s %s: %s\n", a.Kind, subject, a.Detail)
		}
	}
}

// secs renders a duration in seconds rounded to milliseconds, without
// the float noise %g leaks on live (non-simulated) clock readings.
func secs(v float64) string { return secsTo(v, 1e3) }

// secsTo renders a duration in seconds rounded to 1/perSecond: the
// slowest decision wants microseconds, as most take under a millisecond.
func secsTo(v, perSecond float64) string {
	return strconv.FormatFloat(math.Round(v*perSecond)/perSecond, 'f', -1, 64) + "s"
}

// cmdWatch streams the fleet's decisions.
//
//	stacctl watch -members m1=127.0.0.1:9100,m2=127.0.0.1:9200
//	stacctl watch -members ... -verdict deny -object o1 -n 10
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	membersArg := fs.String("members", "", "comma-separated member list, name=host:port of each daemon's metrics listener")
	object := fs.String("object", "", "only decisions for this mobile object")
	perm := fs.String("perm", "", "only decisions attributed to this permission")
	verdict := fs.String("verdict", "", "grant or deny; empty streams both")
	serverFilter := fs.String("server", "", "only decisions made by this coalition server")
	flips := fs.Bool("flips", false, "only shadow-policy verdict flips")
	maxEvents := fs.Int("n", 0, "stop after this many events; 0 = until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members, err := parseMembers(*membersArg)
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	f := watchQuery{object: *object, perm: *perm, verdict: *verdict, server: *serverFilter, flips: *flips}
	return runWatch(context.Background(), os.Stdout, nil, members, f, *maxEvents)
}

// watchQuery selects the served decisions watch prints.
type watchQuery struct {
	object, perm, verdict, server string
	flips                         bool
}

func (q watchQuery) match(e server.AuditEntry) bool {
	switch {
	case q.object != "" && e.Object != q.object,
		q.perm != "" && e.Perm != q.perm,
		q.server != "" && e.Server != q.server,
		q.verdict == "grant" && !e.Granted,
		q.verdict == "deny" && e.Granted,
		q.flips && (e.Shadow == nil || !e.Shadow.Flip):
		return false
	}
	return true
}

// runWatch follows every member's decision log from its live tail (a
// cursor past the total starts there) and renders the decide records
// q selects to w, until maxEvents arrive (0 = forever) or ctx ends. A
// lost stream reconnects with jittered backoff and resumes at its
// cursor, so a fleet watch survives rolling restarts; only a 4xx ends
// a member's tail with an error. client may be nil
// (http.DefaultClient; streams must not time out).
func runWatch(ctx context.Context, w io.Writer, client *http.Client, members []federate.Member, q watchQuery, maxEvents int) error {
	switch q.verdict {
	case "", "grant", "deny":
	default:
		return fmt.Errorf("watch: bad verdict %q (want grant or deny)", q.verdict)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex // guards w and the event count
	events := 0
	emit := func(member string, e server.AuditEntry) {
		mu.Lock()
		defer mu.Unlock()
		if maxEvents > 0 && events >= maxEvents {
			return
		}
		events++
		fmt.Fprintln(w, renderWatchLine(member, e))
		if maxEvents > 0 && events >= maxEvents {
			cancel()
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(members))
	for i, m := range members {
		f := &journal.Follower{
			Name: m.Name, BaseURL: m.BaseURL, Client: client,
			Cursor: math.MaxUint64,
			Delay:  watchBackoff().Delay,
			OnReconnect: func(attempt int, err error) {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintf(w, "# [%s] stream lost (%v), reconnect %d\n", m.Name, err, attempt)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f.Run(ctx, func(fr journal.Frame) {
				if fr.Kind != journal.KindRecord || fr.Record.Kind != record.KindDecide {
					return
				}
				if e := server.AuditFromRecord(*fr.Record); q.match(e) {
					emit(m.Name, e)
				}
			})
		}()
	}
	wg.Wait()

	mu.Lock()
	done := maxEvents > 0 && events >= maxEvents
	mu.Unlock()
	if done || ctx.Err() != nil {
		return nil // stopped on purpose; connection errors are expected
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("watch %s: %w", members[i].Name, err)
		}
	}
	return nil
}

// renderWatchLine formats one streamed decision.
func renderWatchLine(member string, e server.AuditEntry) string {
	verdict := "GRANT"
	if !e.Granted {
		verdict = "DENY"
	}
	line := fmt.Sprintf("[%s] t=%-8.6g %s %s %s %s %s @ %s",
		member, e.Time, e.Server, verdict, e.Object, e.Op, e.Resource, e.Server)
	if e.Perm != "" {
		line += " perm=" + e.Perm
	}
	if !e.Granted && e.DenyReason != "" {
		line += " reason=" + e.DenyReason
	}
	line += " decision=" + e.DecisionID
	if e.TraceID != "" {
		line += " trace=" + e.TraceID
	}
	if sv := e.Shadow; sv != nil && sv.Flip {
		shadow := "shadow=GRANT"
		if !sv.Granted {
			shadow = "shadow=DENY"
		}
		line += " FLIP " + shadow
		if sv.Clause != "" {
			line += fmt.Sprintf(" clause=%q", sv.Clause)
		}
		if sv.Detail != "" {
			line += " detail=" + strconv.Quote(sv.Detail)
		}
	}
	return line
}
