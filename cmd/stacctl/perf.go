package main

// `stacctl slow` — the tail-latency triage verb. A daemon's decision
// histogram retains one exemplar per latency bucket: the decision ID
// (and trace ID, when the client sampled the decision's context) of a
// recent bucket-maximum observation, with its request's stage vector.
// This verb lists those exemplars slowest first, names each one's
// dominant stage and resolves each through /debug/explain, turning
// "p99 is high" into "these exact decisions were slow, this is where
// their time went, here is what each one decided, replay the trace
// with `stacctl trace`".

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"stac/internal/obs"
	"stac/internal/server"
)

// cmdSlow lists a daemon's tail-latency exemplars.
//
//	stacctl slow -addr 127.0.0.1:9100
//	stacctl slow -addr 127.0.0.1:9100 -n 3 -explain=false
func cmdSlow(args []string) error {
	fs := flag.NewFlagSet("slow", flag.ContinueOnError)
	addr := fs.String("addr", "", "daemon metrics listener, host:port")
	n := fs.Int("n", 10, "list at most this many exemplars")
	explain := fs.Bool("explain", true, "resolve each decision through /debug/explain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("slow: -addr is required")
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return runSlow(os.Stdout, nil, strings.TrimRight(base, "/"), *n, *explain)
}

// runSlow fetches, sorts and renders; client may be nil.
func runSlow(w io.Writer, client *http.Client, baseURL string, n int, explain bool) error {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	// The snapshot carries the engine's perf stats; tail=0 leaves out
	// the budget series this verb does not read.
	var snap server.Snapshot
	if err := getJSON(client, baseURL+"/debug/snapshot?tail=0", &snap); err != nil {
		return fmt.Errorf("slow: %w", err)
	}
	exemplars := snap.Perf.Exemplars
	sort.Slice(exemplars, func(i, j int) bool { return exemplars[i].Value > exemplars[j].Value })
	if len(exemplars) > n {
		exemplars = exemplars[:n]
	}
	if len(exemplars) == 0 {
		fmt.Fprintln(w, "no exemplars retained (no decisions yet, or exemplars disabled)")
		return nil
	}
	fmt.Fprintf(w, "%-10s %-10s %-20s %-20s %-14s %s\n", "SECONDS", "BUCKET", "DECISION", "TRACE", "STAGE", "DECIDED")
	for _, ex := range exemplars {
		bucket := "+Inf"
		if ex.Le >= 0 {
			bucket = fmt.Sprintf("<=%.4g", ex.Le)
		}
		traceCol := "-"
		if ex.TraceID != "" {
			traceCol = ex.TraceID
		}
		decided := "-"
		if explain {
			decided = explainLine(client, baseURL, ex.DecisionID)
		}
		fmt.Fprintf(w, "%-10.6f %-10s %-20s %-20s %-14s %s\n", ex.Value, bucket, ex.DecisionID, traceCol, stageCol(ex.Stages), decided)
	}
	if explain {
		fmt.Fprintln(w, "# replay a traced row with: stacctl trace -addr <addr> <trace-id>")
	}
	return nil
}

// stageCol names an exemplar's dominant stage with its share of the
// stages recorded ("-" without a stage vector).
func stageCol(st []obs.StageTime) string {
	var total, top float64
	for _, s := range st {
		total += s.Seconds
		top = max(top, s.Seconds)
	}
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%s %.0f%%", obs.DominantStage(st), 100*top/total)
}

// explainLine resolves one decision ID to a one-line verdict; eviction
// from the audit window is an expected non-answer, not an error.
func explainLine(client *http.Client, baseURL, id string) string {
	var e server.AuditEntry
	if err := getJSON(client, baseURL+"/debug/explain?id="+id, &e); err != nil {
		return "(not in audit window)"
	}
	verdict := "GRANT"
	if !e.Granted {
		verdict = "DENY"
	}
	line := fmt.Sprintf("%s %s %s %s @ %s", verdict, e.Object, e.Op, e.Resource, e.Server)
	if e.Perm != "" {
		line += " perm=" + e.Perm
	}
	if !e.Granted && e.DenyReason != "" {
		line += " reason=" + e.DenyReason
	}
	return line
}

// getJSON fetches one JSON document.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
