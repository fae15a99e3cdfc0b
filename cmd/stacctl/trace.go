package main

// Trace inspection and decision explanation against a running stacd
// (its -metrics-addr listener) or against exported artefacts: Chrome
// trace-event JSON files for `trace`, the flight-recorder WAL for
// `explain`.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"stac/internal/obs/record"
	"stac/internal/server"
)

// cmdTrace lists or renders traces.
//
//	stacctl trace -addr 127.0.0.1:9090                # list traces
//	stacctl trace -addr 127.0.0.1:9090 <trace-id>     # render span tree
//	stacctl trace -addr 127.0.0.1:9090 -o t.json <id> # save Chrome JSON
//	stacctl trace -file run.json [<trace-id>]         # render from a file
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	addr := fs.String("addr", "", "stacd metrics address (host:port) to query")
	file := fs.String("file", "", "Chrome trace-event JSON file to read instead")
	out := fs.String("o", "", "write the raw Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var id string
	if rest := fs.Args(); len(rest) > 1 {
		return fmt.Errorf("trace: at most one trace-id argument")
	} else if len(rest) == 1 {
		id = rest[0]
	}
	switch {
	case *addr != "" && *file != "":
		return fmt.Errorf("trace: -addr and -file are mutually exclusive")
	case *addr == "" && *file == "":
		return fmt.Errorf("trace: one of -addr or -file is required")
	case *addr != "" && id == "":
		return listTraces(*addr)
	}

	var raw []byte
	var err error
	if *addr != "" {
		raw, err = httpGet("http://" + *addr + "/debug/trace?id=" + id)
	} else {
		raw, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(raw), *out)
		return nil
	}
	return renderChromeTrace(os.Stdout, raw, id)
}

// listTraces prints the daemon's retained traces.
func listTraces(addr string) error {
	raw, err := httpGet("http://" + addr + "/debug/trace")
	if err != nil {
		return err
	}
	var list struct {
		Traces []struct {
			ID    string `json:"id"`
			Spans int    `json:"spans"`
		} `json:"traces"`
		Total int `json:"total_spans"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		return fmt.Errorf("trace list: %w", err)
	}
	for _, t := range list.Traces {
		fmt.Printf("%s  %d spans\n", t.ID, t.Spans)
	}
	fmt.Printf("# %d traces retained, %d spans recorded in total\n", len(list.Traces), list.Total)
	return nil
}

// chromeEvent mirrors the events obs.WriteChromeTrace emits; span
// identity and annotations ride in args.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// spanNode is one reassembled span of the exported tree.
type spanNode struct {
	ev       chromeEvent
	service  string
	children []*spanNode
}

// renderChromeTrace reassembles the span tree from Chrome trace-event
// JSON and prints it, one trace at a time (filtered to traceID when
// non-empty).
func renderChromeTrace(w io.Writer, raw []byte, traceID string) error {
	var ct struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	threads := map[int]string{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threads[ev.Tid] = ev.Args["name"]
		}
	}
	// Group complete events by trace.
	byTrace := map[string][]*spanNode{}
	var order []string
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tid := ev.Args["trace_id"]
		if traceID != "" && tid != traceID {
			continue
		}
		if _, ok := byTrace[tid]; !ok {
			order = append(order, tid)
		}
		byTrace[tid] = append(byTrace[tid], &spanNode{ev: ev, service: threads[ev.Tid]})
	}
	if len(order) == 0 {
		return fmt.Errorf("no spans%s in export", forTrace(traceID))
	}
	for _, tid := range order {
		nodes := byTrace[tid]
		fmt.Fprintf(w, "trace %s (%d spans)\n", tid, len(nodes))
		bySpan := map[string]*spanNode{}
		for _, n := range nodes {
			bySpan[n.ev.Args["span_id"]] = n
		}
		var roots []*spanNode
		for _, n := range nodes {
			if parent, ok := bySpan[n.ev.Args["parent_id"]]; ok && parent != n {
				parent.children = append(parent.children, n)
			} else {
				roots = append(roots, n)
			}
		}
		sortNodes(roots)
		for _, r := range roots {
			printSpan(w, r, 1)
		}
	}
	return nil
}

func forTrace(id string) string {
	if id == "" {
		return ""
	}
	return " for trace " + id
}

func sortNodes(ns []*spanNode) {
	sort.SliceStable(ns, func(i, j int) bool { return ns[i].ev.Ts < ns[j].ev.Ts })
}

// printSpan renders one span line plus its children, indented by depth.
func printSpan(w io.Writer, n *spanNode, depth int) {
	attrs := make([]string, 0, len(n.ev.Args))
	for k, v := range n.ev.Args {
		switch k {
		case "trace_id", "span_id", "parent_id":
			continue
		}
		attrs = append(attrs, k+"="+v)
	}
	sort.Strings(attrs)
	line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), n.ev.Name)
	if n.service != "" {
		line += " [" + n.service + "]"
	}
	line += fmt.Sprintf(" %.3fms", float64(n.ev.Dur)/1000)
	if len(attrs) > 0 {
		line += " " + strings.Join(attrs, " ")
	}
	fmt.Fprintln(w, line)
	sortNodes(n.children)
	for _, c := range n.children {
		printSpan(w, c, depth+1)
	}
}

// explainWantsDecision reports whether an `explain` invocation targets
// a recorded decision (-addr / -wal) rather than the legacy static
// per-subformula program check.
func explainWantsDecision(args []string) bool {
	for _, a := range args {
		if a == "-addr" || a == "-wal" ||
			strings.HasPrefix(a, "-addr=") || strings.HasPrefix(a, "-wal=") {
			return true
		}
	}
	return false
}

// cmdExplainDecision explains one recorded authorisation decision.
//
//	stacctl explain -addr 127.0.0.1:9090 <decision-id>   # ask a daemon
//	stacctl explain -wal decisions.wal <decision-id>     # read the WAL
//
// Both paths project the decide record with server.AuditFromRecord,
// so for stacd, which sets no server clock skew, they print the same
// transcript for one decision. -wal streams the file and stops at the
// first match; the WAL also holds the decisions the daemon's ring has
// evicted.
func cmdExplainDecision(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	addr := fs.String("addr", "", "stacd metrics address (host:port) to query")
	walPath := fs.String("wal", "", "flight-recorder WAL file (stacd -record-wal) to read instead; - for stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 1 {
		return fmt.Errorf("explain: exactly one decision-id argument required")
	}
	id := fs.Arg(0)
	var entry server.AuditEntry
	switch {
	case *addr != "" && *walPath != "":
		return fmt.Errorf("explain: -addr and -wal are mutually exclusive")
	case *addr != "":
		raw, err := httpGet("http://" + *addr + "/debug/explain?id=" + id)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &entry); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
	default:
		found := false
		if err := scanWAL(*walPath, func(r record.Record) bool {
			if r.Kind == record.KindDecide && r.DecisionID == id {
				entry, found = server.AuditFromRecord(r), true
			}
			return !found
		}); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		if !found {
			return fmt.Errorf("explain: decision %s not found in %s", id, *walPath)
		}
	}
	entry.WriteTranscript(os.Stdout)
	return nil
}

// httpGet fetches a URL, turning non-200 statuses into errors that
// carry the response body.
func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}
