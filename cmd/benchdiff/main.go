// Command benchdiff compares two performance summary files and reports
// per-entry deltas. It understands three formats, auto-detected from
// the file contents:
//
//   - bench summaries — the BENCH.json artifacts ci.sh distils
//     from the bench smoke run, the v2 envelope {"host": {...},
//     "bench": [...]} that -distill emits; compared by ns/op AND
//     allocs/op (both gate).
//   - load summaries (JSON object with a "runs" array) — the
//     LOAD.json artifacts cmd/stacload emits; compared by
//     throughput (ops/s drop) and tail latency (p99 rise) per
//     (scenario, system) cell, trials averaged.
//   - cost tables (JSON object with a "clauses" array) — the
//     COST.json artifacts ci.sh captures from an engine's
//     per-clause evaluation-cost profile; compared by sampled mean
//     ns/eval per (perm, clause path). Cost deltas gate: a clause
//     whose evaluation got slower is exactly the regression the SRAC
//     compilation arc must not introduce.
//
// Usage:
//
//	benchdiff [-threshold 25] [-fail-over 0] old.json new.json
//	benchdiff -distill bench_output.txt            # go test -bench → JSON
//	benchdiff -ab parent.jsonl change.jsonl        # repository benchmark A/B
//
// -distill parses `go test -bench` text output (use "-" for stdin)
// and writes a v2 bench summary — benchmark names with ns/op and
// allocs/op, stamped with the capturing host's fingerprint — to
// stdout. It replaces the awk pipeline ci.sh used to carry.
//
// -ab compares alternating runs of the repository benchmark, paired
// line by line, by the gain rule and bounds described in ab.go.
//
// Regressions beyond -threshold are emitted as GitHub Actions
// "::warning::" annotations so CI surfaces them without failing the
// build — smoke runs are too noisy to gate on tightly. When -fail-over
// is set (> 0), a gating regression beyond that percentage makes
// benchdiff exit non-zero, which is how CI turns an order-of-magnitude
// slip into a hard failure while leaving noise-level drift as
// warnings. ns/op, allocs/op, throughput and clause cost gate; p99
// rises warn but never fail (tail latency on a shared CI box is too
// volatile to gate on).
//
// When both sides carry a host fingerprint and they disagree on
// anything that skews performance numbers (go version, CPU model,
// core count), benchdiff emits a "::warning title=host mismatch::"
// annotation before the deltas — the comparison still runs, but the
// reader knows the machines differ.
//
// A missing old file is not an error (first run after a rename): the
// tool notes it and exits 0.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"stac/internal/obs/cost"
	"stac/internal/obs/perf"
)

// benchResult mirrors one entry of the ci.sh bench summary.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchSummary is the v2 bench envelope -distill writes: results plus
// the host fingerprint they were captured on.
type benchSummary struct {
	Host  perf.HostInfo `json:"host"`
	Bench []benchResult `json:"bench"`
}

// loadRun mirrors one matrix cell of a cmd/stacload summary (only the
// fields the diff needs). The nested perf.cost probe reads the schema-3
// per-cell clause-cost section; older summaries simply leave it nil.
type loadRun struct {
	Scenario       string  `json:"scenario"`
	System         string  `json:"system"`
	Trial          int     `json:"trial"`
	ThroughputOpsS float64 `json:"throughput_ops_s"`
	P99US          float64 `json:"p99_us"`
	Perf           *struct {
		Cost *struct {
			MeanRootNS float64 `json:"mean_root_ns"`
		} `json:"cost"`
	} `json:"perf"`
}

// meanRootNS extracts the cell's per-decision policy-evaluation price,
// 0 when the summary predates schema 3 or the system exposes no cost
// profile.
func (r loadRun) meanRootNS() float64 {
	if r.Perf == nil || r.Perf.Cost == nil {
		return 0
	}
	return r.Perf.Cost.MeanRootNS
}

// loadSummary is the envelope of a LOAD.json document. Schema 2
// adds the host fingerprint.
type loadSummary struct {
	Schema int           `json:"schema"`
	Host   perf.HostInfo `json:"host"`
	Runs   []loadRun     `json:"runs"`
}

// summary is one parsed input file in whichever of the three formats
// it turned out to be. Exactly one of bench/runs/cost is set (bench
// may legitimately be an empty non-nil slice).
type summary struct {
	host  perf.HostInfo
	bench []benchResult
	runs  []loadRun
	cost  *cost.Report
}

func (s summary) kind() string {
	switch {
	case s.runs != nil:
		return "load"
	case s.cost != nil:
		return "cost"
	default:
		return "bench"
	}
}

// delta is one compared entry. Pct is the regression in percent
// (+ = worse): slower ns/op, more allocs, lower throughput, higher
// p99, a slower clause. Gate marks deltas -fail-over may fail the
// build on: ns/op, allocs/op, throughput and clause cost qualify; tail
// latency is warn-only (p99 on a shared CI box swings several-fold run
// to run).
type delta struct {
	Name     string
	Unit     string
	Old, New float64
	Pct      float64
	Gate     bool
}

// compare matches bench results by name and computes ns/op and
// allocs/op deltas; it also returns benchmarks present on only one
// side. Allocation deltas are emitted only when either side allocates
// at all — a 0→0 row is noise.
func compare(old, new []benchResult) (deltas []delta, added, removed []string) {
	oldBy := make(map[string]benchResult, len(old))
	for _, b := range old {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool, len(new))
	for _, b := range new {
		seen[b.Name] = true
		o, ok := oldBy[b.Name]
		if !ok {
			added = append(added, b.Name)
			continue
		}
		d := delta{Name: b.Name, Unit: "ns/op", Old: o.NsPerOp, New: b.NsPerOp, Gate: true}
		if o.NsPerOp > 0 {
			d.Pct = (b.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		deltas = append(deltas, d)
		if o.AllocsPerOp > 0 || b.AllocsPerOp > 0 {
			da := delta{Name: b.Name, Unit: "allocs/op", Old: o.AllocsPerOp, New: b.AllocsPerOp, Gate: true}
			if o.AllocsPerOp > 0 {
				da.Pct = (b.AllocsPerOp - o.AllocsPerOp) / o.AllocsPerOp * 100
			}
			deltas = append(deltas, da)
		}
	}
	for _, b := range old {
		if !seen[b.Name] {
			removed = append(removed, b.Name)
		}
	}
	return deltas, added, removed
}

// loadCell is the per-(scenario, system) aggregate of a load summary,
// trials averaged. costNS averages only the trials that carried a cost
// section (costN of them), so schema-2 baselines aggregate to 0 and
// the cost delta is simply omitted.
type loadCell struct {
	throughput float64
	p99        float64
	costNS     float64
	costN      int
}

func aggregateLoad(runs []loadRun) map[string]loadCell {
	sums := map[string]loadCell{}
	counts := map[string]int{}
	for _, r := range runs {
		key := r.Scenario + "/" + r.System
		c := sums[key]
		c.throughput += r.ThroughputOpsS
		c.p99 += r.P99US
		if ns := r.meanRootNS(); ns > 0 {
			c.costNS += ns
			c.costN++
		}
		sums[key] = c
		counts[key]++
	}
	for key, c := range sums {
		n := float64(counts[key])
		out := loadCell{throughput: c.throughput / n, p99: c.p99 / n, costN: c.costN}
		if c.costN > 0 {
			out.costNS = c.costNS / float64(c.costN)
		}
		sums[key] = out
	}
	return sums
}

// compareLoad diffs two load summaries cell by cell: a throughput drop
// and a p99 rise are each one delta, both oriented so + = worse.
func compareLoad(old, new []loadRun) (deltas []delta, added, removed []string) {
	oldBy, newBy := aggregateLoad(old), aggregateLoad(new)
	var keys []string
	for key := range newBy {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		n := newBy[key]
		o, ok := oldBy[key]
		if !ok {
			added = append(added, key)
			continue
		}
		dt := delta{Name: key, Unit: "ops/s", Old: o.throughput, New: n.throughput, Gate: true}
		if o.throughput > 0 {
			dt.Pct = (o.throughput - n.throughput) / o.throughput * 100
		}
		dp := delta{Name: key, Unit: "p99us", Old: o.p99, New: n.p99}
		if o.p99 > 0 {
			dp.Pct = (n.p99 - o.p99) / o.p99 * 100
		}
		deltas = append(deltas, dt, dp)
		// Clause-cost delta only when both sides measured it: a slower
		// root evaluation gates like ns/op.
		if o.costN > 0 && n.costN > 0 {
			dc := delta{Name: key, Unit: "root-ns", Old: o.costNS, New: n.costNS, Gate: true}
			if o.costNS > 0 {
				dc.Pct = (n.costNS - o.costNS) / o.costNS * 100
			}
			deltas = append(deltas, dc)
		}
	}
	var oldKeys []string
	for key := range oldBy {
		oldKeys = append(oldKeys, key)
	}
	sort.Strings(oldKeys)
	for _, key := range oldKeys {
		if _, ok := newBy[key]; !ok {
			removed = append(removed, key)
		}
	}
	return deltas, added, removed
}

// compareCost diffs two per-clause cost tables by (perm, clause path):
// the sampled mean ns/eval of each clause, + = the clause got slower.
// Rows without a timed sample on either side are skipped — an untimed
// mean is 0, and a 0→x or x→0 "delta" is sampling noise, not a
// regression. Cost deltas gate.
func compareCost(old, new *cost.Report) (deltas []delta, added, removed []string) {
	key := func(c cost.ClauseCost) string { return c.Perm + "/" + pathLabel(c.Path) }
	oldBy := make(map[string]cost.ClauseCost, len(old.Clauses))
	for _, c := range old.Clauses {
		oldBy[key(c)] = c
	}
	seen := make(map[string]bool, len(new.Clauses))
	for _, c := range new.Clauses {
		k := key(c)
		seen[k] = true
		o, ok := oldBy[k]
		if !ok {
			added = append(added, k)
			continue
		}
		if o.SampledEvals == 0 || c.SampledEvals == 0 {
			continue
		}
		d := delta{Name: k, Unit: "ns/eval", Old: o.MeanNS, New: c.MeanNS, Gate: true}
		if o.MeanNS > 0 {
			d.Pct = (c.MeanNS - o.MeanNS) / o.MeanNS * 100
		}
		deltas = append(deltas, d)
	}
	for _, c := range old.Clauses {
		if !seen[key(c)] {
			removed = append(removed, key(c))
		}
	}
	return deltas, added, removed
}

// pathLabel renders a clause path for display; the root's empty path
// becomes "." so table columns stay aligned and keys stay non-empty.
func pathLabel(p string) string {
	if p == "" {
		return "."
	}
	return p
}

// report renders the comparison; regressions beyond thresholdPct
// become ::warning:: annotations. It returns the worst regression
// percentage among gating deltas and the total regression count.
func report(w io.Writer, deltas []delta, added, removed []string, thresholdPct float64) (worst float64, regressions int) {
	for _, d := range deltas {
		marker := " "
		if d.Gate && d.Pct > worst {
			worst = d.Pct
		}
		if d.Pct > thresholdPct {
			marker = "!"
			regressions++
			fmt.Fprintf(w, "::warning title=perf regression::%s %s %+.1f%% worse (%.6g -> %.6g), threshold %g%%\n",
				d.Name, d.Unit, d.Pct, d.Old, d.New, thresholdPct)
		}
		fmt.Fprintf(w, "%s %-54s %9s %12.6g -> %-12.6g %+7.1f%%\n",
			marker, d.Name, d.Unit, d.Old, d.New, d.Pct)
	}
	for _, n := range added {
		fmt.Fprintf(w, "+ %-60s (new entry)\n", n)
	}
	for _, n := range removed {
		fmt.Fprintf(w, "- %-60s (removed)\n", n)
	}
	fmt.Fprintf(w, "# %d compared, %d regression(s) beyond %g%%, %d added, %d removed\n",
		len(deltas), regressions, thresholdPct, len(added), len(removed))
	return worst, regressions
}

// load reads one summary file, auto-detecting the format from the
// JSON object's array: "runs" is a load summary, "bench" a bench
// summary, "clauses" a cost table.
func load(path string) (summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return summary{}, err
	}
	var probe struct {
		Schema  int             `json:"schema"`
		Host    perf.HostInfo   `json:"host"`
		Runs    []loadRun       `json:"runs"`
		Bench   []benchResult   `json:"bench"`
		Clauses json.RawMessage `json:"clauses"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return summary{}, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case probe.Runs != nil:
		return summary{host: probe.Host, runs: probe.Runs}, nil
	case probe.Bench != nil:
		return summary{host: probe.Host, bench: probe.Bench}, nil
	case probe.Clauses != nil:
		var r cost.Report
		if err := json.Unmarshal(data, &r); err != nil {
			return summary{}, fmt.Errorf("%s: %w", path, err)
		}
		return summary{cost: &r}, nil
	}
	return summary{}, fmt.Errorf("%s: JSON object without a \"runs\", \"bench\" or \"clauses\" array", path)
}

// distill parses `go test -bench` text output into bench results. A
// benchmark line looks like
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   3 allocs/op
//
// where the memory columns only appear under -benchmem; lines without
// them still contribute ns/op. The trailing -8 is GOMAXPROCS, which go
// test appends only when it exceeds 1; it is dropped, so results key
// on the benchmark alone and match baselines taken at any CPU count
// (the host fingerprint records the count).
func distill(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		b := benchResult{Name: stripProcs(fields[0])}
		matched := false
		for i := 3; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				b.NsPerOp = v
				matched = true
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		if matched {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// stripProcs drops a trailing "-<digits>" GOMAXPROCS suffix from a
// benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 || strings.Trim(name[i+1:], "0123456789") != "" {
		return name
	}
	return name[:i]
}

func runDistill(path string, w io.Writer) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	bench, err := distill(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchSummary{Host: perf.Host(), Bench: bench})
}

// reportHostMismatch warns when two summaries were captured on
// machines whose differences skew performance numbers. Summaries
// without a fingerprint (cost tables) have zero-valued hosts,
// which Diff ignores field by field.
func reportHostMismatch(w io.Writer, old, new summary) {
	for _, diff := range old.host.Diff(new.host) {
		fmt.Fprintf(w, "::warning title=host mismatch::%s — comparison may be skewed\n", diff)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 25, "warn about regressions beyond this percentage")
	failOver := fs.Float64("fail-over", 0, "exit non-zero when a regression exceeds this percentage (0 = never fail)")
	distillMode := fs.Bool("distill", false, "parse `go test -bench` output (file or \"-\" for stdin) into a bench summary JSON on stdout")
	abMode := fs.Bool("ab", false, "compare alternating `bash bench/run.sh` result lines: parent.jsonl change.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *abMode:
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: benchdiff -ab parent.jsonl change.jsonl")
		}
		return runAB(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", w)
	case *distillMode:
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: benchdiff -distill bench_output.txt|-")
		}
		return runDistill(fs.Arg(0), w)
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-threshold pct] [-fail-over pct] old.json new.json")
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	if _, err := os.Stat(oldPath); os.IsNotExist(err) {
		fmt.Fprintf(w, "# no baseline %s — nothing to compare\n", oldPath)
		return nil
	}
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	new, err := load(newPath)
	if err != nil {
		return err
	}
	if old.kind() != new.kind() {
		return fmt.Errorf("cannot compare a %s summary against a %s summary (%s vs %s)",
			old.kind(), new.kind(), oldPath, newPath)
	}
	reportHostMismatch(w, old, new)
	var deltas []delta
	var added, removed []string
	switch old.kind() {
	case "load":
		deltas, added, removed = compareLoad(old.runs, new.runs)
	case "cost":
		deltas, added, removed = compareCost(old.cost, new.cost)
	default:
		deltas, added, removed = compare(old.bench, new.bench)
	}
	worst, _ := report(w, deltas, added, removed, *threshold)
	if *failOver > 0 && worst > *failOver {
		return fmt.Errorf("worst regression %.1f%% exceeds -fail-over %g%%", worst, *failOver)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
