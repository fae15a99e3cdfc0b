package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	name, unit string
	value      float64
}

// endToEndUnits lists the end-to-end metrics in report order.
var endToEndUnits = []struct{ name, unit string }{
	{"decisions_per_s", "1/s"},
	{"decision_p50_ms", "ms"},
	{"decision_p99_ms", "ms"},
	{"arrival_p50_ms", "ms"},
	{"stacd_cpu_us_per_decision", "us"},
	{"stacd_peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// summary is one workload's repetitions: untraced ones give the
// end-to-end metrics, traced ones the per-layer metrics.
type summary struct {
	w             workloadSpec
	plain, traced []*repResult
}

// summarize groups the repetitions of w; set < 0 takes every set.
func summarize(rs []*repResult, w workloadSpec, set int) summary {
	s := summary{w: w}
	for _, r := range rs {
		if r.w.name != w.name || (set >= 0 && r.set != set) {
			continue
		}
		if r.traced {
			s.traced = append(s.traced, r)
		} else {
			s.plain = append(s.plain, r)
		}
	}
	return s
}

func (s summary) all() []*repResult {
	return append(append([]*repResult(nil), s.plain...), s.traced...)
}

// values collects each end-to-end metric's value per untraced
// repetition.
func (s summary) values() map[string][]float64 {
	per := map[string][]float64{}
	for _, r := range s.plain {
		for k, v := range r.endToEnd() {
			per[k] = append(per[k], v)
		}
	}
	return per
}

// endToEnd reports each end-to-end metric: the latency percentiles over
// every untraced repetition's round trips pooled, each taken to the
// reference host speed; the other metrics as the median of the
// repetitions' values.
func (s summary) endToEnd() []metric {
	per := s.values()
	var decisions, arrivals []time.Duration
	for _, r := range s.plain {
		decisions = append(decisions, scaled(r.decisionRTT, r.scale())...)
		arrivals = append(arrivals, scaled(r.arrivalRTT, r.scale())...)
	}
	pooled := map[string]float64{
		"decision_p50_ms": ms(percentile(decisions, 0.50)),
		"decision_p99_ms": ms(percentile(decisions, 0.99)),
		"arrival_p50_ms":  ms(percentile(arrivals, 0.50)),
	}
	out := make([]metric, len(endToEndUnits))
	for i, m := range endToEndUnits {
		v, ok := pooled[m.name]
		if !ok {
			v = median(per[m.name])
		}
		out[i] = metric{name: m.name, unit: m.unit, value: v}
	}
	return out
}

// calibration is the median of the untraced repetitions' calibrations.
func (s summary) calibration() time.Duration {
	var cs []float64
	for _, r := range s.plain {
		cs = append(cs, float64(r.calibration))
	}
	return time.Duration(median(cs))
}

// counts sums operation outcomes over the repetitions.
func (s summary) counts() (attempted, failed, verdictErrors int) {
	for _, r := range s.all() {
		attempted += r.attempted
		failed += r.failed
		verdictErrors += r.verdictErrors
	}
	return
}

// pool merges the traced repetitions' live observations and replays.
type pool struct {
	us                                                  map[string][]float64
	accesses, verified, fresh, entries, scanned, pbytes int
	distinctPrograms, distinctStatics                   int
	decisions, arrivals                                 int
	bytesIn, bytesOut                                   int64
	rtt, arrivalRTT                                     []float64
}

func (s summary) pool() pool {
	p := pool{us: map[string][]float64{}}
	for _, r := range s.traced {
		p.decisions += len(r.decisionRTT)
		p.arrivals += len(r.arrivalRTT)
		p.bytesIn += r.bytesIn
		p.bytesOut += r.bytesOut
		p.rtt = append(p.rtt, micros(r.decisionRTT)...)
		p.arrivalRTT = append(p.arrivalRTT, micros(r.arrivalRTT)...)
		rp := r.replay
		for k, v := range rp.us {
			p.us[k] = append(p.us[k], v...)
		}
		p.accesses += rp.accesses
		p.verified += rp.verified
		p.fresh += rp.fresh
		p.entries += rp.entries
		p.scanned += rp.scanned
		p.pbytes += rp.programBytes
		p.distinctPrograms += len(rp.programs)
		p.distinctStatics += len(rp.statics)
	}
	return p
}

// calls is a layer's replayed calls per decision.
func (p pool) calls(layer string) float64 {
	if isArrivalLayer(layer) {
		return ratio(float64(p.arrivals), float64(p.decisions))
	}
	return ratio(float64(len(p.us[layer])), float64(p.accesses))
}

func isArrivalLayer(layer string) bool {
	return layer == layerCredential || layer == layerArrival || layer == layerDepart
}

// perDecision is a layer's mean cost per decision in µs.
func (p pool) perDecision(layer string) float64 { return p.calls(layer) * mean(p.us[layer]) }

// residue is the mean access round trip less every replayed layer of
// the access path: what the replays do not account for.
func (p pool) residue() float64 {
	sum := 0.0
	for _, l := range []string{layerCodec, layerParse, layerVerify, layerAuthorize, layerIssue} {
		sum += p.perDecision(l)
	}
	return mean(p.rtt) - sum
}

// authorizeOther is Authorize less the lookup, static and prefix
// layers it contains, per decision.
func (p pool) authorizeOther() float64 {
	return p.perDecision(layerAuthorize) - p.perDecision(layerLookup) -
		p.perDecision(layerStatic) - p.perDecision(layerPrefix)
}

// perLayer reports the per-layer metrics of the traced repetitions,
// plus process CPU shares and tracing overhead from both kinds.
func (s summary) perLayer() []metric {
	p := s.pool()
	us := func(l string) float64 { return mean(p.us[l]) }
	dec := float64(p.decisions)
	parses := float64(len(p.us[layerParse]))
	statics := float64(len(p.us[layerStatic]))
	prefixes := float64(len(p.us[layerPrefix]))
	acc := float64(p.accesses)
	var plainDPS, tracedDPS, stacdShare, benchShare []float64
	for _, r := range s.plain {
		plainDPS = append(plainDPS, r.endToEnd()["decisions_per_s"])
		capacity := r.window.Seconds() * float64(runtime.NumCPU())
		stacdShare = append(stacdShare, ratio(r.stacdCPU.Seconds(), capacity))
		benchShare = append(benchShare, ratio(r.benchCPU.Seconds(), capacity))
	}
	for _, r := range s.traced {
		tracedDPS = append(tracedDPS, r.endToEnd()["decisions_per_s"])
	}
	return []metric{
		{"server.wire.bytes_out_per_decision", "bytes", ratio(float64(p.bytesOut), dec)},
		{"server.wire.bytes_in_per_decision", "bytes", ratio(float64(p.bytesIn), dec)},
		{"server.wire.codec_us", "us", us(layerCodec)},
		{"proof.verify_us", "us", us(layerVerify)},
		{"proof.verified_per_decision", "count", ratio(float64(p.verified), acc)},
		{"proof.verify_useful_ratio", "ratio", ratio(float64(p.fresh), float64(p.verified))},
		{"proof.issue_us", "us", us(layerIssue)},
		{"proof.credential_us", "us", us(layerCredential)},
		{"sral.parse_us", "us", us(layerParse)},
		{"sral.program_bytes", "bytes", ratio(float64(p.pbytes), parses)},
		{"sral.parse_useful_ratio", "ratio", ratio(float64(p.distinctPrograms), parses)},
		{"rbac.lookup_us", "us", us(layerLookup)},
		{"rbac.perms_scanned", "count", ratio(float64(p.scanned), acc)},
		{"srac.static_us", "us", us(layerStatic)},
		{"srac.static_useful_ratio", "ratio", ratio(float64(p.distinctStatics), statics)},
		{"srac.prefix_us", "us", us(layerPrefix)},
		{"srac.prefix_entries", "count", ratio(float64(p.entries), prefixes)},
		{"core.authorize_us", "us", us(layerAuthorize)},
		{"core.authorize_other_us", "us", p.authorizeOther()},
		{"core.arrival_us", "us", us(layerArrival)},
		{"core.depart_us", "us", us(layerDepart)},
		{"server.residue_us", "us", p.residue()},
		{"server.residue_share", "ratio", ratio(p.residue(), mean(p.rtt))},
		{"stacd.cpu_share", "ratio", median(stacdShare)},
		{"bench.cpu_share", "ratio", median(benchShare)},
		{"trace.overhead", "ratio", 1 - ratio(median(tracedDPS), median(plainDPS))},
	}
}

// printSummary writes a workload's end-to-end table.
func printSummary(out io.Writer, s summary) {
	attempted, failed, verdictErrors := s.counts()
	per := s.values()
	first := s.plain[0]
	n := len(first.decisionRTT) * len(s.plain)
	fmt.Fprintf(out, "\n%s: %d repetitions × %d agents × %d tours, %d grants + %d denies each; %d timed decisions (%d beyond p99)\n",
		s.w.name, len(s.plain), numAgents, first.tours, first.grants, first.denies, n, n-1-rank(n, 0.99))
	fmt.Fprintf(out, "calibration median %.1f ms, reference %.0f ms: timings below are at the reference speed\n",
		ms(s.calibration()), ms(refCalibration))
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tvalue\trep min\trep max")
	for _, m := range s.endToEnd() {
		lo, hi := minMax(per[m.name])
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\n", m.name, m.unit, m.value, lo, hi)
	}
	fmt.Fprintf(tw, "failed_ratio\tratio\t%.4g\t\t\n", ratio(float64(failed), float64(attempted)))
	fmt.Fprintf(tw, "verdict_errors\tcount\t%d\t\t\n", verdictErrors)
	_ = tw.Flush()
}

func minMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// printLayers writes a workload's layer table from its traced run.
func printLayers(out io.Writer, s summary) {
	p := s.pool()
	rtt, arr := mean(p.rtt), mean(p.arrivalRTT)
	fmt.Fprintf(out, "\n%s layers: %d replayed accesses of %d timed; mean access RTT %.1f µs, mean arrival RTT %.1f µs\n",
		s.w.name, p.accesses, p.decisions, rtt, arr)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tcalls/decision\tmean µs\tp50 µs\tshare\tof")
	row := func(name, layer string, of float64, ofName string) {
		c := p.calls(layer)
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.2f\t%.1f%%\t%s\n", name, c, mean(p.us[layer]),
			median(p.us[layer]), 100*ratio(c*mean(p.us[layer]), of), ofName)
	}
	row(layerCodec, layerCodec, rtt, "access RTT")
	row(layerParse, layerParse, rtt, "access RTT")
	row(layerVerify, layerVerify, rtt, "access RTT")
	row(layerAuthorize, layerAuthorize, rtt, "access RTT")
	row("  "+layerLookup, layerLookup, rtt, "access RTT")
	row("  "+layerStatic, layerStatic, rtt, "access RTT")
	row("  "+layerPrefix, layerPrefix, rtt, "access RTT")
	fmt.Fprintf(tw, "  other\t\t\t\t%.1f%%\taccess RTT\n", 100*ratio(p.authorizeOther(), rtt))
	row(layerIssue, layerIssue, rtt, "access RTT")
	fmt.Fprintf(tw, "residue\t\t%.2f\t\t%.1f%%\taccess RTT\n", p.residue(), 100*ratio(p.residue(), rtt))
	// Arrival layers run once per arrival: their base is the arrival
	// round trip per decision.
	row(layerCredential, layerCredential, arr*p.calls(layerCredential), "arrival RTT")
	row(layerArrival, layerArrival, arr*p.calls(layerArrival), "arrival RTT")
	fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.2f\t\t\n", layerDepart, p.calls(layerDepart),
		mean(p.us[layerDepart]), median(p.us[layerDepart]))
	_ = tw.Flush()
	for _, m := range s.perLayer() {
		if m.name == "stacd.cpu_share" || m.name == "bench.cpu_share" || m.name == "trace.overhead" {
			fmt.Fprintf(out, "%s = %.4f\n", m.name, m.value)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// printSets compares the first two sets' medians against each metric's
// bound in BENCHMARK.json.
func printSets(out io.Writer, rs []*repResult, ws []workloadSpec, bf benchmarkFile) {
	fmt.Fprintln(out, "\nrepeatability: set 2 against set 1")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tchange\tbound\t")
	for _, w := range ws {
		a, b := summarize(rs, w, 0).endToEnd(), summarize(rs, w, 1).endToEnd()
		for i, m := range a {
			bound := math.NaN()
			for _, e := range bf.EndToEnd {
				if e.Name == m.name {
					bound = e.Bound
				}
			}
			change := ratio(b[i].value-m.value, m.value)
			verdict := "ok"
			if math.Abs(change) > bound {
				verdict = "OVER"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n", w.name, m.name, m.value, b[i].value,
				100*change, 100*bound, verdict)
		}
	}
	_ = tw.Flush()
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
