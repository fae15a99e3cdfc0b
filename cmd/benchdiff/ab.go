package main

// -ab: a same-host A/B of the repository benchmark. Each input file
// holds the result lines of alternating `bash bench/run.sh` runs, one
// run per line (the final JSON line of its output), parent runs in one
// file and change runs in the other; line i of each is pair i. Per
// end-to-end metric the report gives each side's median and quartiles,
// the pairs the change won, and a verdict:
//
//   - gain: the change won at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in the better
//     direction, by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - better: every change run beat every parent run;
//   - unresolved: the parent's own spread (IQR over median) is wider
//     than the bound, so "unchanged" cannot be told apart from noise;
//   - within bound: otherwise.
//
// The metrics, their directions and their bounds are the end-to-end
// metrics of BENCHMARK.json in the working directory; a result metric
// is matched by its name after any "<workload>/" prefix, and metrics
// BENCHMARK.json does not list (the per-layer ones of a traced run)
// are left out.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchRun is one result line of the repository benchmark.
type benchRun struct {
	Correct   bool    `json:"correct"`
	Attempted float64 `json:"attempted"`
	Failed    float64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadRuns reads every benchmark result line of a file, in order.
func loadRuns(path string) ([]benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []benchRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r benchRun
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Metrics == nil {
			continue
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines", path)
	}
	return runs, nil
}

// loadSpecs reads the end-to-end metrics of a BENCHMARK.json.
func loadSpecs(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	specs := make(map[string]metricSpec, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		specs[m.Name] = m
	}
	return specs, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		h := p * float64(len(s)-1)
		lo := int(math.Floor(h))
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// abRow is one metric's comparison.
type abRow struct {
	Metric, Unit, Better       string
	P1, PMed, P3, C1, CMed, C3 float64
	Won, Pairs                 int
	Verdict                    string
}

// compareAB pairs parent run i with change run i and compares every
// metric both sides report.
func compareAB(parent, change []benchRun, specs map[string]metricSpec) []abRow {
	pairs := min(len(parent), len(change))
	var names []string
	for name := range parent[0].Metrics {
		_, both := change[0].Metrics[name]
		if _, ok := specs[name[strings.LastIndex(name, "/")+1:]]; ok && both {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var rows []abRow
	for _, name := range names {
		spec := specs[name[strings.LastIndex(name, "/")+1:]]
		sign := 1.0 // positive when larger is better
		if spec.Better != "higher" {
			sign = -1
		}
		var pv, cv []float64
		row := abRow{Metric: name, Unit: parent[0].Metrics[name].Unit, Better: spec.Better}
		for i := 0; i < pairs; i++ {
			p, pok := parent[i].Metrics[name]
			c, cok := change[i].Metrics[name]
			if !pok || !cok {
				continue
			}
			pv, cv = append(pv, p.Value), append(cv, c.Value)
			row.Pairs++
			if sign*(c.Value-p.Value) > 0 {
				row.Won++
			}
		}
		if row.Pairs == 0 {
			continue
		}
		row.P1, row.PMed, row.P3 = quartiles(pv)
		row.C1, row.CMed, row.C3 = quartiles(cv)
		row.Verdict = verdict(row, pv, cv, sign, spec.Bound)
		rows = append(rows, row)
	}
	return rows
}

// verdict applies the gain rule, then the bound.
func verdict(r abRow, pv, cv []float64, sign, bound float64) string {
	iqr := r.P3 - r.P1
	gain := sign * (r.CMed - r.PMed)
	switch {
	case 10*r.Won >= 9*r.Pairs && gain > iqr:
		return "gain"
	case bound > 0 && r.PMed != 0 && -gain/math.Abs(r.PMed) > bound:
		return "worse"
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case bound > 0 && r.PMed != 0 && iqr/math.Abs(r.PMed) > bound:
		return "unresolved"
	}
	return "within bound"
}

// runAB prints the A/B report of two result files.
func runAB(parentPath, changePath, specPath string, w io.Writer) error {
	parent, err := loadRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := loadRuns(changePath)
	if err != nil {
		return err
	}
	specs, err := loadSpecs(specPath)
	if err != nil {
		return err
	}
	if len(parent) != len(change) {
		fmt.Fprintf(w, "# %d parent runs, %d change runs: comparing the first %d pairs\n",
			len(parent), len(change), min(len(parent), len(change)))
	}
	for _, side := range []struct {
		name string
		runs []benchRun
	}{{"parent", parent}, {"change", change}} {
		var correct int
		var failed, attempted float64
		for _, r := range side.runs {
			if r.Correct {
				correct++
			}
			failed += r.Failed
			attempted += r.Attempted
		}
		fmt.Fprintf(w, "# %s: %d runs, %d correct, %.0f of %.0f operations failed\n",
			side.name, len(side.runs), correct, failed, attempted)
	}
	fmt.Fprintf(w, "%-36s %-6s %-7s %-34s %-34s %8s %6s  %s\n",
		"METRIC", "UNIT", "BETTER", "PARENT MED [Q1, Q3]", "CHANGE MED [Q1, Q3]", "DELTA", "WON", "VERDICT")
	for _, r := range compareAB(parent, change, specs) {
		delta := math.NaN()
		if r.PMed != 0 {
			delta = 100 * (r.CMed - r.PMed) / math.Abs(r.PMed)
		}
		fmt.Fprintf(w, "%-36s %-6s %-7s %-34s %-34s %+7.1f%% %6s  %s\n",
			r.Metric, r.Unit, r.Better,
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.PMed, r.P1, r.P3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", r.CMed, r.C1, r.C3),
			delta, fmt.Sprintf("%d/%d", r.Won, r.Pairs), r.Verdict)
	}
	return nil
}
