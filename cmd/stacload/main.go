// Command stacload is the scenario-matrix load harness: it drives
// many concurrent roaming itineraries over real TCP against the
// coordinated STAC engine and, through one worker loop, against the
// plain-RBAC / TRBAC / GTRBAC comparison systems of
// internal/baseline — scenario files × systems × trials.
//
// Usage:
//
//	stacload -scenarios scenarios -systems stac,rbac,trbac,gtrbac \
//	         -trials 1 -out LOAD.json
//
// Each scenario file (JSON, see cmd/stacload/scenario.go and the
// committed scenarios/ directory) fixes a traffic shape: fleet churn,
// itinerary length, carried proof history, policy size and constraint
// flavour, injected network faults, hostile clients. For every
// selected system the harness boots the target fresh — the STAC
// coalition behind one stacd-grade TCP daemon per server plus its
// /debug/snapshot endpoint, baselines behind the internal/baseline
// harness shim — runs the workers for the scenario's time box, and
// aggregates p50/p95/p99 latency, throughput, grant/deny/reject/error
// breakdowns and peak goroutine/heap samples into a LOAD.json summary
// that cmd/benchdiff diffs against the committed baseline of the same
// name.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"stac/internal/obs/perf"
	"stac/internal/workload"
)

// cliOptions is the parsed command line.
type cliOptions struct {
	scenariosDir string
	systems      []string
	only         string
	trials       int
	durationCap  time.Duration
	out          string
	verbose      bool
}

// knownSystems is the full matrix column set.
var knownSystems = []string{"stac", "rbac", "trbac", "gtrbac"}

func parseSystems(csv string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		ok := false
		for _, k := range knownSystems {
			if s == k {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("stacload: unknown system %q (want %s)", s, strings.Join(knownSystems, "|"))
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("stacload: no systems selected")
	}
	return out, nil
}

// runCell executes one (scenario, system, trial) cell: boot, load,
// sample, aggregate, tear down.
func runCell(sc Scenario, sysName string, trial int, durationCap time.Duration) (RunResult, error) {
	gp := workload.GeneratePolicy(sc.policySpec())
	sys, err := bootSystem(sysName, sc, gp)
	if err != nil {
		return RunResult{}, fmt.Errorf("%s/%s: %w", sc.Name, sysName, err)
	}
	defer sys.close()

	box := time.Duration(sc.DurationMS) * time.Millisecond
	if durationCap > 0 && box > durationCap {
		box = durationCap
	}
	ctx, cancel := context.WithTimeout(context.Background(), box)
	defer cancel()

	// The sampler scrapes goroutine/heap peaks while the load runs.
	var peakMu sync.Mutex
	peakG, peakHeap := 0, uint64(0)
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				g, h := sys.sample()
				peakMu.Lock()
				if g > peakG {
					peakG = g
				}
				if h > peakHeap {
					peakHeap = h
				}
				peakMu.Unlock()
			}
		}
	}()

	stats := make([]workerStats, sc.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(ctx, sys, sc, w, &stats[w])
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cancel()
	<-samplerDone

	peakMu.Lock()
	g, h := peakG, peakHeap
	peakMu.Unlock()
	r := aggregate(sc.Name, sysName, trial, elapsed, stats, g, h)
	r.Perf = sys.perfReport()
	return r, nil
}

// runMatrix runs the full scenario × system × trial matrix and
// returns the summary. Progress lines go to w when verbose.
func runMatrix(opts cliOptions, w io.Writer) (Summary, error) {
	all, err := loadScenarios(opts.scenariosDir)
	if err != nil {
		return Summary{}, err
	}
	scenarios, err := filterScenarios(all, opts.only)
	if err != nil {
		return Summary{}, err
	}
	if opts.trials < 1 {
		opts.trials = 1
	}
	sum := Summary{
		Schema: LoadSchemaVersion,
		Host:   perf.Host(),
		Note: fmt.Sprintf("stacload: %d scenario(s) x %d system(s) x %d trial(s)",
			len(scenarios), len(opts.systems), opts.trials),
	}
	for _, sc := range scenarios {
		for _, sysName := range opts.systems {
			for trial := 0; trial < opts.trials; trial++ {
				if opts.verbose {
					fmt.Fprintf(w, "# running %s/%s trial %d...\n", sc.Name, sysName, trial)
				}
				r, err := runCell(sc, sysName, trial, opts.durationCap)
				if err != nil {
					return Summary{}, err
				}
				sum.Runs = append(sum.Runs, r)
			}
		}
	}
	return sum, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stacload", flag.ContinueOnError)
	var opts cliOptions
	var systemsCSV string
	fs.StringVar(&opts.scenariosDir, "scenarios", "scenarios", "directory of scenario *.json files")
	fs.StringVar(&systemsCSV, "systems", strings.Join(knownSystems, ","), "comma-separated target systems")
	fs.StringVar(&opts.only, "only", "", "run only these scenario names (comma-separated)")
	fs.IntVar(&opts.trials, "trials", 1, "trials per (scenario, system) cell")
	fs.DurationVar(&opts.durationCap, "duration-cap", 0, "cap each trial's time box (0 = scenario value); use for CI smoke runs")
	fs.StringVar(&opts.out, "out", "", "write the LOAD summary JSON here (empty = stdout only)")
	fs.BoolVar(&opts.verbose, "v", false, "print progress per matrix cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	systems, err := parseSystems(systemsCSV)
	if err != nil {
		return err
	}
	opts.systems = systems

	sum, err := runMatrix(opts, stdout)
	if err != nil {
		return err
	}
	renderTable(stdout, sum.Runs)
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if opts.out != "" {
		if err := os.WriteFile(opts.out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# summary written to %s\n", opts.out)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stacload:", err)
		os.Exit(1)
	}
}
