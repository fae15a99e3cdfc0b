// Command bench is the repository's benchmark. It builds ./cmd/stacd,
// starts it as a child process with its default flags, and drives it
// over TCP from two closed-loop mobile agents on three workloads: roam,
// longtour and bigpolicy (see README.md). Every verdict is checked
// against the benchmark's own model of the policy's count ceilings.
// The last line of standard output is one JSON object with the result.
//
// Run it from the repository root:
//
//	bash bench/run.sh                             # every workload, 30 s each
//	bash bench/run.sh -workload longtour -trace 1 # per-layer replay trace
//	bash bench/run.sh -sets 2                     # repeatability self-check
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"stac/internal/obs/perf"
)

// defaultSeed is the seed expectedTotals are recorded at.
const defaultSeed = 1

// expectedTotals are each workload's grants and denies per repetition
// at the default seed. Every such run must reproduce them.
var expectedTotals = map[string][2]int{
	"roam":      {4800, 0},
	"longtour":  {990, 162},
	"bigpolicy": {1152, 0},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	res, err := execute(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// parseFlags reads the command line. The program runs from the
// repository root and writes under .bench_build there, as run.sh sets up.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{root: ".", out: ".bench_build", scale: 1}
	var names string
	var trace int
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all)")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of the tour plans and declared programs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "add rounds until this many seconds per workload have passed")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	fs.IntVar(&cfg.sets, "sets", 1, "full sets of rounds; 2 or more compares set 2 with set 1 against each bound")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	case cfg.sets < 1 || cfg.seconds < 0:
		return cfg, fmt.Errorf("-sets must be positive and -seconds not negative")
	}
	cfg.trace = trace == 1
	if names == "" {
		cfg.workloads = workloads
	} else {
		for _, n := range strings.Split(names, ",") {
			w, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return cfg, fmt.Errorf("unknown workload %q", n)
			}
			cfg.workloads = append(cfg.workloads, w)
		}
	}
	return cfg, nil
}

// execute runs the benchmark and prints its tables, then the result as
// the last output line. On error it prints no result.
func execute(cfg config, stdout, stderr io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var bf benchmarkFile
	if cfg.sets > 1 {
		var err error
		if bf, err = readBenchmarkFile(cfg.root); err != nil {
			return res, err
		}
	}
	rn, err := newRunner(cfg, stderr)
	if err != nil {
		return res, err
	}
	rs, err := rn.runAll()
	if err != nil {
		return res, err
	}
	h := perf.Host()
	fmt.Fprintf(stdout, "host: %s, %d CPUs, GOMAXPROCS %d, %s %s/%s; seed %d\n",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, cfg.seed)
	var spans []span
	for _, w := range cfg.workloads {
		s := summarize(rs, w, -1)
		printSummary(stdout, s)
		if cfg.trace {
			printLayers(stdout, s)
		}
		attempted, failed, verdictErrors := s.counts()
		verdictErrors += checkTotals(cfg, s, stderr)
		res.Attempted += attempted
		res.Failed += failed
		res.Correct = res.Correct && verdictErrors == 0
		prefix := ""
		if len(cfg.workloads) > 1 {
			prefix = w.name + "/"
		}
		metrics := s.endToEnd()
		if cfg.trace {
			metrics = s.perLayer()
		}
		for _, m := range metrics {
			res.Metrics[prefix+m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
		for _, r := range s.traced {
			spans = append(spans, r.spans...)
		}
	}
	if cfg.sets > 1 {
		printSets(stdout, rs, cfg.workloads, bf)
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, "spans.json")
		b, err := json.Marshal(spans)
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return res, err
		}
		fmt.Fprintf(stdout, "\n%d spans written to %s\n", len(spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

// checkTotals counts the repetitions whose grant and deny totals differ
// from the recorded ones; it only applies at the default seed and work.
func checkTotals(cfg config, s summary, log io.Writer) int {
	want, ok := expectedTotals[s.w.name]
	if !ok || cfg.seed != defaultSeed || cfg.scale != 1 || cfg.oracleCeiling != 0 {
		return 0
	}
	bad := 0
	for _, r := range s.all() {
		if r.grants != want[0] || r.denies != want[1] {
			fmt.Fprintf(log, "%s rep %d: %d grants + %d denies, recorded %d + %d\n",
				s.w.name, r.rep, r.grants, r.denies, want[0], want[1])
			bad++
		}
	}
	return bad
}
