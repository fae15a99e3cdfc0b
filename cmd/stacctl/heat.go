package main

// `stacctl heat` — the coalition policy heat map. Polls each member's
// /debug/snapshot (the v5 cost section), merges the per-clause
// evaluation-cost profiles fleet-wide, and ranks clauses by
// cost × decisiveness: sampled evaluation time weighted by how often
// the clause actually decided a verdict. The top of the table names
// the clauses an SRAC compilation pass should target first — hot AND
// load-bearing — while a hot but never-decisive clause is pure waste
// and is called out as such.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"stac/internal/obs/federate"
)

func cmdHeat(args []string) error {
	fs := flag.NewFlagSet("heat", flag.ContinueOnError)
	membersArg := fs.String("members", "", "comma-separated member list, name=host:port of each daemon's metrics listener")
	top := fs.Int("top", 12, "clause rows to show")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	iterations := fs.Int("n", 1, "number of refreshes; 0 = until interrupted")
	share := fs.Float64("share", 0.5, "flag a clause consuming more than this fraction of fleet evaluation time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	members, err := parseMembers(*membersArg)
	if err != nil {
		return fmt.Errorf("heat: %w", err)
	}
	p := federate.NewPoller(members, federate.Config{CostShareThreshold: *share})
	return runHeat(os.Stdout, p, *top, *interval, *iterations, *iterations != 1)
}

func runHeat(w io.Writer, p *federate.Poller, top int, interval time.Duration, iterations int, clearScreen bool) error {
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		view := p.Poll(context.Background())
		if clearScreen {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		renderHeat(w, view, top)
	}
	return nil
}

// heatScore ranks a clause for compilation: its sampled evaluation
// time weighted by the fraction of its evaluations that were
// decisive. Ties (and all-zero timings on very short runs) fall back
// to raw sampled time, then cumulative leaf work.
func heatScore(r federate.CostRollup) float64 {
	if r.Evals == 0 {
		return 0
	}
	return float64(r.SampledNS) * float64(r.Decisive) / float64(r.Evals)
}

func renderHeat(w io.Writer, v federate.FleetView, top int) {
	g := v.Global
	fmt.Fprintf(w, "fleet: %d/%d members up — %d decisions, %d clause(s) costed\n",
		g.Members, g.Members+g.Unreachable+g.Skipped, g.Decisions, len(v.Cost))
	if len(v.Cost) == 0 {
		fmt.Fprintln(w, "no cost profiles: run the daemons with -cost (or EnableCostProfiling)")
		return
	}

	ranked := append([]federate.CostRollup(nil), v.Cost...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := heatScore(ranked[i]), heatScore(ranked[j])
		if si != sj {
			return si > sj
		}
		if ranked[i].SampledNS != ranked[j].SampledNS {
			return ranked[i].SampledNS > ranked[j].SampledNS
		}
		return ranked[i].Atoms > ranked[j].Atoms
	})
	if top > 0 && len(ranked) > top {
		ranked = ranked[:top]
	}
	fmt.Fprintf(w, "\ncompile targets (cost × decisive, hottest first):\n")
	fmt.Fprintf(w, "%4s %-16s %-6s %7s %10s %10s %10s %8s  %s\n",
		"RANK", "PERM", "PATH", "SHARE%", "MEAN-NS", "EVALS", "DECISIVE", "ATOMS", "CLAUSE")
	for i, r := range ranked {
		path := r.Path
		if path == "" {
			path = "."
		}
		clause := r.Clause
		if len(clause) > 48 {
			clause = clause[:45] + "..."
		}
		fmt.Fprintf(w, "%4d %-16s %-6s %7.1f %10.0f %10d %10d %8d  %s\n",
			i+1, r.Perm, path, 100*r.Share, r.MeanNS, r.Evals, r.Decisive, r.Atoms, clause)
	}

	for _, a := range v.Anomalies {
		if a.Kind == "clause-cost-share" {
			fmt.Fprintf(w, "\nHOT: %s — %s\n", a.Subject, a.Detail)
		}
	}
}
