package main

// Offline flight-recorder verbs. `stacctl replay` feeds a recorded
// decision stream (stacd -record-wal) back through a fresh engine and
// verifies every verdict reproduces — the determinism oracle.
// `stacctl diff` re-runs the same stream against a CANDIDATE policy
// and reports every verdict flip with the SRAC clause responsible —
// rehearsing a policy change against yesterday's traffic before
// deploying it.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"stac/internal/core"
	"stac/internal/obs/cost"
	"stac/internal/obs/record"
)

// readWAL loads a flight-recorder WAL file ("-" for stdin).
func readWAL(path string) ([]record.Record, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	recs, err := record.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// cmdReplay verifies a recorded stream reproduces deterministically.
//
//	stacctl replay -wal decisions.wal -policy policy.stac
//	stacctl replay -wal decisions.wal -policy policy.stac -coverage
//
// Exits non-zero when any verdict fails to reproduce under the SAME
// policy (digest-checked), so CI can gate on it.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	walPath := fs.String("wal", "", "flight-recorder WAL file (stacd -record-wal); - for stdin")
	policyArg := fs.String("policy", "", "policy the stream was recorded under (text or file)")
	coverage := fs.Bool("coverage", false, "print the replay's SRAC clause coverage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walPath == "" || *policyArg == "" {
		return fmt.Errorf("replay: -wal and -policy are required")
	}
	recs, err := readWAL(*walPath)
	if err != nil {
		return err
	}
	res, err := core.Replay(textArg(*policyArg), recs, core.ReplayOptions{Coverage: *coverage})
	if err != nil {
		return err
	}

	fmt.Printf("replayed %d records, %d decisions\n", len(recs), res.Decisions)
	if res.PolicyMismatch {
		fmt.Printf("WARNING: policy digest mismatch (recorded %.12s..., replayed %.12s...) — divergences below are expected\n",
			res.RecordedDigest, res.ReplayDigest)
	}
	for _, d := range res.Divergences {
		fmt.Printf("DIVERGED seq=%d %s %s: recorded %s, replayed %s\n",
			d.Seq, d.Access, d.Field, d.Recorded, d.Replayed)
	}
	if *coverage {
		printCoverage(res.Coverage)
	}
	if res.Deterministic() {
		fmt.Println("deterministic: every verdict reproduced")
		return nil
	}
	if res.PolicyMismatch {
		fmt.Println("not comparable: policy differs from the recorded one (use `stacctl diff` to compare policies)")
		return nil
	}
	return fmt.Errorf("replay: %d divergence(s)", len(res.Divergences))
}

// cmdDiff shadow-diffs a candidate policy against a recorded stream.
//
//	stacctl diff -wal decisions.wal -policy candidate.stac
//	stacctl diff -wal decisions.wal -policy candidate.stac -coverage
func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	walPath := fs.String("wal", "", "flight-recorder WAL file (stacd -record-wal); - for stdin")
	policyArg := fs.String("policy", "", "CANDIDATE policy to evaluate the stream against (text or file)")
	coverage := fs.Bool("coverage", false, "print the candidate policy's clause coverage over the stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walPath == "" || *policyArg == "" {
		return fmt.Errorf("diff: -wal and -policy are required")
	}
	recs, err := readWAL(*walPath)
	if err != nil {
		return err
	}
	rep, err := core.ShadowDiff(textArg(*policyArg), recs, core.ReplayOptions{Coverage: *coverage})
	if err != nil {
		return err
	}

	fmt.Printf("diffed %d decisions against candidate %.12s... (recorded under %.12s...)\n",
		rep.Decisions, rep.CandidateDigest, rep.RecordedDigest)
	for _, f := range rep.Flips {
		dir := "DENY->GRANT"
		if f.RecordedGranted {
			dir = "GRANT->DENY"
		}
		line := fmt.Sprintf("FLIP seq=%d t=%g %s %s", f.Seq, f.Time, f.Access, dir)
		if f.Clause != "" {
			line += fmt.Sprintf(" clause=%q", f.Clause)
		}
		if f.Detail != "" {
			line += " " + f.Detail
		} else if f.Reason != "" {
			line += " " + f.Reason
		}
		fmt.Println(line)
	}
	if *coverage {
		printCoverage(rep.Coverage)
	}
	if len(rep.Flips) == 0 {
		fmt.Println("no verdict changes: the candidate policy decides this traffic identically")
	} else {
		fmt.Printf("%d of %d verdicts flip under the candidate policy\n", len(rep.Flips), rep.Decisions)
	}
	return nil
}

// printCoverage renders the coverage columns of the per-clause rows,
// flagging dead (never decisive) clauses.
func printCoverage(cov []cost.ClauseCost) {
	if len(cov) == 0 {
		fmt.Println("no clause coverage recorded")
		return
	}
	fmt.Printf("\n%-12s %-6s %9s %9s %9s %9s %9s  %s\n",
		"PERM", "PATH", "EVAL", "SAT", "VIOL", "PEND", "DECISIVE", "CLAUSE")
	for _, c := range cov {
		path := c.Path
		if path == "" {
			path = "."
		}
		mark := ""
		if c.Decisive == 0 {
			mark = "  [dead]"
		}
		fmt.Printf("%-12s %-6s %9d %9d %9d %9d %9d  %s%s\n",
			c.Perm, path, c.Evals, c.Satisfied, c.Violated, c.Pending, c.Decisive, c.Clause, mark)
	}
}
