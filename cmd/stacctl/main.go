// Command stacctl is the policy and constraint tool of the coalition
// access control suite.
//
// Subcommands:
//
//	stacctl parse-program  '<SRAL text>'       # validate & pretty-print
//	stacctl parse-constraint '<SRAC text>'     # validate & normalise
//	stacctl check -object o1 -constraint C P   # static check P ⊨ C
//	stacctl check-trace -constraint C trace    # evaluate an executed trace
//	stacctl explain -object o1 -constraint C P # per-subformula verdicts
//	stacctl explain -addr host:port <decision-id>
//	                                           # explain a recorded decision
//	                                           # via a daemon's /debug/explain
//	stacctl explain -wal decisions.wal <decision-id>
//	                                           # same, reading stacd's WAL
//	stacctl trace -addr host:port [<trace-id>] # list traces / render one
//	stacctl trace -file run.json [<trace-id>]  # render an exported trace
//	stacctl traces -max 20 P                   # enumerate traces(P)
//	stacctl synth '<regular model>'            # Theorem 3.1 synthesis
//	stacctl policy [-dump] policy.stac         # validate / re-emit a policy
//	stacctl simulate -policy P -object o1 -roles r1,r2 '<SRAL>'
//	                                           # dry-run a program against
//	                                           # a policy and print the
//	                                           # decision trail
//	stacctl top -members m1=host:port,m2=...   # live merged fleet table
//	                                           # (incl. per-member shard
//	                                           # imbalance & SLO burn)
//	stacctl heat -members m1=host:port,...     # coalition policy heat
//	                                           # map: clauses ranked by
//	                                           # cost × decisive
//	                                           # (needs -cost daemons)
//	stacctl slow -addr host:port               # slowest retained decision
//	                                           # exemplars, resolved via
//	                                           # /debug/explain
//	stacctl watch -members m1=host:port,...    # stream decisions as they
//	                                           # happen (filter -object,
//	                                           # -perm, -verdict, -server;
//	                                           # -flips for shadow flips;
//	                                           # reconnects on restarts)
//	stacctl timeline -members m1=host:port,... # merge every member's
//	                                           # decision journal into one
//	                                           # HLC-ordered causal stream,
//	                                           # flag causality violations
//	                                           # and clock skew
//	stacctl replay -wal w.jsonl -policy P      # verify a recorded stream
//	                                           # replays deterministically
//	stacctl diff -wal w.jsonl -policy C        # verdict flips the candidate
//	                                           # policy C would cause
//
// Program and policy arguments may be file paths (tried first) or
// literal text.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/server"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stacctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: stacctl <parse-program|parse-constraint|check|explain|traces|synth|policy|simulate|top|heat|slow|watch|timeline|replay|diff> ...")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "parse-program":
		return cmdParseProgram(rest)
	case "parse-constraint":
		return cmdParseConstraint(rest)
	case "check":
		return cmdCheck(rest, false)
	case "check-trace":
		return cmdCheckTrace(rest)
	case "explain":
		// Two modes share the name: -addr/-wal explain one recorded
		// runtime decision; otherwise it is the legacy static
		// per-subformula program check.
		if explainWantsDecision(rest) {
			return cmdExplainDecision(rest)
		}
		return cmdCheck(rest, true)
	case "trace":
		return cmdTrace(rest)
	case "traces":
		return cmdTraces(rest)
	case "synth":
		return cmdSynth(rest)
	case "policy":
		return cmdPolicy(rest)
	case "simulate":
		return cmdSimulate(rest)
	case "top":
		return cmdTop(rest)
	case "heat":
		return cmdHeat(rest)
	case "slow":
		return cmdSlow(rest)
	case "watch":
		return cmdWatch(rest)
	case "timeline":
		return cmdTimeline(rest)
	case "replay":
		return cmdReplay(rest)
	case "diff":
		return cmdDiff(rest)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// cmdCheckTrace evaluates a constraint against an executed trace: one
// access per line, "op resource @ server" with an optional
// "object:" prefix. The output reports both Definition 3.6
// satisfaction and the prefix (enforcement) status.
func cmdCheckTrace(args []string) error {
	fs := flag.NewFlagSet("check-trace", flag.ContinueOnError)
	consSrc := fs.String("constraint", "", "SRAC constraint (text or file)")
	obj := fs.String("object", "", "stamp the constraint for this mobile object")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *consSrc == "" {
		return fmt.Errorf("check-trace: -constraint is required")
	}
	traceSrc, err := oneArg(fs.Args(), "trace")
	if err != nil {
		return err
	}
	c, err := srac.Parse(textArg(*consSrc))
	if err != nil {
		return fmt.Errorf("constraint: %w", err)
	}
	if *obj != "" {
		c = srac.StampObject(c, model.ObjectID(*obj))
	}
	var tr trace.Trace
	for lineNo, line := range strings.Split(traceSrc, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := parseAccessLine(line)
		if err != nil {
			return fmt.Errorf("trace line %d: %w", lineNo+1, err)
		}
		tr = append(tr, a)
	}
	sat := srac.SatisfiesTrace(tr, c, nil)
	status := srac.EvalPrefix(tr, c, nil)
	fmt.Printf("trace: %d accesses\n", len(tr))
	fmt.Printf("satisfied (Def 3.6): %v\n", sat)
	fmt.Printf("prefix status:       %s\n", status)
	return nil
}

// parseAccessLine parses "[object:] op resource @ server".
func parseAccessLine(line string) (model.Access, error) {
	var a model.Access
	if head, rest, ok := strings.Cut(line, ":"); ok {
		a.Object = model.ObjectID(strings.TrimSpace(head))
		line = strings.TrimSpace(rest)
	}
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[2] != "@" {
		return a, fmt.Errorf("want \"op resource @ server\", got %q", line)
	}
	a.Op = model.Operation(fields[0])
	a.Resource = model.ResourceID(fields[1])
	a.Server = model.ServerID(fields[3])
	return a, nil
}

// textArg resolves an argument that may be a file path or literal text.
func textArg(arg string) string {
	if data, err := os.ReadFile(arg); err == nil {
		return string(data)
	}
	return arg
}

func oneArg(args []string, what string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("expected exactly one %s argument", what)
	}
	return textArg(args[0]), nil
}

func cmdParseProgram(args []string) error {
	fs := flag.NewFlagSet("parse-program", flag.ContinueOnError)
	simplify := fs.Bool("simplify", false, "normalise the program (trace-model preserving)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := oneArg(fs.Args(), "program")
	if err != nil {
		return err
	}
	p, err := sral.Parse(src)
	if err != nil {
		return err
	}
	if *simplify {
		p = sral.Simplify(p)
	}
	stats := sral.Stats(p)
	fmt.Println(sral.Pretty(p))
	fmt.Printf("# size=%d servers=%v accesses=%d infinite-traces=%v\n",
		p.Size(), sral.Servers(p), len(sral.Accesses(p)), stats.Infinite)
	return nil
}

func cmdParseConstraint(args []string) error {
	fs := flag.NewFlagSet("parse-constraint", flag.ContinueOnError)
	simplify := fs.Bool("simplify", false, "apply propositional simplification")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := oneArg(fs.Args(), "constraint")
	if err != nil {
		return err
	}
	c, err := srac.Parse(src)
	if err != nil {
		return err
	}
	if *simplify {
		c = srac.Simplify(c)
	}
	fmt.Println(srac.String(c))
	fmt.Printf("# size=%d atoms=%d\n", c.Size(), len(srac.Atoms(c)))
	return nil
}

func cmdCheck(args []string, explain bool) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	obj := fs.String("object", "", "mobile object the program runs as")
	consSrc := fs.String("constraint", "", "SRAC constraint (text or file)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *consSrc == "" {
		return fmt.Errorf("check: -constraint is required")
	}
	progSrc, err := oneArg(fs.Args(), "program")
	if err != nil {
		return err
	}
	p, err := sral.Parse(progSrc)
	if err != nil {
		return fmt.Errorf("program: %w", err)
	}
	c, err := srac.Parse(textArg(*consSrc))
	if err != nil {
		return fmt.Errorf("constraint: %w", err)
	}
	stamped := srac.StampObject(c, model.ObjectID(*obj))
	if explain {
		fmt.Print(srac.Explain(p, stamped, model.ObjectID(*obj)))
		return nil
	}
	v := srac.CheckProgram(p, stamped, model.ObjectID(*obj))
	fmt.Println(v)
	switch v {
	case srac.AllTraces:
		fmt.Println("# every trace of the program satisfies the constraint")
	case srac.NoTrace:
		fmt.Println("# no trace of the program can satisfy the constraint")
	default:
		fmt.Println("# satisfaction depends on the execution path (or the checker was conservative)")
	}
	return nil
}

func cmdTraces(args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	maxTraces := fs.Int("max", 20, "maximum traces to enumerate")
	loopReps := fs.Int("loop-reps", 3, "loop unrolling bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	progSrc, err := oneArg(fs.Args(), "program")
	if err != nil {
		return err
	}
	p, err := sral.Parse(progSrc)
	if err != nil {
		return err
	}
	set, exact := sral.Traces(p, sral.TraceOptions{MaxTraces: *maxTraces, MaxLoopReps: *loopReps})
	for _, tr := range set.Traces() {
		fmt.Println(tr)
	}
	if !exact {
		fmt.Printf("# bounded enumeration: %d traces shown, trace model is larger (possibly infinite)\n", set.Len())
	} else {
		fmt.Printf("# %d traces (exact)\n", set.Len())
	}
	return nil
}

func cmdSynth(args []string) error {
	src, err := oneArg(args, "regular model")
	if err != nil {
		return err
	}
	m, err := sral.ParseRegular(src)
	if err != nil {
		return err
	}
	p := sral.Synthesize(m)
	fmt.Println(sral.String(p))
	fmt.Printf("# traces(P) = %s (Theorem 3.1)\n", m.String())
	return nil
}

func cmdPolicy(args []string) error {
	fs := flag.NewFlagSet("policy", flag.ContinueOnError)
	dump := fs.Bool("dump", false, "re-emit the normalised policy text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := oneArg(fs.Args(), "policy")
	if err != nil {
		return err
	}
	e := core.NewEngine(temporal.NewSimClock(0))
	if err := core.LoadPolicy(e, strings.NewReader(src)); err != nil {
		return err
	}
	if *dump {
		fmt.Print(core.DumpPolicy(e))
		return nil
	}
	users, roles, perms, _ := e.RBAC.Stats()
	fmt.Printf("policy OK: %d users, %d roles, %d permissions\n", users, roles, perms)
	for _, r := range e.RBAC.Roles() {
		ps := e.RBAC.RolePermissions(r)
		names := make([]string, len(ps))
		for i, p := range ps {
			names[i] = string(p.ID)
		}
		fmt.Printf("  role %-16s -> %s\n", r, strings.Join(names, ", "))
	}
	return nil
}

// cmdSimulate dry-runs an SRAL program against a policy: it builds an
// in-process coalition containing every server the program names,
// hosts every resource the program touches, launches the agent with
// the requested roles and prints each server's decision trail. Useful
// for vetting a policy change before deploying it to stacd.
func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	policyArg := fs.String("policy", "", "coalition policy (text or file)")
	objectArg := fs.String("object", "sim-object", "mobile object id (must be a policy user)")
	rolesArg := fs.String("roles", "", "comma-separated roles to activate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyArg == "" {
		return fmt.Errorf("simulate: -policy is required")
	}
	progSrc, err := oneArg(fs.Args(), "program")
	if err != nil {
		return err
	}
	prog, err := sral.Parse(progSrc)
	if err != nil {
		return fmt.Errorf("program: %w", err)
	}

	clk := temporal.NewSimClock(0)
	coalition := server.NewCoalition(clk, []byte("stacctl-simulate"))
	if err := core.LoadPolicyString(coalition.Engine, textArg(*policyArg)); err != nil {
		return err
	}
	// Host every server and resource the program names.
	for _, s := range sral.Servers(prog) {
		if _, err := coalition.AddServer(s); err != nil {
			return err
		}
	}
	for _, a := range sral.Accesses(prog) {
		srv, err := coalition.Server(a.Server)
		if err != nil {
			return err
		}
		srv.HostResource(a.Resource, []byte("simulated content of "+string(a.Resource)))
	}

	var roles []string
	for _, r := range strings.Split(*rolesArg, ",") {
		if r = strings.TrimSpace(r); r != "" {
			roles = append(roles, r)
		}
	}
	cred := coalition.Signer.IssueCredential(model.ObjectID(*objectArg), "stacctl@local", roles)
	ag := agent.New(model.ObjectID(*objectArg), cred, prog, coalition.Signer)
	ag.MaxSteps = 100000
	runErr := agent.Launch(coalition, ag)

	fmt.Printf("program:  %s\n", sral.String(prog))
	fmt.Printf("object:   %s (roles %s)\n", *objectArg, strings.Join(roles, ", "))
	fmt.Println("decision trail:")
	for _, s := range coalition.Servers() {
		records, _ := s.Audit()
		for _, r := range records {
			fmt.Println("  " + r.String())
		}
	}
	fmt.Printf("proofs collected: %d, servers visited: %v\n", ag.Proofs.Len(), ag.Visited())
	if runErr != nil {
		fmt.Printf("run ended with: %v\n", runErr)
	} else {
		fmt.Println("run completed successfully")
	}
	return nil
}
