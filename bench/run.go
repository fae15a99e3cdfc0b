package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stac/internal/workload"
)

// minRounds is the least number of interleaved repetition rounds in a
// set, however short its time budget.
const minRounds = 3

// config is one invocation of the benchmark.
type config struct {
	root, out string
	workloads []workloadSpec
	seed      int64
	// seconds, when positive, adds rounds until that much time per
	// workload has passed.
	seconds int
	// trace pairs every untraced repetition with a traced one.
	trace bool
	sets  int
	// scale multiplies every workload's tours; tests shrink the work
	// with it, and the recorded totals hold only at 1.
	scale float64
	// oracleCeiling, when positive, replaces every K in the oracle's
	// model (and only there).
	oracleCeiling int
}

// repResult is one repetition of one workload against a fresh stacd.
type repResult struct {
	w      workloadSpec
	set    int
	rep    int
	traced bool
	// tours is each agent's tours, warm-up included.
	tours int
	// setup is the driven stacd's time from exec to "ready".
	setup time.Duration
	// calibration is the mean of the calibrations taken before stacd
	// starts and after it has stopped.
	calibration time.Duration
	// window is the timed part: from the end of the agents' warm-up to
	// the last agent's last tour.
	window      time.Duration
	decisionRTT []time.Duration
	arrivalRTT  []time.Duration
	stacdCPU    time.Duration
	benchCPU    time.Duration
	rssMB       float64
	grants      int
	denies      int
	attempted   int
	failed      int
	// verdictErrors counts decisions that disagree with the oracle, and
	// replayed decisions that disagree with the daemon's.
	verdictErrors int
	firstErr      error
	bytesIn       int64
	bytesOut      int64
	spans         []span
	replay        *replayer
}

// runner holds what every repetition of an invocation shares.
type runner struct {
	cfg      config
	bin      string
	log      io.Writer
	epoch    time.Time
	policies map[string]workload.GeneratedPolicy
	paths    map[string]string
	plans    map[string][][]tourPlan
}

func newRunner(cfg config, log io.Writer) (*runner, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildStacd(cfg.root, cfg.out)
	if err != nil {
		return nil, err
	}
	rn := &runner{cfg: cfg, bin: bin, log: log, epoch: time.Now(),
		policies: map[string]workload.GeneratedPolicy{}, paths: map[string]string{},
		plans: map[string][][]tourPlan{}}
	for _, w := range cfg.workloads {
		gp := w.policy()
		path := filepath.Join(cfg.out, "policy-"+w.name+".stac")
		if err := os.WriteFile(path, []byte(gp.Text), 0o644); err != nil {
			return nil, err
		}
		rn.policies[w.name] = gp
		rn.paths[w.name] = path
		rn.plans[w.name] = w.plans(cfg.seed, w.toursAt(cfg.scale))
	}
	return rn, nil
}

// runAll runs every set of interleaved repetition rounds.
func (rn *runner) runAll() ([]*repResult, error) {
	var out []*repResult
	budget := time.Duration(rn.cfg.seconds*len(rn.cfg.workloads)) * time.Second
	modes := []bool{false}
	if rn.cfg.trace {
		modes = append(modes, true)
	}
	for set := 0; set < rn.cfg.sets; set++ {
		start := time.Now()
		for round := 0; round < minRounds || time.Since(start) < budget; round++ {
			for _, w := range rn.cfg.workloads {
				for _, traced := range modes {
					r, err := rn.rep(w, set, round, traced)
					if err != nil {
						return nil, fmt.Errorf("%s rep %d: %w", w.name, round, err)
					}
					rn.progress(r)
					out = append(out, r)
				}
			}
		}
	}
	return out, nil
}

func (rn *runner) progress(r *repResult) {
	mode := ""
	if r.traced {
		mode = " traced"
	}
	e := r.endToEnd()
	fmt.Fprintf(rn.log, "set %d %-9s rep %d%s: %.0f decisions/s, p50 %.3f ms, p99 %.3f ms, arrival p50 %.3f ms, setup %.1f ms, %d grants %d denies, %d failed, %d verdict errors; calibration %.1f ms\n",
		r.set+1, r.w.name, r.rep, mode, e["decisions_per_s"], e["decision_p50_ms"], e["decision_p99_ms"],
		e["arrival_p50_ms"], 1e3*e["setup_s"], r.grants, r.denies, r.failed, r.verdictErrors, ms(r.calibration))
	if r.firstErr != nil {
		fmt.Fprintf(rn.log, "  first failure: %v\n", r.firstErr)
	}
}

// rep runs one repetition: it starts a fresh stacd, drives it, and stops
// it at the end.
func (rn *runner) rep(w workloadSpec, set, rep int, traced bool) (*repResult, error) {
	calBefore := calibrate()
	d, err := startDaemon(rn.bin, daemonArgs(rn.paths[w.name]))
	if err != nil {
		return nil, err
	}
	res := &repResult{w: w, set: set, rep: rep, traced: traced, tours: len(rn.plans[w.name][0]), setup: d.setup}

	agents := make([]*agent, numAgents)
	var warmed, done sync.WaitGroup
	start := make(chan struct{})
	warmed.Add(numAgents)
	done.Add(numAgents)
	for i := range agents {
		o := newOracle(rn.policies[w.name], rn.cfg.oracleCeiling)
		agents[i] = newAgent(i, rep, w, rn.plans[w.name][i], d, o, traced, rn.epoch)
		go func(a *agent) {
			defer done.Done()
			a.run(&warmed, start)
		}(agents[i])
	}
	warmed.Wait()
	cpu0, err0 := cpuTime(d.pid())
	self0 := selfCPU()
	t0 := time.Now()
	close(start)
	done.Wait()
	res.window = time.Since(t0)
	res.benchCPU = selfCPU() - self0
	cpu1, err1 := cpuTime(d.pid())
	rss, err2 := peakRSSMB(d.pid())
	if err := errors.Join(err0, err1, err2, d.stop()); err != nil {
		return nil, err
	}
	res.stacdCPU = cpu1 - cpu0
	res.rssMB = rss
	res.calibration = (calBefore + calibrate()) / 2

	var samples []sample
	for _, a := range agents {
		s := &a.stats
		res.decisionRTT = append(res.decisionRTT, s.decisionRTT...)
		res.arrivalRTT = append(res.arrivalRTT, s.arrivalRTT...)
		res.grants += s.grants
		res.denies += s.denies
		res.attempted += s.attempted
		res.failed += s.transport + s.rejects + s.mismatches
		res.verdictErrors += s.mismatches
		res.bytesIn += s.bytesIn
		res.bytesOut += s.bytesOut
		res.spans = append(res.spans, s.spans...)
		samples = append(samples, s.samples...)
		if res.firstErr == nil {
			res.firstErr = s.firstErr
		}
	}
	if !traced {
		return res, nil
	}
	// The daemon is stopped, so the replay has the host to itself.
	rp, err := newReplayer(w, rep, rn.policies[w.name].Text, rn.epoch)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if err := rp.replay(s); err != nil {
			return nil, err
		}
	}
	res.replay = rp
	res.verdictErrors += rp.disagreements
	res.failed += rp.disagreements
	res.spans = append(res.spans, rp.spans...)
	return res, nil
}

// scale is the factor that takes a time measured in this repetition to
// the reference host speed (see calibrate.go).
func (r *repResult) scale() float64 {
	return float64(refCalibration) / float64(r.calibration)
}

// endToEnd computes one repetition's end-to-end metrics, every time
// taken to the reference host speed.
func (r *repResult) endToEnd() map[string]float64 {
	n := float64(len(r.decisionRTT))
	f := r.scale()
	return map[string]float64{
		"setup_s":                   f * r.setup.Seconds(),
		"decisions_per_s":           ratio(n, f*r.window.Seconds()),
		"decision_p50_ms":           f * ms(percentile(r.decisionRTT, 0.50)),
		"decision_p99_ms":           f * ms(percentile(r.decisionRTT, 0.99)),
		"arrival_p50_ms":            f * ms(percentile(r.arrivalRTT, 0.50)),
		"stacd_cpu_us_per_decision": f * ratio(float64(r.stacdCPU.Nanoseconds())/1e3, n),
		"stacd_peak_rss_mb":         r.rssMB,
	}
}
