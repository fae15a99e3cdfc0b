package main

import (
	"fmt"
	"math"
	"math/rand"

	"stac/internal/model"
	"stac/internal/sral"
	"stac/internal/workload"
)

// Every workload runs against the same coalition shape: three servers,
// each hosting the same eight resources, visited by two agents.
const (
	numServers   = 3
	numResources = 8
	numAgents    = 2
	// programPool is how many distinct programs each agent of a
	// program-declaring workload cycles through, one per tour.
	programPool = 8
	// warmupPercent of each agent's tours, and at least one, are checked
	// but not timed.
	warmupPercent = 5
)

// workloadSpec fixes one workload: the policy stacd loads and the tours
// the agents drive. The work is a set number of tours, not a time box,
// because stacd's memory grows with the decisions it serves.
type workloadSpec struct {
	name string
	// devices is the number of registered users, one credential each.
	devices int
	// roaming gives every tour the next device in turn, so each arrival
	// is a newcomer's; otherwise agent i always carries device i.
	roaming bool
	hops    int
	perHop  int
	// cycle is the number of tours an agent keeps its carried proofs
	// for before it starts a fresh history.
	cycle  int
	perms  int
	flavor string
	// ceiling is K of the count(0,K,sigma[r=fN]) clauses.
	ceiling   int
	durationS float64
	// programSize, when positive, makes every access declare a seeded
	// SRAL program of about that many constructs.
	programSize int
	// tours is each agent's work per repetition at scale 1. It is sized
	// so a repetition takes about a second on a quiet host, within which
	// the host's speed holds, and times at least 1,000 decisions, which
	// leaves 10 samples beyond the p99 of every repetition.
	tours int
}

// workloads are the benchmark's workloads, in the order they run.
var workloads = []workloadSpec{
	// Arrivals and departures dominate; history and policy are tiny.
	{name: "roam", devices: 4096, roaming: true, hops: 3, perHop: 2, cycle: 1,
		perms: 8, flavor: workload.FlavorCount, ceiling: 1000, tours: 400},
	// Long carried histories with deterministic ceiling denials.
	{name: "longtour", devices: 2, hops: 6, perHop: 8, cycle: 6,
		perms: 8, flavor: workload.FlavorCount, ceiling: 32, tours: 12},
	// A 512-permission policy and a declared program on every access.
	{name: "bigpolicy", devices: 2, hops: 3, perHop: 4, cycle: 1,
		perms: 512, flavor: workload.FlavorMixed, ceiling: 1000, durationS: 3600,
		programSize: 256, tours: 48},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func vocabulary() workload.Vocabulary {
	return workload.DefaultVocabulary(numServers, numResources)
}

func (w workloadSpec) policy() workload.GeneratedPolicy {
	return workload.GeneratePolicy(workload.PolicySpec{
		Workers:     w.devices,
		Servers:     numServers,
		Resources:   numResources,
		Permissions: w.perms,
		Flavor:      w.flavor,
		CountMax:    w.ceiling,
		DurationS:   w.durationS,
	})
}

// toursAt scales each agent's tours, keeping at least two: a warm-up
// tour and a timed one.
func (w workloadSpec) toursAt(scale float64) int {
	return max(2, int(math.Round(float64(w.tours)*scale)))
}

// tourPlan is one tour of one agent: the device it carries, the hops it
// makes, and whether it starts with an empty carried history.
type tourPlan struct {
	device  int
	hops    []workload.Hop
	program string
	fresh   bool
}

// plans derives each agent's tours from the seed alone.
func (w workloadSpec) plans(seed int64, tours int) [][]tourPlan {
	v := vocabulary()
	programs := w.programs(seed)
	out := make([][]tourPlan, numAgents)
	for a := range out {
		out[a] = make([]tourPlan, tours)
		for t := range out[a] {
			g := t*numAgents + a
			tp := tourPlan{
				device: a,
				hops:   workload.WorkerPlan(seed, g, v, w.hops, w.perHop).Hops,
				fresh:  t%w.cycle == 0,
			}
			if w.roaming {
				tp.device = g % w.devices
			}
			if programs != nil {
				tp.program = programs[a*programPool+t%programPool]
			}
			out[a][t] = tp
		}
	}
	return out
}

// programs renders each agent's pool of declared programs, or nil when
// the workload declares none.
func (w workloadSpec) programs(seed int64) []string {
	if w.programSize == 0 {
		return nil
	}
	v := vocabulary()
	out := make([]string, numAgents*programPool)
	for i := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		p := workload.Program(r, v, workload.ProgramOptions{
			Size: w.programSize, LoopFraction: 0.1, ParFraction: 0.2,
		})
		out[i] = sral.String(p)
	}
	return out
}

func deviceUser(device int) string { return fmt.Sprintf("w%d", device) }

// oracle is the benchmark's own model of the count ceilings: an access
// is granted iff the grants on its resource in the current carried
// cycle are still below that resource's K.
type oracle struct {
	ceilings map[model.ResourceID]int
	granted  map[model.ResourceID]int
}

// newOracle models the ceilings of a generated policy. A positive
// override replaces every K, which a test uses to show that a wrong
// model is caught.
func newOracle(gp workload.GeneratedPolicy, override int) *oracle {
	o := &oracle{ceilings: map[model.ResourceID]int{}, granted: map[model.ResourceID]int{}}
	for _, d := range gp.Cover {
		if d.CountMax > 0 {
			o.ceilings[d.Resource] = d.CountMax
			if override > 0 {
				o.ceilings[d.Resource] = override
			}
		}
	}
	return o
}

func (o *oracle) reset() { clear(o.granted) }

func (o *oracle) expect(r model.ResourceID) bool {
	k, ok := o.ceilings[r]
	return !ok || o.granted[r] < k
}

func (o *oracle) observe(r model.ResourceID, granted bool) {
	if granted {
		o.granted[r]++
	}
}
