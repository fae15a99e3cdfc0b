package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"stac/internal/model"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/workload"
)

// sampleEvery is the traced run's sampling period: the exact inputs of
// every sampleEvery-th timed access of an agent are kept for replay. It
// is prime, so the samples rotate through every position of a hop; a
// period that divides the accesses per hop would only ever sample the
// first access after an arrival.
const sampleEvery = 17

// span is one timed interval of one request: an access or arrival as
// the agent saw it, or a layer call replayed for it. Spans of one
// request share an ID; replayed calls name the live span as parent.
type span struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	ID       string `json:"id"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// sample is the exact input of one traced access, kept for replay.
type sample struct {
	id, arrivalID string
	cred          proof.Credential
	access        model.Access
	program       string
	carried       []proof.Proof
	// fresh counts the carried proofs this session had not been sent
	// on an earlier access.
	fresh   int
	granted bool
}

// agentStats is what one agent observed during one repetition.
type agentStats struct {
	// decisionRTT and arrivalRTT hold the timed tours' round trips.
	decisionRTT []time.Duration
	arrivalRTT  []time.Duration
	// grants and denies count every tour, warm-up included.
	grants, denies int
	attempted      int
	transport      int
	rejects        int
	mismatches     int
	firstErr       error
	// bytesIn and bytesOut count the timed tours' wire traffic
	// (traced run only).
	bytesIn, bytesOut int64
	spans             []span
	samples           []sample
}

// agent is one mobile device owner driving tours in a closed loop: it
// waits for each verdict before its next step, with no think time.
type agent struct {
	id     int
	rep    int
	w      workloadSpec
	tours  []tourPlan
	warm   int
	d      *daemon
	oracle *oracle
	traced bool
	epoch  time.Time
	cfg    server.ClientConfig
	seq    int
	timed  int
	stats  agentStats
}

func newAgent(id, rep int, w workloadSpec, tours []tourPlan, d *daemon, o *oracle, traced bool, epoch time.Time) *agent {
	a := &agent{id: id, rep: rep, w: w, tours: tours, warm: max(1, len(tours)*warmupPercent/100),
		d: d, oracle: o, traced: traced, epoch: epoch}
	a.cfg = server.ClientConfig{DialTimeout: 5 * time.Second, IOTimeout: 30 * time.Second}
	if traced {
		a.cfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, in: &a.stats.bytesIn, out: &a.stats.bytesOut}, nil
		}
	}
	return a
}

// run drives every tour. After the warm-up tours it reports on warmed
// and waits for start, so all agents enter the timed window together.
func (a *agent) run(warmed *sync.WaitGroup, start <-chan struct{}) {
	var carried []proof.Proof
	for t, tp := range a.tours {
		if t == a.warm {
			warmed.Done()
			<-start
			a.stats.bytesIn, a.stats.bytesOut = 0, 0
		}
		if tp.fresh {
			carried = nil
			a.oracle.reset()
		}
		cred := a.d.creds[deviceUser(tp.device)]
		for _, h := range tp.hops {
			carried = a.hop(h, cred, tp.program, carried, t >= a.warm)
		}
	}
}

func (a *agent) nextID() string {
	a.seq++
	return fmt.Sprintf("a%d-%d", a.id, a.seq)
}

// hop is one full arrival: dial, Auth, the hop's accesses carrying the
// history, Depart, close. It returns the history carried onwards.
func (a *agent) hop(h workload.Hop, cred proof.Credential, program string, carried []proof.Proof, timed bool) []proof.Proof {
	arrivalID := a.nextID()
	a.stats.attempted++
	t0 := time.Now()
	cl, err := server.DialConfig(a.d.addrs[h.Server], a.cfg)
	if err == nil {
		if err = cl.Auth(cred); err != nil {
			_ = cl.Close()
		}
	}
	t1 := time.Now()
	if err != nil {
		a.fail(err)
		return carried
	}
	defer cl.Close()
	if timed {
		a.stats.arrivalRTT = append(a.stats.arrivalRTT, t1.Sub(t0))
		a.span(arrivalID, "arrival", "", t0, t1)
	}
	cl.ImportProofs(carried)
	seen := 0
	for _, res := range h.Resources {
		id := a.nextID()
		sent := cl.Proofs()
		want := a.oracle.expect(res)
		a.stats.attempted++
		s := time.Now()
		_, err := cl.AccessID(id, model.OpRead, res, program, nil)
		e := time.Now()
		granted := err == nil
		switch {
		case granted:
			a.stats.grants++
		case errors.Is(err, server.ErrDenied):
			a.stats.denies++
		default:
			a.fail(err)
			return cl.Proofs()
		}
		a.oracle.observe(res, granted)
		if granted != want {
			a.stats.mismatches++
		}
		if timed {
			a.stats.decisionRTT = append(a.stats.decisionRTT, e.Sub(s))
			a.span(id, "access", "", s, e)
			if a.traced && a.timed%sampleEvery == 0 {
				a.stats.samples = append(a.stats.samples, sample{
					id: id, arrivalID: arrivalID, cred: cred,
					access:  model.Access{Object: cred.Object, Op: model.OpRead, Resource: res, Server: h.Server},
					program: program, carried: sent, fresh: len(sent) - seen, granted: granted,
				})
			}
			a.timed++
		}
		seen = len(sent)
	}
	carried = cl.Proofs()
	a.stats.attempted++
	if err := cl.Depart(); err != nil {
		a.fail(err)
	}
	return carried
}

// fail counts an operation that got no decision: a transport error, or
// a request the daemon rejected before deciding.
func (a *agent) fail(err error) {
	if server.IsTransient(err) {
		a.stats.transport++
	} else {
		a.stats.rejects++
	}
	if a.stats.firstErr == nil {
		a.stats.firstErr = err
	}
}

// span records a live span in the traced run.
func (a *agent) span(id, name, parent string, start, end time.Time) {
	if !a.traced {
		return
	}
	a.stats.spans = append(a.stats.spans, span{
		Workload: a.w.name, Rep: a.rep, ID: id, Name: name, Parent: parent,
		StartNS: start.Sub(a.epoch).Nanoseconds(), EndNS: end.Sub(a.epoch).Nanoseconds(),
	})
}

// countingConn counts the bytes an agent's connection carries. Only the
// owning agent's goroutine uses it.
type countingConn struct {
	net.Conn
	in, out *int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.in += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.out += int64(n)
	return n, err
}
