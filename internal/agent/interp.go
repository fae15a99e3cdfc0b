package agent

import (
	"fmt"
	"sync"

	"stac/internal/channel"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/sral"
)

// site places an execution branch in the coalition. It is the one part
// of the interpreter that differs between the runtimes: a session on an
// in-process *server.Server (localSite) or a connection to a daemon
// (tcpSite, remote.go).
type site interface {
	// arrive authenticates at server s. The branch is not resident
	// anywhere when it is called.
	arrive(s model.ServerID) error
	// depart closes the session at the current server.
	depart()
	// access decides one access at the current server on a carried
	// history brought up to the agent's store, and returns the result
	// data and the issued proof. The caller holds the agent's accessMu.
	access(x sral.Prim) ([]byte, proof.Proof, error)
	// fork returns an unplaced site of the same runtime for a Par
	// clone; the interpreter moves it to its parent's server.
	fork() site
}

// branch is one execution context of an agent: parallel composition
// forks branches that share the agent (proof store, variables,
// credential) but hold their own location and site — the cloned
// naplets of the ApplAgentProg example.
type branch struct {
	agent *Agent
	// hub carries the program's channels and signals.
	hub  *channel.Hub
	site site
	// loc is the server the branch resides at; empty when it is not
	// resident anywhere.
	loc model.ServerID
}

// launch is the body of both runtimes' LaunchTraced: it validates the
// program, opens the itinerary span, places the root branch (built by
// place under the itinerary's trace context) at its start, runs the
// program, departs and finishes the agent.
func launch(ag *Agent, tr *obs.Tracer, tc obs.TraceContext, hub *channel.Hub, place func(obs.TraceContext) site) error {
	if ag.Program == nil {
		ag.finish(ErrNoProgram)
		return ErrNoProgram
	}
	if err := sral.Validate(ag.Program); err != nil {
		ag.finish(err)
		return err
	}
	// The itinerary root span parents every hop and access, across
	// every server the agent visits.
	sp, btc := tr.StartSpan(tc, "itinerary")
	sp.SetService("agent")
	sp.SetAttr("agent", string(ag.ID))
	b := &branch{agent: ag, hub: hub, site: place(btc)}
	// Establish the starting location.
	start := ag.Home
	if start == "" {
		if servers := sral.Servers(ag.Program); len(servers) > 0 {
			start = servers[0]
		}
	}
	var err error
	if start != "" {
		err = b.moveTo(start)
	}
	if err == nil {
		err = b.exec(ag.Program)
	}
	b.leave()
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.Finish()
	ag.finish(err)
	return err
}

// moveTo migrates the branch to server s: depart from the current
// server (if any), then arrive at the destination. Moving to the
// current location is a no-op.
func (b *branch) moveTo(s model.ServerID) error {
	if b.loc == s {
		return nil
	}
	b.leave()
	if err := b.site.arrive(s); err != nil {
		return err
	}
	b.loc = s
	b.agent.recordVisit(s)
	if b.agent.Hooks.OnArrival != nil {
		b.agent.Hooks.OnArrival(s)
	}
	return nil
}

// leave departs from the current server.
func (b *branch) leave() {
	if b.loc == "" {
		return
	}
	if b.agent.Hooks.OnDeparture != nil {
		b.agent.Hooks.OnDeparture(b.loc)
	}
	b.site.depart()
	b.loc = ""
}

// access performs one shared-resource access at the branch's server.
// Branches decide one at a time: a decision reads the carried history
// and its grant extends it, so two branches deciding at once would
// both count the same history and could jointly overshoot a count
// ceiling.
func (b *branch) access(x sral.Prim) error {
	ag := b.agent
	ag.accessMu.Lock()
	n := ag.Proofs.Len()
	data, pr, err := b.site.access(x)
	// An in-process server issues straight into the agent's store;
	// every other proof is added here, once.
	if err == nil && ag.Proofs.Len() == n {
		if aerr := ag.Proofs.Add(pr); aerr != nil {
			err = fmt.Errorf("proof rejected: %w", aerr)
		}
	}
	ag.accessMu.Unlock()
	if err != nil {
		return fmt.Errorf("agent %s: %s %s @ %s: %w", ag.ID, x.Op, x.Resource, x.Server, err)
	}
	if ag.Hooks.OnAccess != nil {
		ag.Hooks.OnAccess(pr.Access, data)
	}
	return nil
}

// exec interprets an SRAL program fragment in this branch.
func (b *branch) exec(n sral.Node) error {
	ag := b.agent
	select {
	case <-ag.abort:
		return fmt.Errorf("agent %s: %w", ag.ID, ErrAborted)
	default:
	}
	if err := ag.chargeStep(); err != nil {
		return fmt.Errorf("agent %s: %w", ag.ID, err)
	}
	switch x := n.(type) {
	case sral.Skip:
		return nil

	case sral.Prim:
		if err := b.moveTo(x.Server); err != nil {
			return err
		}
		return b.access(x)

	case sral.Recv:
		v, err := b.hub.Channel(x.Ch).Recv(ag.abort)
		if err != nil {
			return fmt.Errorf("agent %s: %s?%s: %w", ag.ID, x.Ch, x.Var, err)
		}
		ag.vars.Set(x.Var, v)
		return nil

	case sral.Send:
		b.hub.Channel(x.Ch).Send(x.Expr.EvalExpr(ag.vars))
		return nil

	case sral.Signal:
		b.hub.Signals().Signal(x.Sig)
		return nil

	case sral.Wait:
		if err := b.hub.Signals().Wait(x.Sig, ag.abort); err != nil {
			return fmt.Errorf("agent %s: wait(%s): %w", ag.ID, x.Sig, err)
		}
		return nil

	case sral.Seq:
		if err := b.exec(x.First); err != nil {
			return err
		}
		return b.exec(x.Second)

	case sral.If:
		if x.Cond.EvalCond(ag.vars) {
			return b.exec(x.Then)
		}
		return b.exec(x.Else)

	case sral.While:
		for x.Cond.EvalCond(ag.vars) {
			if err := b.exec(x.Body); err != nil {
				return err
			}
		}
		return nil

	case sral.Par:
		// Fork a clone branch for the right side; both sides share the
		// agent but roam independently. The left side continues in
		// this branch so its final location is the branch's location.
		clone := &branch{agent: ag, hub: b.hub, site: b.site.fork()}
		// The clone starts co-located with its parent; snapshot the
		// location before forking, since the parent keeps roaming.
		origin := b.loc
		var wg sync.WaitGroup
		var rightErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			if origin != "" {
				if err := clone.moveTo(origin); err != nil {
					rightErr = err
					return
				}
			}
			rightErr = clone.exec(x.Right)
			clone.leave()
		}()
		leftErr := b.exec(x.Left)
		wg.Wait()
		if leftErr != nil {
			return leftErr
		}
		return rightErr

	case nil:
		return nil
	}
	return fmt.Errorf("agent %s: unknown construct %T", ag.ID, n)
}

// localSite places a branch on an in-process coalition server. The
// agent's store is the carried history itself: the server reads it
// and issues each granted access's proof straight into it.
type localSite struct {
	coalition *server.Coalition
	agent     *Agent
	// tc is the itinerary's trace context; the server's request spans
	// parent directly on it.
	tc obs.TraceContext

	srv     *server.Server
	subject *server.Subject
}

func (s *localSite) arrive(id model.ServerID) error {
	srv, err := s.coalition.Server(id)
	if err != nil {
		return err
	}
	sub, err := srv.Authenticate(s.agent.Credential)
	if err != nil {
		return fmt.Errorf("agent %s: arrival at %s: %w", s.agent.ID, id, err)
	}
	s.srv, s.subject = srv, sub
	return nil
}

func (s *localSite) depart() {
	s.srv.Depart(s.subject)
	s.srv, s.subject = nil, nil
}

func (s *localSite) access(x sral.Prim) ([]byte, proof.Proof, error) {
	res, err := s.srv.Request(s.subject, x.Op, x.Resource, server.RequestContext{
		Program: s.agent.Program,
		Store:   s.agent.Proofs,
		Trace:   s.tc,
	})
	return res.Data, res.Proof, err
}

func (s *localSite) fork() site {
	return &localSite{coalition: s.coalition, agent: s.agent, tc: s.tc}
}
