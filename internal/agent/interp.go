package agent

import (
	"fmt"
	"sync"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/server"
	"stac/internal/sral"
)

// branch is one execution context of an agent: parallel composition
// forks branches that share the agent (proof store, variables,
// credential) but hold their own location and subject — the cloned
// naplets of the ApplAgentProg example.
type branch struct {
	coalition *server.Coalition
	agent     *Agent
	// tc is the branch's trace context (child of the itinerary root);
	// Par clones inherit it, so forks stay within one trace.
	tc obs.TraceContext

	// loc is the server the branch currently resides at; nil subject
	// means not authenticated anywhere yet.
	loc     model.ServerID
	subject *server.Subject
	srv     *server.Server

	cancel chan struct{}
}

// moveTo migrates the branch to server s: depart from the current
// server (if any), then authenticate at the destination. Moving to
// the current location is a no-op.
func (b *branch) moveTo(s model.ServerID) error {
	if b.loc == s && b.subject != nil {
		return nil
	}
	b.leave()
	srv, err := b.coalition.Server(s)
	if err != nil {
		return err
	}
	sub, err := srv.Authenticate(b.agent.Credential)
	if err != nil {
		return fmt.Errorf("agent %s: arrival at %s: %w", b.agent.ID, s, err)
	}
	b.loc = s
	b.subject = sub
	b.srv = srv
	b.agent.recordVisit(s)
	if b.agent.Hooks.OnArrival != nil {
		b.agent.Hooks.OnArrival(s)
	}
	return nil
}

// leave departs from the current server, closing the subject.
func (b *branch) leave() {
	if b.subject == nil {
		return
	}
	if b.agent.Hooks.OnDeparture != nil {
		b.agent.Hooks.OnDeparture(b.loc)
	}
	b.srv.Depart(b.subject)
	b.subject = nil
	b.srv = nil
}

// exec interprets an SRAL program fragment in this branch.
func (b *branch) exec(n sral.Node) error {
	select {
	case <-b.cancel:
		return fmt.Errorf("agent %s: %w", b.agent.ID, ErrAborted)
	default:
	}
	if err := b.agent.chargeStep(); err != nil {
		return fmt.Errorf("agent %s: %w", b.agent.ID, err)
	}
	switch x := n.(type) {
	case sral.Skip:
		return nil

	case sral.Prim:
		if err := b.moveTo(x.Server); err != nil {
			return err
		}
		b.agent.accessMu.Lock()
		res, err := b.srv.Request(b.subject, x.Op, x.Resource, server.RequestContext{
			Program: b.agent.Program,
			Store:   b.agent.Proofs,
			Trace:   b.tc,
		})
		b.agent.accessMu.Unlock()
		if err != nil {
			return fmt.Errorf("agent %s: %s %s @ %s: %w", b.agent.ID, x.Op, x.Resource, x.Server, err)
		}
		if b.agent.Hooks.OnAccess != nil {
			b.agent.Hooks.OnAccess(res.Proof.Access, res.Data)
		}
		return nil

	case sral.Recv:
		v, err := b.coalition.Hub.Channel(x.Ch).Recv(b.cancel)
		if err != nil {
			return fmt.Errorf("agent %s: %s?%s: %w", b.agent.ID, x.Ch, x.Var, err)
		}
		b.agent.vars.Set(x.Var, v)
		return nil

	case sral.Send:
		b.coalition.Hub.Channel(x.Ch).Send(x.Expr.EvalExpr(b.agent.vars))
		return nil

	case sral.Signal:
		b.coalition.Hub.Signals().Signal(x.Sig)
		return nil

	case sral.Wait:
		if err := b.coalition.Hub.Signals().Wait(x.Sig, b.cancel); err != nil {
			return fmt.Errorf("agent %s: wait(%s): %w", b.agent.ID, x.Sig, err)
		}
		return nil

	case sral.Seq:
		if err := b.exec(x.First); err != nil {
			return err
		}
		return b.exec(x.Second)

	case sral.If:
		if x.Cond.EvalCond(b.agent.vars) {
			return b.exec(x.Then)
		}
		return b.exec(x.Else)

	case sral.While:
		for x.Cond.EvalCond(b.agent.vars) {
			if err := b.exec(x.Body); err != nil {
				return err
			}
		}
		return nil

	case sral.Par:
		// Fork a clone branch for the right side; both sides share the
		// agent but roam independently. The left side continues in
		// this branch so its final location is the branch's location.
		clone := &branch{coalition: b.coalition, agent: b.agent, cancel: b.cancel, tc: b.tc}
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
	return fmt.Errorf("agent %s: unknown construct %T", b.agent.ID, n)
}
