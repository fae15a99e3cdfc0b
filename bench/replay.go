package main

import (
	"encoding/json"
	"fmt"
	"time"

	"stac/internal/core"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/rbac"
	"stac/internal/srac"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/trace"
)

// Layer names of the replay, in the daemon's order. The access path is
// codec → parse → verify → authorize (lookup → static → prefix inside)
// → issue; the arrival path is credential → arrival, and depart ends
// the session.
const (
	layerCodec      = "server.wire.codec"
	layerVerify     = "proof.verify"
	layerParse      = "sral.parse"
	layerLookup     = "rbac.lookup"
	layerStatic     = "srac.static"
	layerPrefix     = "srac.prefix"
	layerAuthorize  = "core.authorize"
	layerIssue      = "proof.issue"
	layerCredential = "proof.credential"
	layerArrival    = "core.arrival"
	layerDepart     = "core.depart"
)

// replayer re-runs sampled accesses in this process through each
// layer's public function and times every call. Its engine is set up
// like stacd's defaults: sampled tracing, coverage and cost profiling.
type replayer struct {
	workload string
	rep      int
	epoch    time.Time
	eng      *core.Engine
	signer   *proof.Signer
	tracer   *obs.Tracer

	us       map[string][]float64
	accesses int
	// counts behind the per-layer ratios
	verified, fresh, entries, scanned, programBytes int
	programs                                        map[string]struct{}
	statics                                         map[string]struct{}
	disagreements                                   int
	spans                                           []span
}

func newReplayer(w workloadSpec, rep int, policy string, epoch time.Time) (*replayer, error) {
	eng := core.NewEngine(temporal.NewRealClock())
	if err := core.LoadPolicyString(eng, policy); err != nil {
		return nil, fmt.Errorf("replay policy: %w", err)
	}
	tracer := obs.NewTracer(0)
	eng.SetTracer(tracer)
	eng.EnableCoverage()
	eng.EnableCostProfiling()
	return &replayer{
		workload: w.name, rep: rep, epoch: epoch, eng: eng, tracer: tracer,
		signer:   proof.NewSigner([]byte(coalitionKey)),
		us:       map[string][]float64{},
		programs: map[string]struct{}{},
		statics:  map[string]struct{}{},
	}, nil
}

// timed runs fn as one call of a layer and records its duration and a
// child span under the request's live span.
func (r *replayer) timed(layer, id, parent string, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	r.us[layer] = append(r.us[layer], float64(end.Sub(start).Nanoseconds())/1e3)
	r.spans = append(r.spans, span{
		Workload: r.workload, Rep: r.rep, ID: id, Name: layer, Parent: parent,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
}

// replay re-runs one sampled access: its arrival, the access itself and
// the departure. A verdict that differs from the daemon's is counted.
func (r *replayer) replay(s sample) error {
	obj := s.access.Object
	var err error
	r.timed(layerCredential, s.arrivalID, "arrival", func() { err = r.signer.VerifyCredential(s.cred) })
	if err != nil {
		return fmt.Errorf("replay credential: %w", err)
	}
	var sess *rbac.Session
	r.timed(layerArrival, s.arrivalID, "arrival", func() {
		if sess, err = r.eng.RBAC.CreateSession(rbac.UserID(obj)); err != nil {
			return
		}
		for _, role := range s.cred.Roles {
			if err = sess.ActivateRole(rbac.RoleID(role)); err != nil {
				return
			}
		}
		r.eng.ObjectArrived(obj, s.access.Server)
		r.eng.ActivatePermissions(sess, obj)
	})
	if err != nil {
		return fmt.Errorf("replay arrival: %w", err)
	}

	var carried []proof.Proof
	r.timed(layerCodec, s.id, "access", func() {
		var b []byte
		if b, err = json.Marshal(s.carried); err == nil {
			err = json.Unmarshal(b, &carried)
		}
	})
	if err != nil {
		return fmt.Errorf("replay codec: %w", err)
	}

	var prog sral.Node
	if s.program != "" {
		r.timed(layerParse, s.id, "access", func() { prog, err = sral.Parse(s.program) })
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		r.programBytes += len(s.program)
		r.programs[s.program] = struct{}{}
	}

	store := proof.NewStore(r.signer)
	r.timed(layerVerify, s.id, "access", func() {
		seen := make(map[string]struct{}, len(carried))
		for _, p := range carried {
			if _, dup := seen[p.Sig]; dup {
				continue
			}
			seen[p.Sig] = struct{}{}
			if err = store.Add(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replay verify: %w", err)
	}
	r.verified += store.Len()
	r.fresh += s.fresh

	var perm rbac.Permission
	var ok bool
	r.timed(layerLookup, s.id, "access", func() { perm, ok = sess.PermissionFor(s.access) })
	if !ok {
		return fmt.Errorf("replay lookup: no permission covers %s", s.access)
	}
	r.scanned += len(sess.Permissions())

	history := trace.Trace(store.Trace())
	if ps, err := r.eng.Spec(perm.ID); err == nil && ps.Spatial != nil {
		stamped := srac.StampObject(ps.Spatial, obj)
		if prog != nil && !srac.MentionsOtherObject(stamped, obj) {
			r.timed(layerStatic, s.id, "access", func() { srac.CheckProgram(prog, stamped, obj) })
			r.statics[string(perm.ID)+"\x00"+s.program] = struct{}{}
		}
		hyp := history.Concat(trace.Trace{s.access})
		oracle := srac.HypotheticalOracle(store, s.access)
		r.timed(layerPrefix, s.id, "access", func() { srac.EvalPrefix(hyp, stamped, oracle) })
		r.entries += len(hyp)
	}

	var dec core.Decision
	req := core.Request{Session: sess, Access: s.access, Program: prog, History: history, Proofs: store}
	r.timed(layerAuthorize, s.id, "access", func() { dec = r.eng.AuthorizeTraced(r.tracer.NewContext(), req) })
	if dec.Granted != s.granted {
		r.disagreements++
	}
	if dec.Granted {
		r.timed(layerIssue, s.id, "access", func() { r.signer.Issue(s.access, r.eng.Clock().Now()) })
	}
	r.accesses++

	r.timed(layerDepart, s.arrivalID, "arrival", func() {
		r.eng.DeactivatePermissions(sess, obj)
		sess.Close()
	})
	return nil
}
