package server

import (
	"sync"

	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
)

// handoffCapacity bounds the verified logs a coalition keeps parked. A
// log waits only for its object's next arrival, one hop away; past the
// bound the oldest parked log goes first.
const handoffCapacity = 64

// parkedLog is a departed session's verified carried history, waiting
// for the object's next arrival at any member daemon of the coalition.
type parkedLog struct {
	log  *proof.Store
	sigs map[string]struct{}
}

// handoff carries verified histories across hops: a departing session
// parks its resident log under its object, and the object's next
// authentication takes it, so the proofs one member daemon verified
// are not verified again by the next. A log moves, it is never shared:
// take removes it, and a later park of the same object replaces an
// earlier one. The parked-proof gauge is set under mu, so concurrent
// parks and takes at different daemons leave it at the current total.
type handoff struct {
	mu     sync.Mutex
	parked *obs.Window[model.ObjectID, parkedLog]
	proofs int64 // the parked logs' total length
}

func newHandoff() *handoff {
	return &handoff{parked: obs.NewWindow[model.ObjectID, parkedLog](handoffCapacity)}
}

// park leaves obj's verified log for its next arrival and sets g to the
// coalition's parked-proof total.
func (h *handoff) park(obj model.ObjectID, log *proof.Store, sigs map[string]struct{}, g *obs.Gauge) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.parked.Delete(obj); ok {
		h.proofs -= int64(p.log.Len())
	}
	if p, ok := h.parked.Add(obj, parkedLog{log: log, sigs: sigs}); ok {
		h.proofs -= int64(p.log.Len())
	}
	h.proofs += int64(log.Len())
	g.Set(h.proofs)
}

// take removes and returns obj's parked log (nil when none is parked)
// and sets g to the coalition's parked-proof total.
func (h *handoff) take(obj model.ObjectID, g *obs.Gauge) (*proof.Store, map[string]struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.parked.Delete(obj)
	if !ok {
		return nil, nil
	}
	h.proofs -= int64(p.log.Len())
	g.Set(h.proofs)
	return p.log, p.sigs
}
