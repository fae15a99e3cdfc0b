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

// handoff carries verified histories across hops: a departing session
// parks its resident log under its object, and the object's next
// authentication takes it, so the proofs one member daemon verified
// are not verified again by the next. A log moves, it is never shared:
// take removes it, and a later park of the same object replaces an
// earlier one. The parked-proof gauge is set under mu, so concurrent
// parks and takes at different daemons leave it at the current total.
type handoff struct {
	mu     sync.Mutex
	parked *obs.Window[model.ObjectID, *proof.Store]
	proofs int64 // the parked logs' total length
}

func newHandoff() *handoff {
	return &handoff{parked: obs.NewWindow[model.ObjectID, *proof.Store](handoffCapacity)}
}

// park leaves obj's verified log for its next arrival and sets g to the
// coalition's parked-proof total.
func (h *handoff) park(obj model.ObjectID, log *proof.Store, g *obs.Gauge) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.parked.Delete(obj); ok {
		h.proofs -= int64(p.Len())
	}
	if p, ok := h.parked.Add(obj, log); ok {
		h.proofs -= int64(p.Len())
	}
	h.proofs += int64(log.Len())
	g.Set(h.proofs)
}

// take removes and returns obj's parked log (nil when none is parked)
// and sets g to the coalition's parked-proof total.
func (h *handoff) take(obj model.ObjectID, g *obs.Gauge) *proof.Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	log, ok := h.parked.Delete(obj)
	if !ok {
		return nil
	}
	h.proofs -= int64(log.Len())
	g.Set(h.proofs)
	return log
}
