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
	obj  model.ObjectID
	log  *proof.Store
	sigs map[string]struct{}
	slot int // its index in handoff.ring
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
	parked map[model.ObjectID]*parkedLog
	// ring holds the parked logs in parking order; next is the slot the
	// next park evicts. A slot is nil once its log is taken or replaced.
	ring   [handoffCapacity]*parkedLog
	next   int
	proofs int64 // the parked logs' total length
}

func newHandoff() *handoff {
	return &handoff{parked: make(map[model.ObjectID]*parkedLog, handoffCapacity)}
}

// park leaves obj's verified log for its next arrival and sets g to the
// coalition's parked-proof total.
func (h *handoff) park(obj model.ObjectID, log *proof.Store, sigs map[string]struct{}, g *obs.Gauge) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.remove(h.parked[obj])
	h.remove(h.ring[h.next])
	p := &parkedLog{obj: obj, log: log, sigs: sigs, slot: h.next}
	h.ring[h.next] = p
	h.next = (h.next + 1) % handoffCapacity
	h.parked[obj] = p
	h.proofs += int64(log.Len())
	g.Set(h.proofs)
}

// take removes and returns obj's parked log (nil when none is parked)
// and sets g to the coalition's parked-proof total.
func (h *handoff) take(obj model.ObjectID, g *obs.Gauge) (*proof.Store, map[string]struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.parked[obj]
	if p == nil {
		return nil, nil
	}
	h.remove(p)
	g.Set(h.proofs)
	return p.log, p.sigs
}

// remove unparks p; nil is a no-op. The caller holds h.mu.
func (h *handoff) remove(p *parkedLog) {
	if p == nil {
		return
	}
	delete(h.parked, p.obj)
	h.ring[p.slot] = nil
	h.proofs -= int64(p.log.Len())
}
