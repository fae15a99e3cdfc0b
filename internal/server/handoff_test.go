package server

// Tests for the history handoff: a departing session parks its verified
// log on the Coalition, and the object's next Auth, at any member
// daemon, adopts it. A log must only ever reach a later session of the
// same object, at most once, and every cursor into it is still checked.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
)

// relayClient returns a Client whose connection to addr runs through a
// relay. The relay applies editReq (when non-nil) to each request and
// editReply (when non-nil) to each reply's JSON fields; reqs returns the
// requests as the daemon received them.
func relayClient(t *testing.T, addr string, editReq func(*wireRequest), editReply func(map[string]json.RawMessage)) (cl *Client, reqs func() []wireRequest) {
	t.Helper()
	up, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	local, relay := net.Pipe()
	var mu sync.Mutex
	var seen []wireRequest
	go func() {
		defer relay.Close()
		defer up.Close()
		in, out := bufio.NewReader(relay), bufio.NewReader(up)
		for {
			line, err := in.ReadBytes('\n')
			if err != nil {
				return
			}
			var req wireRequest
			if err := json.Unmarshal(line, &req); err != nil {
				return
			}
			if editReq != nil {
				editReq(&req)
			}
			mu.Lock()
			seen = append(seen, req)
			mu.Unlock()
			b, _ := json.Marshal(req)
			if _, err := up.Write(append(b, '\n')); err != nil {
				return
			}
			reply, err := out.ReadBytes('\n')
			if err != nil {
				return
			}
			if editReply != nil {
				var fields map[string]json.RawMessage
				if err := json.Unmarshal(reply, &fields); err != nil {
					return
				}
				editReply(fields)
				b, _ := json.Marshal(fields)
				reply = append(b, '\n')
			}
			if _, err := relay.Write(reply); err != nil {
				return
			}
		}
	}()
	cl = NewClient(local, ClientConfig{})
	t.Cleanup(func() { _ = cl.Close() })
	return cl, func() []wireRequest {
		mu.Lock()
		defer mu.Unlock()
		return append([]wireRequest(nil), seen...)
	}
}

func handoffGauge(reg *obs.Registry) int64 {
	return reg.GaugeValue("stac_coalition_handoff_proofs", "")
}

// waitHandoff polls the handoff gauge until it reads want: a dropped
// connection parks its logs after the handler notices the close.
func waitHandoff(t *testing.T, reg *obs.Registry, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for handoffGauge(reg) != want {
		if time.Now().After(deadline) {
			t.Fatalf("stac_coalition_handoff_proofs = %d, want %d", handoffGauge(reg), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func carriedAt(reg *obs.Registry, server, outcome string) int64 {
	return reg.CounterValue("stac_server_carried_proofs_total",
		obs.Labels(obs.Label("outcome", outcome), obs.Label("server", server)))
}

// handoffCoalition is newCoalition with objects o1..on registered, and
// daemons for s1 and s2 reporting into one registry.
func handoffCoalition(t *testing.T, n int) (c *Coalition, reg *obs.Registry, addrs map[model.ServerID]string) {
	t.Helper()
	c, _ = newCoalition(t)
	var pol strings.Builder
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&pol, "user o%d\nassign o%d traveler\n", i, i)
	}
	if err := core.LoadPolicyString(c.Engine, pol.String()); err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	addrs = map[model.ServerID]string{}
	for _, id := range []model.ServerID{"s1", "s2"} {
		_, addrs[id] = startDaemonWith(t, c, id, DaemonConfig{Obs: reg})
	}
	return c, reg, addrs
}

// tour runs one hop of obj at addr carrying the given history: n reads
// of res, then a depart. It returns the history carried onwards.
func tour(t *testing.T, c *Coalition, addr string, obj string, carried []proof.Proof, res model.ResourceID, n int) []proof.Proof {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ImportProofs(carried)
	if err := cl.Auth(cred(c, obj, "owner", "traveler")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := cl.Access(model.OpRead, res, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Depart(); err != nil {
		t.Fatal(err)
	}
	return cl.Proofs()
}

// TestHandoffAdoptsLogAcrossHops moves a verified log from s1 to s2,
// with the history imported before Auth (as agent.RemoteRuntime does)
// and after it (as the bench and stacload agents do).
func TestHandoffAdoptsLogAcrossHops(t *testing.T) {
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("import_after_auth=%t", late), func(t *testing.T) {
			c, reg, addrs := handoffCoalition(t, 1)
			carried := tour(t, c, addrs["s1"], "o1", nil, "f-s1", 3)
			if r, h := residentGauge(reg), handoffGauge(reg); r != 0 || h != 3 {
				t.Fatalf("after depart: resident %d, parked %d; want 0 and 3", r, h)
			}

			cl, reqs := relayClient(t, addrs["s2"], nil, nil)
			if !late {
				cl.ImportProofs(carried)
			}
			if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
				t.Fatal(err)
			}
			if late {
				cl.ImportProofs(carried)
			}
			if h := handoffGauge(reg); h != 0 {
				t.Fatalf("parked %d after the adopting Auth, want 0", h)
			}
			for i := 0; i < 2; i++ {
				if _, err := cl.Access(model.OpRead, "f-s2", "", nil); err != nil {
					t.Fatal(err)
				}
			}
			var got [][2]int
			for _, req := range reqs() {
				if req.Type == "access" {
					got = append(got, [2]int{req.Base, len(req.Proofs)})
				}
			}
			if want := [][2]int{{3, 0}, {4, 0}}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("accesses sent (base, proofs) = %v, want %v", got, want)
			}
			if v, r := carriedAt(reg, "s2", "verified"), carriedAt(reg, "s2", "resident"); v != 0 || r != 3+4 {
				t.Fatalf("s2 carried proofs verified %d, resident %d; want 0 and 7", v, r)
			}
			var text strings.Builder
			obs.WritePrometheus(&text, reg)
			for _, want := range []string{
				`stac_coalition_handoff_proofs 0`,
				`stac_server_resident_proofs{server="s2"} 5`,
			} {
				if !strings.Contains(text.String(), want) {
					t.Fatalf("/metrics lacks %q", want)
				}
			}
			if err := cl.Depart(); err != nil {
				t.Fatal(err)
			}
			if r, h := residentGauge(reg), handoffGauge(reg); r != 0 || h != 5 {
				t.Fatalf("after the second depart: resident %d, parked %d; want 0 and 5", r, h)
			}
		})
	}
}

// TestHandoffAuthReplyOffersParkedLog checks the auth reply on the wire,
// and that a dropped connection parks its log like a depart.
func TestHandoffAuthReplyOffersParkedLog(t *testing.T) {
	c, reg, addrs := handoffCoalition(t, 1)
	cr := cred(c, "o1", "owner", "traveler")
	rc := dialRaw(t, addrs["s1"])
	tok := rc.auth(cr)
	first := rc.access(tok, "f-s1", 0, "", nil)
	second := rc.access(tok, "f-s1", 1, first.Proof.Sig, nil)
	if !first.OK || !second.OK {
		t.Fatalf("reads: %+v, %+v", first, second)
	}
	rc.conn.Close()
	waitHandoff(t, reg, 2)

	got := dialRaw(t, addrs["s2"]).send(wireRequest{Type: "auth", Credential: &cr})
	if !got.OK || got.Have != 2 || got.Head != second.Proof.Sig {
		t.Fatalf("auth reply = %+v, want have 2 and head %q", got, second.Proof.Sig)
	}
	// Taken: the next Auth is offered nothing.
	if again := dialRaw(t, addrs["s1"]).send(wireRequest{Type: "auth", Credential: &cr}); again.Have != 0 || again.Head != "" {
		t.Fatalf("second auth reply = %+v, want no offer", again)
	}
}

// TestHandoffNeverCrossesObjects parks o1's log and authenticates o2 at
// the server o1 left and at another: neither is offered the log, and a
// cursor into it is refused. o1 still adopts it afterwards.
func TestHandoffNeverCrossesObjects(t *testing.T) {
	c, reg, addrs := handoffCoalition(t, 2)
	carried := tour(t, c, addrs["s1"], "o1", nil, "f-s1", 2)
	head := carried[len(carried)-1].Sig
	for _, id := range []model.ServerID{"s1", "s2"} {
		rc := dialRaw(t, addrs[id])
		resp := rc.send(wireRequest{Type: "auth", Credential: ptr(cred(c, "o2", "owner", "traveler"))})
		if !resp.OK || resp.Have != 0 || resp.Head != "" {
			t.Fatalf("o2 auth at %s = %+v, want no offer", id, resp)
		}
		if resp := rc.access(resp.Token, "f-s1", 2, head, nil); !strings.HasPrefix(resp.Error, msgCursorMismatch) {
			t.Fatalf("o2 cursor into o1's log at %s = %+v, want a mismatch", id, resp)
		}
	}
	if h := handoffGauge(reg); h != 2 {
		t.Fatalf("parked %d after o2's arrivals, want o1's 2", h)
	}
	resp := dialRaw(t, addrs["s2"]).send(wireRequest{Type: "auth", Credential: ptr(cred(c, "o1", "owner", "traveler"))})
	if resp.Have != 2 || resp.Head != head {
		t.Fatalf("o1 auth = %+v, want its parked log", resp)
	}
}

func ptr[T any](v T) *T { return &v }

// TestHandoffConcurrentAuthsAdoptOnce races two Auths of one object, at
// two daemons, for one parked log: exactly one adopts it.
func TestHandoffConcurrentAuthsAdoptOnce(t *testing.T) {
	c, reg, addrs := handoffCoalition(t, 1)
	cr := cred(c, "o1", "owner", "traveler")
	var carried []proof.Proof
	for round := 0; round < 20; round++ {
		carried = tour(t, c, addrs["s1"], "o1", carried, "f-s1", 1)
		want := int64(len(carried))
		if h := handoffGauge(reg); h != want {
			t.Fatalf("round %d: parked %d, want %d", round, h, want)
		}
		var wg sync.WaitGroup
		clients := make([]*Client, 2)
		errs := make([]error, 2)
		for i, id := range []model.ServerID{"s1", "s2"} {
			cl, err := Dial(addrs[id])
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cl
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = clients[i].Auth(cr)
			}(i)
		}
		wg.Wait()
		haves := []int{clients[0].offer.have, clients[1].offer.have}
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: auths: %v", round, errs)
		}
		if !(haves[0] == int(want) && haves[1] == 0 || haves[0] == 0 && haves[1] == int(want)) {
			t.Fatalf("round %d: concurrent auths offered %v, want one offer of %d", round, haves, want)
		}
		if h := handoffGauge(reg); h != 0 {
			t.Fatalf("round %d: parked %d after the adopting Auth, want 0", round, h)
		}
		// Both sessions close, and the adopter parks its log back.
		for _, cl := range clients {
			cl.Close()
		}
		waitHandoff(t, reg, want)
		waitGauge(t, reg, 0)
	}
}

// TestHandoffForgedHeadFirstAccess sends a first access whose head does
// not name the adopted log: the daemon refuses it before deciding and
// drops the log, and a Client resends its full history under the same
// request ID.
func TestHandoffForgedHeadFirstAccess(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		c, reg, addrs := handoffCoalition(t, 1)
		carried := tour(t, c, addrs["s1"], "o1", nil, "f-s1", 2)
		rc := dialRaw(t, addrs["s2"])
		tok := rc.auth(cred(c, "o1", "owner", "traveler"))
		for _, cur := range []struct {
			base int
			head string
		}{
			{2, "forged"},         // the adopted length, a forged head
			{1, carried[0].Sig},   // a stale cursor
			{2, carried[1].Sig},   // right once, but the log is dropped now
			{3, "beyond the log"}, // past the log
		} {
			before := auditTotal(t, c, "s2")
			resp := rc.access(tok, "f-s2", cur.base, cur.head, nil)
			if resp.OK || !strings.HasPrefix(resp.Error, msgCursorMismatch) || resp.DecisionID != "" {
				t.Fatalf("cursor (%d, %q) = %+v, want a mismatch", cur.base, cur.head, resp)
			}
			if auditTotal(t, c, "s2") != before || residentGauge(reg) != 0 {
				t.Fatal("a mismatched first access decided or kept the log")
			}
		}
		if resp := rc.access(tok, "f-s2", 0, "", carried); !resp.OK || resp.Have != 3 {
			t.Fatalf("full history after the mismatch = %+v", resp)
		}
	})
	t.Run("client", func(t *testing.T) {
		c, reg, addrs := handoffCoalition(t, 1)
		carried := tour(t, c, addrs["s1"], "o1", nil, "f-s1", 2)
		forged := false
		cl, reqs := relayClient(t, addrs["s2"], func(req *wireRequest) {
			if req.Type == "access" && !forged {
				forged = true
				req.Head = "forged"
			}
		}, nil)
		cl.ImportProofs(carried)
		if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
			t.Fatal(err)
		}
		before := auditTotal(t, c, "s2")
		if _, err := cl.AccessID("r1", model.OpRead, "f-s2", "", nil); err != nil {
			t.Fatalf("access after a forged head: %v", err)
		}
		var got []string
		for _, req := range reqs() {
			if req.Type == "access" {
				got = append(got, fmt.Sprintf("%s base %d head %q proofs %d", req.ID, req.Base, req.Head, len(req.Proofs)))
			}
		}
		want := []string{`r1 base 2 head "forged" proofs 0`, `r1 base 0 head "" proofs 2`}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("accesses sent = %q, want %q", got, want)
		}
		if d := auditTotal(t, c, "s2") - before; d != 1 {
			t.Fatalf("decisions = %d, want 1", d)
		}
		if v := carriedAt(reg, "s2", "verified"); v != 2 {
			t.Fatalf("verified %d proofs, want the resent 2", v)
		}
	})
}

// TestHandoffResetHistoryRebuilds gives the next hop a history that does
// not extend the parked log: the client must open at base 0 in a single
// request, and the decision must rest on the history it carries, not on
// the parked one.
func TestHandoffResetHistoryRebuilds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history func(c *Coalition, parked []proof.Proof) []proof.Proof
	}{
		{"empty", func(*Coalition, []proof.Proof) []proof.Proof { return nil }},
		{"different", func(c *Coalition, parked []proof.Proof) []proof.Proof {
			// As long as the parked log, with other proofs at each place.
			var other []proof.Proof
			for i := range parked {
				other = append(other, c.Signer.Issue(model.Access{Object: "o1", Op: model.OpRead, Resource: "f-s2", Server: "s2"}, float64(100+i)))
			}
			return other
		}},
		{"shorter", func(_ *Coalition, parked []proof.Proof) []proof.Proof { return parked[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, reg, addrs := handoffCoalition(t, 1)
			// The parked log holds two rsw reads: the ceiling.
			parked := tour(t, c, addrs["s1"], "o1", nil, "rsw", 2)
			history := tc.history(c, parked)
			cl, reqs := relayClient(t, addrs["s2"], nil, nil)
			if err := cl.Auth(cred(c, "o1", "owner", "traveler")); err != nil {
				t.Fatal(err)
			}
			cl.ImportProofs(history)
			// Adopting the parked log would deny this read.
			if _, err := cl.Access(model.OpRead, "rsw", "", nil); err != nil {
				t.Fatalf("rsw read on a reset history: %v", err)
			}
			var sent [][2]int
			for _, req := range reqs() {
				if req.Type == "access" {
					sent = append(sent, [2]int{req.Base, len(req.Proofs)})
				}
			}
			if want := [][2]int{{0, len(history)}}; fmt.Sprint(sent) != fmt.Sprint(want) {
				t.Fatalf("accesses sent (base, proofs) = %v, want %v", sent, want)
			}
			if r := reg.GaugeValue("stac_server_resident_proofs", obs.Label("server", "s2")); r != int64(len(history)+1) {
				t.Fatalf("resident %d, want the carried %d plus the grant", r, len(history))
			}
		})
	}
}

// TestHandoffBoundedUnderChurn departs three times the handoff capacity
// of distinct objects: no more than the capacity stays parked, the
// oldest go first, and the gauge returns to 0 once every parked log is
// taken.
func TestHandoffBoundedUnderChurn(t *testing.T) {
	const objects = 3 * handoffCapacity
	c, reg, addrs := handoffCoalition(t, objects)
	parked := func() int {
		c.handoff.mu.Lock()
		defer c.handoff.mu.Unlock()
		return c.handoff.parked.Len()
	}
	rc := dialRaw(t, addrs["s1"])
	for i := 1; i <= objects; i++ {
		tok := rc.auth(cred(c, fmt.Sprintf("o%d", i), "owner", "traveler"))
		if resp := rc.access(tok, "f-s1", 0, "", nil); !resp.OK {
			t.Fatal(resp.Error)
		}
		if resp := rc.send(wireRequest{Type: "depart", Token: tok}); !resp.OK {
			t.Fatal(resp.Error)
		}
		if n := parked(); n > handoffCapacity {
			t.Fatalf("after %d departs: %d logs parked, capacity %d", i, n, handoffCapacity)
		}
	}
	if h, r := handoffGauge(reg), residentGauge(reg); h != handoffCapacity || r != 0 {
		t.Fatalf("after churn: parked %d proofs, resident %d; want %d and 0", h, r, handoffCapacity)
	}
	// Adopted sessions stay open, so nothing is parked again.
	rc2 := dialRaw(t, addrs["s2"])
	for i := 1; i <= objects; i++ {
		resp := rc2.send(wireRequest{Type: "auth", Credential: ptr(cred(c, fmt.Sprintf("o%d", i), "owner", "traveler"))})
		if want := i > objects-handoffCapacity; (resp.Have == 1) != want {
			t.Fatalf("o%d auth offered have %d; want an offer %t (the oldest go first)", i, resp.Have, want)
		}
	}
	if n, h := parked(), handoffGauge(reg); n != 0 || h != 0 {
		t.Fatalf("after taking every log: %d parked, gauge %d; want 0", n, h)
	}
}

// TestHandoffReparkedLogSurvivesItsFirstSlot parks an object's log,
// takes it on the object's next arrival and parks it again on the
// object's next departure. The handoff's first slot of the object is
// overwritten by the parks that follow, which must not evict the log
// parked second: it survives the next handoffCapacity-1 parks.
func TestHandoffReparkedLogSurvivesItsFirstSlot(t *testing.T) {
	const objects = handoffCapacity
	c, reg, addrs := handoffCoalition(t, objects)
	rc := dialRaw(t, addrs["s1"])
	depart := func(tok string) {
		t.Helper()
		if resp := rc.send(wireRequest{Type: "depart", Token: tok}); !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	tok := rc.auth(cred(c, "o1", "owner", "traveler"))
	if resp := rc.access(tok, "f-s1", 0, "", nil); !resp.OK {
		t.Fatal(resp.Error)
	}
	depart(tok)
	if resp := rc.send(wireRequest{Type: "auth", Credential: ptr(cred(c, "o1", "owner", "traveler"))}); resp.Have != 1 {
		t.Fatalf("o1's return offered have %d, want its parked log of 1", resp.Have)
	} else {
		depart(resp.Token)
	}
	for i := 2; i <= objects; i++ {
		tok := rc.auth(cred(c, fmt.Sprintf("o%d", i), "owner", "traveler"))
		if resp := rc.access(tok, "f-s1", 0, "", nil); !resp.OK {
			t.Fatal(resp.Error)
		}
		depart(tok)
	}
	if h := handoffGauge(reg); h != objects {
		t.Fatalf("parked %d proofs, want %d", h, objects)
	}
	resp := dialRaw(t, addrs["s2"]).send(wireRequest{Type: "auth", Credential: ptr(cred(c, "o1", "owner", "traveler"))})
	if resp.Have != 1 {
		t.Fatalf("after %d more parks o1 was offered have %d, want its re-parked log of 1", objects-1, resp.Have)
	}
}
