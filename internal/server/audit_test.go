package server

import (
	"strings"
	"sync"
	"testing"

	"stac/internal/model"
	"stac/internal/proof"
)

func TestAuditRecordsDecisions(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	store := proof.NewStore(c.Signer)

	if _, err := srv.Request(sub, model.OpRead, "f-s1", RequestContext{Store: store}); err != nil {
		t.Fatal(err)
	}
	_, _ = srv.Request(sub, "delete", "f-s1", RequestContext{Store: store})        // denied: uncovered op
	_, _ = srv.Request(sub, model.OpRead, "missing", RequestContext{Store: store}) // denied: unknown resource

	records, total := srv.Audit()
	if total != 3 || len(records) != 3 {
		t.Fatalf("audit = %d records, %d total", len(records), total)
	}
	if !records[0].Granted || records[1].Granted || records[2].Granted {
		t.Fatalf("audit outcomes = %+v", records)
	}
	if records[2].Reason != "unknown resource" {
		t.Fatalf("unknown-resource reason = %q", records[2].Reason)
	}
	if !strings.Contains(records[0].String(), "GRANT") || !strings.Contains(records[1].String(), "DENY") {
		t.Fatalf("record strings: %q / %q", records[0], records[1])
	}
	// Untouched server has an empty log.
	s2, _ := c.Server("s2")
	if recs, n := s2.Audit(); len(recs) != 0 || n != 0 {
		t.Fatalf("s2 audit = %v %d", recs, n)
	}
}

// The coalition log retains the last 1024 decisions of
// every server together, in decision order: past that, each server's
// Audit() is its share of the window, its total still counts every
// decision it made, and evicted decisions no longer explain.
func TestAuditRingWrapsChronologically(t *testing.T) {
	c, clk := newCoalition(t)
	capacity := c.Engine.Recorder().Status().Capacity
	if capacity != 1024 {
		t.Fatalf("default decision log holds %d, want 1024", capacity)
	}
	servers := make([]*Server, 2)
	subs := make([]*Subject, 2)
	for i, id := range []model.ServerID{"s1", "s2"} {
		servers[i], _ = c.Server(id)
		subs[i], _ = servers[i].Authenticate(cred(c, "o1", "owner", "traveler"))
	}
	n := capacity + 300
	var first, last string
	for i := 0; i < n; i++ {
		clk.Advance(1) // decision i is stamped t=i+1
		srv := servers[i%2]
		res, err := srv.Request(subs[i%2], model.OpRead, "f-"+model.ResourceID(srv.ID()), RequestContext{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Decision.ID
		}
		last = res.Decision.ID
	}

	retained := 0
	for i, srv := range servers {
		records, total := srv.Audit()
		if total != n/2 {
			t.Fatalf("%s total = %d, want %d", srv.ID(), total, n/2)
		}
		retained += len(records)
		// Chronological, this server's only, and within the window of
		// the last capacity decisions.
		for j, r := range records {
			if !r.Granted || r.Server != string(srv.ID()) || r.Time < float64(n-capacity+1) {
				t.Fatalf("%s retained %+v", srv.ID(), r)
			}
			if j > 0 && r.Time != records[j-1].Time+2 {
				t.Fatalf("%s entries out of order: t=%g after t=%g", srv.ID(), r.Time, records[j-1].Time)
			}
		}
		if got := records[len(records)-1].Time; got != float64(n-1+i) {
			t.Fatalf("%s newest entry t=%g, want %d", srv.ID(), got, n-1+i)
		}
	}
	if retained != capacity {
		t.Fatalf("retained %d decisions, want %d", retained, capacity)
	}
	if _, ok := c.Explain(first); ok {
		t.Fatal("evicted decision still explains")
	}
	if e, ok := c.Explain(last); !ok || e.Time != float64(n) {
		t.Fatalf("newest decision explains as %+v, %v", e, ok)
	}
}

func TestAuditConcurrent(t *testing.T) {
	c, _ := newCoalition(t)
	srv, _ := c.Server("s1")
	sub, _ := srv.Authenticate(cred(c, "o1", "owner", "traveler"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = srv.Request(sub, model.OpRead, "f-s1", RequestContext{})
				srv.Audit()
			}
		}()
	}
	wg.Wait()
	_, total := srv.Audit()
	if total != 400 {
		t.Fatalf("total = %d", total)
	}
}
