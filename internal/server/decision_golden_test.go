package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/proof"
	"stac/internal/temporal"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenTourPolicy mixes the three kinds of denial an audit entry can
// explain: a spatial count ceiling (rsw), a temporal budget (execute)
// and an uncovered operation (delete). Unknown resources add the
// served-only denial the engine itself grants.
const goldenTourPolicy = `
user o1
user o2
role traveler
permission p-read read * @ * {
    spatial count(0, 2, sigma[r=rsw])
}
permission p-exec execute * @ * {
    duration 12s
    scheme global
}
permission p-write write * @ *
grant traveler p-read
grant traveler p-exec
grant traveler p-write
assign o1 traveler
assign o2 traveler
`

// goldenShadowPolicy tightens the rsw ceiling to 1, so each object's
// second rsw read flips grant → deny under the shadow policy.
const goldenShadowPolicy = `
user o1
user o2
role traveler
permission p-read read * @ * {
    spatial count(0, 1, sigma[r=rsw])
}
permission p-exec execute * @ * {
    duration 12s
    scheme global
}
permission p-write write * @ *
grant traveler p-read
grant traveler p-exec
grant traveler p-write
assign o1 traveler
assign o2 traveler
`

// goldenTrace is the fixed, unsampled trace context every fourth
// request of the tour carries, so trace IDs reach the entries too.
const goldenTrace = "0123456789abcdef0123456789abcdef-0123456789abcdef-00"

// runGoldenTour drives a seeded in-process tour: two objects roam
// three skewed servers under a shadow policy, issuing reads, rsw
// reads, unknown-resource reads, uncovered deletes, executes and
// writes. It returns the coalition and every decision ID in request
// order.
func runGoldenTour(t *testing.T) (*Coalition, []string) {
	t.Helper()
	clk := temporal.NewSimClock(0)
	c := NewCoalition(clk, key)
	if err := core.LoadPolicyString(c.Engine, goldenTourPolicy); err != nil {
		t.Fatal(err)
	}
	if err := c.SetShadowPolicy(goldenShadowPolicy); err != nil {
		t.Fatal(err)
	}
	var servers []*Server
	for i, id := range []model.ServerID{"s1", "s2", "s3"} {
		srv, err := c.AddServer(id)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetClockSkew(0.25 * float64(i))
		srv.HostResource("f-"+model.ResourceID(id), []byte("content of "+id))
		srv.HostResource("rsw", []byte("restricted"))
		servers = append(servers, srv)
	}
	tc, ok := obs.ParseTraceContext(goldenTrace)
	if !ok {
		t.Fatal("bad golden trace context")
	}

	type hop struct {
		srv *Server
		sub *Subject
	}
	objects := []string{"o1", "o2"}
	stores := map[string]*proof.Store{}
	at := map[string]hop{}
	for _, o := range objects {
		stores[o] = proof.NewStore(c.Signer)
	}
	r := rand.New(rand.NewSource(15))
	var ids []string
	for step := 0; step < 60; step++ {
		obj := objects[r.Intn(len(objects))]
		h, here := at[obj]
		if !here || r.Intn(3) == 0 {
			if here {
				h.srv.Depart(h.sub)
			}
			srv := servers[r.Intn(len(servers))]
			sub, err := srv.Authenticate(cred(c, obj, "owner", "traveler"))
			if err != nil {
				t.Fatal(err)
			}
			h = hop{srv, sub}
			at[obj] = h
		}
		local := "f-" + model.ResourceID(h.srv.ID())
		rc := RequestContext{Store: stores[obj]}
		if step%4 == 0 {
			rc.Trace = tc
		}
		var op model.Operation
		var res model.ResourceID
		switch r.Intn(6) {
		case 0:
			op, res = model.OpRead, local
		case 1:
			op, res = model.OpRead, "rsw"
		case 2:
			op, res = model.OpRead, "missing"
		case 3:
			op, res = "delete", local
		case 4:
			op, res = model.OpExecute, local
		default:
			op, res = model.OpWrite, local
			rc.Payload = []byte(fmt.Sprintf("write %d", step))
		}
		out, _ := h.srv.Request(h.sub, op, res, rc)
		if out.Decision.ID == "" {
			t.Fatalf("step %d: no decision ID", step)
		}
		ids = append(ids, out.Decision.ID)
		clk.Advance(float64(1 + r.Intn(3)))
	}
	return c, ids
}

// TestDecisionStreamGolden pins what the coalition's decision log
// serves, entry for entry and line for line: every server's Audit()
// stream as AuditEntry JSON, and the rendered lines plus total of the
// `audit` wire verb. Decision IDs become their request ordinal and
// HLC stamps a fixed marker; times come from the simulated clock and
// the servers' skews, so they are pinned as they are. `go test
// ./internal/server -run TestDecisionStreamGolden -update` rewrites
// the files after an intended change.
func TestDecisionStreamGolden(t *testing.T) {
	c, ids := runGoldenTour(t)
	ordinal := make(map[string]int, len(ids))
	for i, id := range ids {
		ordinal[id] = i
	}

	var entries, lines bytes.Buffer
	enc := json.NewEncoder(&entries)
	for _, srv := range c.Servers() {
		audit, _ := srv.Audit()
		for _, e := range audit {
			i, ok := ordinal[e.DecisionID]
			if !ok {
				t.Fatalf("%s audits unknown decision %s", srv.ID(), e.DecisionID)
			}
			e.DecisionID = fmt.Sprintf("d#%d", i)
			if e.HLC != "" {
				e.HLC = "hlc"
			}
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}

		d := NewDaemon(srv)
		addr, err := d.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp := dialRaw(t, addr).send(wireRequest{Type: "audit"})
		_ = d.Close()
		if !resp.OK {
			t.Fatalf("%s audit: %s", srv.ID(), resp.Error)
		}
		fmt.Fprintf(&lines, "# %s audit_total=%d\n", srv.ID(), resp.AuditTotal)
		for _, ln := range resp.Audit {
			fmt.Fprintln(&lines, ln)
		}
	}
	compareGolden(t, "decision_stream_golden.jsonl", entries.Bytes())
	compareGolden(t, "audit_lines_golden.txt", lines.Bytes())
}

// compareGolden checks got against testdata/name line by line,
// rewriting the file first under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d diverges from the golden file:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s has %d lines, golden %d", name, len(gl), len(wl))
}
