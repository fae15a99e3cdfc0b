package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"stac/internal/model"
	"stac/internal/obs/federate"
	"stac/internal/server"
)

// TestSlowListsExemplarsResolvedThroughExplain drives decisions at a
// live member, then checks `stacctl slow` lists the retained
// tail-latency exemplars with each decision resolved to its verdict.
func TestSlowListsExemplarsResolvedThroughExplain(t *testing.T) {
	const policy = `
user o1
role roamer
permission p read * @ *
grant roamer p
assign o1 roamer
`
	fleet := startFleet(t, 1, []byte("slow-test-key"), policy)
	m := fleet[0]
	cred := m.c.Signer.IssueCredential("o1", "owner@coalition", []string{"roamer"})
	cl, err := server.Dial(m.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth(cred); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := cl.Access(model.OpRead, "f", "", nil); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := runSlow(&buf, nil, m.debugURL, 5, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SECONDS") || !strings.Contains(out, "d-") {
		t.Fatalf("slow output has no exemplar rows:\n%s", out)
	}
	// Every listed decision resolved through /debug/explain.
	if !strings.Contains(out, "GRANT o1 read f @ s1") {
		t.Fatalf("exemplar not resolved to its verdict:\n%s", out)
	}
	if strings.Contains(out, "(not in audit window)") {
		t.Fatalf("exemplar fell out of the audit window:\n%s", out)
	}
	// Untraced decisions still name where their time went.
	if !strings.Contains(out, "STAGE") || !regexp.MustCompile(`(decode|verify|lookup|prefix|temporal|residue) \d+%`).MatchString(out) {
		t.Fatalf("exemplar rows name no dominant stage:\n%s", out)
	}

	// -n 1 keeps only the slowest row.
	buf.Reset()
	if err := runSlow(&buf, nil, m.debugURL, 1, false); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(buf.String(), "\n"); rows != 2 { // header + 1
		t.Fatalf("-n 1 printed %d lines:\n%s", rows, buf.String())
	}

	// The merged fleet view names the member's object imbalance (one
	// object on one of 32 shards) and slowest decision, and `top`
	// renders the perf table.
	poller := federate.NewPoller([]federate.Member{m.member()}, federate.Config{})
	view := poller.Poll(context.Background())
	if len(view.Perf) != 1 || view.Perf[0].ObjectImbalance != 32 || view.Perf[0].SlowestDecisionID == "" {
		t.Fatalf("fleet perf rollup = %+v", view.Perf)
	}
	buf.Reset()
	renderTop(&buf, view)
	top := buf.String()
	if !strings.Contains(top, "IMBAL") || !strings.Contains(top, "32.00") {
		t.Fatalf("top missing perf table:\n%s", top)
	}
	if !strings.Contains(top, view.Perf[0].SlowestDecisionID) {
		t.Fatalf("top missing slowest decision ID:\n%s", top)
	}
}

func TestSlowErrors(t *testing.T) {
	if err := cmdSlow(nil); err == nil || !strings.Contains(err.Error(), "-addr") {
		t.Fatalf("missing -addr accepted: %v", err)
	}
	var buf bytes.Buffer
	if err := runSlow(&buf, nil, "http://127.0.0.1:1", 5, false); err == nil {
		t.Fatal("unreachable daemon accepted")
	}
}

// TestSlowEmptyEngine: a member with no traffic has no exemplars; the
// verb says so instead of printing an empty table.
func TestSlowEmptyEngine(t *testing.T) {
	const policy = `
user o1
role roamer
permission p read * @ *
grant roamer p
assign o1 roamer
`
	fleet := startFleet(t, 1, []byte("slow-empty-key"), policy)
	var buf bytes.Buffer
	if err := runSlow(&buf, nil, fleet[0].debugURL, 5, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no exemplars retained") {
		t.Fatalf("empty engine output:\n%s", buf.String())
	}
}
