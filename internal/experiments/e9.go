package experiments

import (
	"errors"
	"fmt"

	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/proof"
	"stac/internal/server"
	"stac/internal/temporal"
)

// E9 validates the paper's Section 4 premise quantitatively: "because
// there is no global clock in distributed systems and the arrival time
// of a mobile object on a server is unpredictable, the interval timing
// models are not appropriate". Coalition servers get opposite clock
// skews; the experiment checks that (a) a strict cross-server ordering
// constraint is still enforced correctly — the carried proof store
// preserves the object's causal order even when proof timestamps are
// inverted — and (b) the duration budget still expires exactly on
// accumulated time, independent of the skew magnitude.
func E9(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "No-global-clock tolerance: enforcement under server clock skew",
		Header: []string{"skew (s)", "timestamps-inverted", "ordering-enforced", "budget-exact"},
	}
	skews := scale.pick([]int{0, 1000}, []int{0, 1000, 1000000, 1000000000})
	for _, skewInt := range skews {
		skew := float64(skewInt)
		res, err := runSkewTrial(skew)
		if err != nil {
			return nil, err
		}
		t.AddRow(skew, res.inverted, res.ordering, res.budget)
	}
	t.Notes = append(t.Notes,
		"the carried proof store keeps the mobile object's causal order, so ordering constraints",
		"survive arbitrarily inverted cross-server timestamps; validity budgets accumulate",
		"durations (Expression 4.1), so expiry is exact at every skew — the property interval-",
		"based (TRBAC/GTRBAC) calendars cannot provide without an agreed global epoch.")
	return t, nil
}

type e9Result struct {
	inverted, ordering, budget bool
}

func runSkewTrial(skew float64) (e9Result, error) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("e9-key"))
	policy := `
user o1
role worker
permission p-dep read dep @ *
permission p-mod read mod @ * {
    spatial [read dep @ *] >> [read mod @ *]
    mode strict
    duration 100s
    scheme global
}
grant worker p-dep
grant worker p-mod
assign o1 worker
`
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		return e9Result{}, err
	}
	s1, err := c.AddServer("s1")
	if err != nil {
		return e9Result{}, err
	}
	s2, err := c.AddServer("s2")
	if err != nil {
		return e9Result{}, err
	}
	s1.HostResource("dep", []byte("d"))
	s2.HostResource("mod", []byte("m"))
	s1.SetClockSkew(+skew)
	s2.SetClockSkew(-skew)

	cred := c.Signer.IssueCredential("o1", "owner", []string{"worker"})
	store := proof.NewStore(c.Signer)

	sub1, err := s1.Authenticate(cred)
	if err != nil {
		return e9Result{}, err
	}
	if _, err := s1.Request(sub1, model.OpRead, "dep", server.RequestContext{Store: store}); err != nil {
		return e9Result{}, err
	}
	s1.Depart(sub1)
	clk.Advance(5)

	sub2, err := s2.Authenticate(cred)
	if err != nil {
		return e9Result{}, err
	}
	_, orderingErr := s2.Request(sub2, model.OpRead, "mod", server.RequestContext{Store: store})

	// Timestamp inversion check: the dep proof (s1, skew +skew) should
	// carry a LATER stamp than the mod proof (s2, skew -skew) whenever
	// skew > 0 — yet the causal order must still win above.
	ps := store.View()
	inverted := len(ps) == 2 && ps[0].Time > ps[1].Time

	// Budget exactness: 100s of *accumulated activity* (the permission
	// became active on the s2 arrival at t=5); the skews must not
	// shift the expiry point.
	clk.Advance(94) // 94s active: still valid
	_, okErr := s2.Request(sub2, model.OpRead, "mod", server.RequestContext{Store: store})
	clk.Advance(7) // 101s active: expired
	_, expiredErr := s2.Request(sub2, model.OpRead, "mod", server.RequestContext{Store: store})
	budget := okErr == nil && errors.Is(expiredErr, server.ErrDenied)

	if skew == 0 && inverted {
		return e9Result{}, fmt.Errorf("zero skew produced inverted timestamps")
	}
	return e9Result{
		inverted: inverted,
		ordering: orderingErr == nil,
		budget:   budget,
	}, nil
}
