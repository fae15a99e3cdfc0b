package experiments

import (
	"fmt"
	"os"
	"time"

	"stac/internal/agent"
	"stac/internal/core"
	"stac/internal/model"
	"stac/internal/obs"
	"stac/internal/obs/record"
	"stac/internal/server"
	"stac/internal/sral"
	"stac/internal/temporal"
	"stac/internal/workload"
)

// E12 measures what recording replay inputs costs a loaded
// coalition: the same roaming tour runs with recording off (the
// coalition's decision log alone: one decide record per decision,
// no inputs), with inputs kept in the in-memory ring only, and with
// ring plus JSONL WAL on a real file. The ring append itself is a
// mutex-guarded store; the cost is capturing the replayable INPUT. Under schema 1 that meant
// deep-copying the proof-backed history and re-rendering the declared
// program on every decide — O(N²) bytes over an N-access tour; since
// schema 2 both are delta-encoded per object (history suffix +
// interned program), so recorder overhead is a small constant per
// access and the WAL grows O(N).
func E12(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Flight-recorder overhead: off vs ring-only vs ring+WAL",
		Header: []string{"mode", "accesses", "wall-time", "per-access", "records", "wal-bytes"},
	}
	servers := scale.pickInt(4, 8)
	perServer := scale.pickInt(25, 250)
	reps := scale.pickInt(1, 5)
	for _, mode := range []string{"off", "ring", "ring+wal"} {
		var best time.Duration
		var res e12Result
		for i := 0; i < reps; i++ {
			r, err := runRecordedTour(servers, perServer, mode)
			if err != nil {
				return nil, err
			}
			if best == 0 || r.wall < best {
				best = r.wall
				res = r
			}
		}
		t.AddRow(mode, res.accesses, best.Round(time.Microsecond).String(),
			(best / time.Duration(res.accesses)).String(),
			res.records, res.walBytes)
	}
	t.Notes = append(t.Notes,
		"off keeps the coalition decision log only: decide records without replay inputs. ring mode",
		"adds the inputs, in the fixed-capacity in-memory ring only; ring+wal additionally appends",
		"every record as one JSON line to a temp file (the stream `stacctl replay` and `stacctl",
		"diff` consume). Records cover arrivals and activations as well as decisions, so the",
		"record count exceeds the access count.")
	return t, nil
}

type e12Result struct {
	wall     time.Duration
	accesses int
	records  uint64
	walBytes int64
}

// runRecordedTour drives one roaming itinerary with the given
// recorder configuration and reports the tour cost plus record
// volume.
func runRecordedTour(servers, perServer int, mode string) (e12Result, error) {
	clk := temporal.NewSimClock(0)
	c := server.NewCoalition(clk, []byte("e12-key"))
	c.Engine.SetObs(obs.NewRegistry())
	v := workload.DefaultVocabulary(servers, 4)
	for _, id := range v.Servers {
		srv, err := c.AddServer(id)
		if err != nil {
			return e12Result{}, err
		}
		for _, res := range v.Resources {
			srv.HostResource(res, []byte("payload"))
		}
	}
	policy := fmt.Sprintf(`
user o1
role traveler
permission p-read read * @ * {
    spatial count(0, %d, sigma[op=read])
    duration 1000000s
    scheme global
}
grant traveler p-read
assign o1 traveler
`, servers*perServer+1)
	if err := core.LoadPolicyString(c.Engine, policy); err != nil {
		return e12Result{}, err
	}

	var walFile *os.File
	switch mode {
	case "off":
	case "ring", "ring+wal":
		cfg := record.Config{Capacity: 4096, Registry: c.Engine.Obs()}
		if mode == "ring+wal" {
			f, err := os.CreateTemp("", "stac-e12-*.wal")
			if err != nil {
				return e12Result{}, err
			}
			walFile = f
			defer func() {
				walFile.Close()
				os.Remove(walFile.Name())
			}()
			cfg.WAL = f
		}
		c.Engine.SetRecorder(record.New(cfg))
	default:
		return e12Result{}, fmt.Errorf("unknown mode %q", mode)
	}

	var nodes []sral.Node
	for i := 0; i < perServer; i++ {
		for _, s := range v.Servers {
			nodes = append(nodes, sral.Prim{
				Op:       model.OpRead,
				Resource: v.Resources[i%len(v.Resources)],
				Server:   s,
			})
		}
	}
	prog := sral.SeqOf(nodes...)
	cred := c.Signer.IssueCredential("o1", "owner", []string{"traveler"})
	ag := agent.New("o1", cred, prog, c.Signer)

	start := time.Now()
	err := agent.Launch(c, ag)
	wall := time.Since(start)
	if err != nil {
		return e12Result{}, err
	}

	res := e12Result{wall: wall, accesses: ag.Proofs.Len()}
	st := c.Engine.Recorder().Status()
	if st.WALDegraded {
		return e12Result{}, fmt.Errorf("WAL degraded mid-run: %s", st.WALError)
	}
	res.records = st.Total
	if walFile != nil {
		if fi, err := walFile.Stat(); err == nil {
			res.walBytes = fi.Size()
		}
	}
	return res, nil
}
