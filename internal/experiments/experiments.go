package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Runner is one experiment of the harness.
type Runner func(Scale) (*Table, error)

// All maps experiment IDs to their runners.
var All = map[string]Runner{
	"F1":  F1,
	"E1":  E1,
	"E2":  E2,
	"E3":  E3,
	"E4":  E4,
	"E5":  E5,
	"E6":  E6,
	"E7":  E7,
	"E8":  E8,
	"E9":  E9,
	"E10": E10,
	"E11": E11,
	"E12": E12,
}

// Titles gives the one-line description of each experiment without
// running it.
var Titles = map[string]string{
	"F1":  "Figure 1 module-dependency audit (8 modules, 3 servers)",
	"E1":  "Theorem 3.2 — static checking scales as O(m·n)",
	"E2":  "Enumeration baseline vs polynomial checker (branch sweep)",
	"E3":  "Theorem 4.1 — temporal validity checking cost vs state intervals",
	"E4":  "Enforcement overhead per access (roaming agent)",
	"E5":  "TRBAC-style role explosion vs coordinated model",
	"E6":  "Section 6 audit: sequential vs ParPattern clones",
	"E7":  "Theorem 3.1 — synthesis of regular trace models",
	"E8":  "Companion coordination via the coalition ledger",
	"E9":  "No-global-clock tolerance: enforcement under server clock skew",
	"E10": "Tracing overhead per access: untraced vs sampling-off vs sampled",
	"E11": "Fleet telemetry overhead: baseline vs snapshot scraping vs SSE journal tails",
	"E12": "Flight-recorder overhead: off vs ring-only vs ring+WAL",
}

// IDs returns the experiment identifiers in canonical order (F1 first,
// then E1..E10 numerically).
func IDs() []string {
	out := make([]string, 0, len(All))
	for id := range All {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// F* before E*, then numeric within a letter ("E10" after "E9").
		fi, fj := out[i][0] == 'F', out[j][0] == 'F'
		if fi != fj {
			return fi
		}
		ni, _ := strconv.Atoi(out[i][1:])
		nj, _ := strconv.Atoi(out[j][1:])
		if ni != nj {
			return ni < nj
		}
		return out[i] < out[j]
	})
	return out
}

// Format selects the output rendering.
type Format int

// Output formats.
const (
	// Text renders aligned plain-text tables.
	Text Format = iota
	// Markdown renders GitHub-flavoured tables (EXPERIMENTS.md style).
	Markdown
)

// Run executes one experiment by ID and renders it to w.
func Run(w io.Writer, id string, scale Scale) error {
	return RunFormat(w, id, scale, Text)
}

// RunFormat executes one experiment and renders it in the given
// format.
func RunFormat(w io.Writer, id string, scale Scale, f Format) error {
	runner, ok := All[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	table, err := runner(scale)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	if f == Markdown {
		table.RenderMarkdown(w)
	} else {
		table.Render(w)
	}
	return nil
}

// RunAll executes every experiment in canonical order.
func RunAll(w io.Writer, scale Scale) error {
	for _, id := range IDs() {
		if err := Run(w, id, scale); err != nil {
			return err
		}
	}
	return nil
}
