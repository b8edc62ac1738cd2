package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dramless/internal/memctrl"
	"dramless/internal/system"
)

// arenaTable renders the tournament at the quick test scale.
func arenaTable(t *testing.T, o Options, pols []string, kinds []system.Kind) *Table {
	t.Helper()
	eng := NewEngine(o)
	tab, err := eng.Arena(pols, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestArenaByteIdenticalAcrossParallelism is the tournament's
// determinism oracle: serial and 8-way-parallel engines must render the
// exact same table bytes — cell results, merged histograms, ranking and
// notes included.
func TestArenaByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(par int) []byte {
		o := quickOpts()
		o.Parallelism = par
		var buf bytes.Buffer
		arenaTable(t, o, nil, nil).Print(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("arena table differs across parallelism:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestArenaStructure pins the tournament's shape: one row per
// built-in policy, the baseline normalized to exactly 1.0 with zero
// Δp99, descending geomean order, and a populated latency column set.
func TestArenaStructure(t *testing.T) {
	tab := arenaTable(t, quickOpts(), nil, nil)
	if len(tab.Rows) != len(memctrl.PolicyNames()) {
		t.Fatalf("%d rows, want one per built-in policy (%d)", len(tab.Rows), len(memctrl.PolicyNames()))
	}
	prev := math.Inf(1)
	sawBase := false
	for _, r := range tab.Rows {
		gm := r.Values["geomean-x"]
		if gm > prev {
			t.Errorf("row %q breaks descending geomean order (%g after %g)", r.Label, gm, prev)
		}
		prev = gm
		if r.Values["mean-rd-ns"] <= 0 || r.Values["p99-rd-ns"] <= 0 {
			t.Errorf("row %q has empty latency columns: %+v", r.Label, r.Values)
		}
		if r.Label == memctrl.Final.Name {
			sawBase = true
			for _, k := range quickOpts().Kernels {
				if r.Values[k] != 1 {
					t.Errorf("baseline row %s column = %g, want exactly 1", k, r.Values[k])
				}
			}
			if r.Values["d-p99-ns"] != 0 {
				t.Errorf("baseline d-p99-ns = %g, want 0", r.Values["d-p99-ns"])
			}
		}
	}
	if !sawBase {
		t.Fatalf("no %q baseline row in the table", memctrl.Final.Name)
	}
	if len(tab.Notes) < 3 {
		t.Errorf("want normalization + histogram + verdict notes, got %v", tab.Notes)
	}
}

// TestArenaSubsetAndErrors covers the request surface: a policy subset
// always gains the baseline reference row, and unknown names fail with
// the registry listing.
func TestArenaSubsetAndErrors(t *testing.T) {
	tab := arenaTable(t, quickOpts(), []string{"palp"}, nil)
	if len(tab.Rows) != 2 {
		t.Fatalf("subset run has %d rows, want palp + implicit baseline", len(tab.Rows))
	}
	labels := map[string]bool{}
	for _, r := range tab.Rows {
		labels[r.Label] = true
	}
	if !labels["palp"] || !labels[memctrl.Final.Name] {
		t.Errorf("subset rows = %v", labels)
	}

	if _, err := NewEngine(quickOpts()).Arena([]string{"fifo"}, nil); err == nil ||
		!strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown policy error should list the registry, got %v", err)
	}
}
