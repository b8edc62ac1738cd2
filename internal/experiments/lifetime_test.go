package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// heldTemplates reports the engine's live checkpoint templates and the
// prefixes it still tracks.
func heldTemplates(e *Engine) (live, tracked int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live, len(e.tmpls)
}

// distinctPrefixes counts the distinct prefixes among the engine's
// cells: the captures of an engine that never recaptured.
func distinctPrefixes(e *Engine) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	distinct := map[system.Prefix]bool{}
	for _, pr := range e.cells {
		distinct[pr] = true
	}
	return int64(len(distinct))
}

// TestFig15FreesEveryTemplate pins the template lifetime: after Fig 15
// at the fast scale every checkpoint has been freed by its last fork,
// before Release, at any worker count; and since one prefetch queues all
// of Fig 15's demand, no prefix is captured twice.
func TestFig15FreesEveryTemplate(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			o := Fast()
			o.Parallelism = par
			e := NewEngine(o)
			defer e.Release()
			if _, err := e.Tables("fig15"); err != nil {
				t.Fatal(err)
			}
			if live, tracked := heldTemplates(e); live != 0 || tracked != 0 {
				t.Errorf("after Tables: %d templates live, %d prefixes tracked; want 0 and 0", live, tracked)
			}
			if got, want := e.PrefixStats().Runs, distinctPrefixes(e); got != want {
				t.Errorf("%d prefix captures for %d distinct prefixes", got, want)
			}
			if e.PeakCheckpoints() < 1 {
				t.Errorf("PeakCheckpoints() = %d, want at least 1", e.PeakCheckpoints())
			}
		})
	}
}

// cellOrigin counters differ between a forked and a cold run by design:
// the prefix-origin counter names which it was, and the cold run also
// dispatched the prefix's events.
func cellOrigin(name string) bool {
	return strings.HasPrefix(name, "system.prefix_") ||
		strings.HasSuffix(name, "events_dispatched")
}

// TestRecapturedCellMatchesColdRun requests a cell whose prefix was
// freed after an earlier cell forked it: the engine captures the prefix
// again, labels the cell cold, and every export equals the cold run's.
func TestRecapturedCellMatchesColdRun(t *testing.T) {
	o := quickOpts()
	e := NewEngine(o)
	defer e.Release()
	k := workload.MustByName("gemver")
	// A private Observer per cell makes a distinct cell key with the
	// same prefix; sampling makes the series export non-trivial.
	config := func() system.Config {
		cfg := o.config(system.DRAMLess)
		cfg.Obs = obs.New()
		cfg.SampleInterval = 50 * sim.Microsecond
		return cfg
	}
	first, err := e.getCfg(config(), k)
	if err != nil {
		t.Fatal(err)
	}
	if live, tracked := heldTemplates(e); live != 0 || tracked != 0 {
		t.Fatalf("after the first cell: %d templates live, %d prefixes tracked; want 0 and 0", live, tracked)
	}
	cfg := config()
	again, err := e.getCfg(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PrefixStats().Runs; got != 2 {
		t.Fatalf("%d prefix captures, want 2 (the freed prefix is captured again)", got)
	}
	for _, ct := range e.SlowestCells(2) {
		if ct.PrefixHit {
			t.Errorf("%s/%s labelled prefix-fork, but it captured its own template", ct.Kind, ct.Kernel)
		}
	}

	coldCfg := config()
	cold, err := system.Run(coldCfg, k)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := first.Counters.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := again.Counters.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ac, fc) {
		t.Error("counters of the recaptured fork differ from the first fork's")
	}
	var ae, ce []obs.Entry
	for _, x := range again.Counters.Entries() {
		if !cellOrigin(x.Name) {
			ae = append(ae, x)
		}
	}
	for _, x := range cold.Counters.Entries() {
		if !cellOrigin(x.Name) {
			ce = append(ce, x)
		}
	}
	if len(ae) != len(ce) {
		t.Fatalf("counter registries differ in size: recaptured %d, cold %d", len(ae), len(ce))
	}
	for i := range ae {
		if ae[i] != ce[i] {
			t.Errorf("counter %q: recaptured %+v, cold %+v", ae[i].Name, ae[i], ce[i])
		}
	}
	for _, x := range []struct {
		what      string
		got, want func(io.Writer) error
	}{
		{"histogram JSON", cfg.Obs.Histograms().WriteJSON, coldCfg.Obs.Histograms().WriteJSON},
		{"series CSV", cfg.Obs.Series().WriteCSV, coldCfg.Obs.Series().WriteCSV},
		{"blame JSON", again.Blame.WriteJSON, cold.Blame.WriteJSON},
	} {
		var got, want bytes.Buffer
		if err := x.got(&got); err != nil {
			t.Fatal(err)
		}
		if err := x.want(&want); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s of the recaptured cell differs from the cold run's (or is empty)", x.what)
		}
	}
}

// TestFailingCellReleasesItsTemplate pins that a failing cell cannot
// pin a template: neither a kernel that fails after its prefix was
// captured (a footprint below the workload minimum) nor a cell that
// panics before asking for it (an unregistered kernel name).
func TestFailingCellReleasesItsTemplate(t *testing.T) {
	e := NewEngine(quickOpts())
	small := e.o.config(system.DRAMLess)
	small.Scale = 256
	if _, err := e.getCfg(small, workload.MustByName("gemver")); err == nil {
		t.Fatal("a footprint below the workload minimum ran without error")
	}
	if e.PeakCheckpoints() != 1 {
		t.Fatalf("PeakCheckpoints() = %d, want 1: the prefix should be captured before the kernel fails", e.PeakCheckpoints())
	}
	unknown := workload.MustByName("gemver")
	unknown.Name = "no-such-kernel"
	if _, err := e.getCfg(e.o.config(system.Hetero), unknown); err == nil || !strings.Contains(err.Error(), "no-such-kernel") {
		t.Fatalf("unregistered kernel: err = %v, want the lookup panic as an error", err)
	}
	if live, tracked := heldTemplates(e); live != 0 || tracked != 0 {
		t.Errorf("after failing cells: %d templates live, %d prefixes tracked; want 0 and 0", live, tracked)
	}
	e.Release() // returns only once both cells have finished
	if _, err := e.get(system.DRAMLess, workload.MustByName("gemver")); err != nil {
		t.Fatalf("engine unusable after failing cells: %v", err)
	}
}
