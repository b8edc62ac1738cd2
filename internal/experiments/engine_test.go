package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dramless/internal/system"
	"dramless/internal/workload"
)

// TestParallelByteIdenticalToSerial is the determinism regression test:
// the full experiment set rendered serially and with Parallelism=8 must
// produce byte-identical Table.JSON() documents. Parallelism is across
// simulations only - each sim.Engine stays single-goroutine - so any
// divergence here means shared state leaked between runs.
func TestParallelByteIdenticalToSerial(t *testing.T) {
	serialOpts := quickOpts()
	serialOpts.Parallelism = 1
	serialTabs, err := NewEngine(serialOpts).Tables()
	if err != nil {
		t.Fatal(err)
	}

	parOpts := quickOpts()
	parOpts.Parallelism = 8
	par := NewEngine(parOpts)
	parTabs, err := par.Tables()
	if err != nil {
		t.Fatal(err)
	}
	// Figures 18 and 19 fork Figure 15's prefixes: the Tables hold keeps
	// those templates until their generators have queued, so no prefix
	// is captured twice, and nothing stays live afterwards.
	if got, want := par.PrefixStats().Runs, distinctPrefixes(par); got != want {
		t.Errorf("parallel engine made %d prefix captures for %d distinct prefixes", got, want)
	}
	if live, tracked := heldTemplates(par); live != 0 || tracked != 0 {
		t.Errorf("after Tables: %d templates live, %d prefixes tracked; want 0 and 0", live, tracked)
	}

	if len(serialTabs) != len(parTabs) || len(serialTabs) != len(Registry()) {
		t.Fatalf("table counts: serial %d, parallel %d, registry %d",
			len(serialTabs), len(parTabs), len(Registry()))
	}
	for i, st := range serialTabs {
		pt := parTabs[i]
		if st.ID != pt.ID {
			t.Fatalf("table %d: serial id %q, parallel id %q", i, st.ID, pt.ID)
		}
		sj, err := st.JSON()
		if err != nil {
			t.Fatal(err)
		}
		pj, err := pt.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("%s: parallel JSON differs from serial\nserial:\n%s\nparallel:\n%s", st.ID, sj, pj)
		}
	}
}

// TestSharedCacheAcrossExperiments pins the satellite fix: fig15, fig16
// and fig17 walk the same ten-system x kernel matrix, so after fig15 has
// populated the shared cache the other two must not run a single new
// simulation.
func TestSharedCacheAcrossExperiments(t *testing.T) {
	o := quickOpts()
	o.Parallelism = 2
	e := NewEngine(o)
	if _, err := e.Table("fig15"); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if want := int64(len(o.kernels()) * 10); st.Runs != want {
		t.Fatalf("fig15 ran %d simulations, want %d (ten systems x kernels)", st.Runs, want)
	}
	for _, id := range []string{"fig16", "fig17"} {
		if _, err := e.Table(id); err != nil {
			t.Fatal(err)
		}
		if got := e.Stats().Runs; got != st.Runs {
			t.Errorf("%s re-ran simulations: runs %d -> %d", id, st.Runs, got)
		}
	}
	if hits := e.Stats().Hits; hits == 0 {
		t.Error("fig16/fig17 produced no cache hits")
	}
}

// TestEngineSharedWithFig01 checks cross-family sharing: after fig15,
// a figure runs only the cells fig15 did not. fig01 needs Hetero cells
// fig15 already ran, plus the Ideal ones; fig13's Final column is the
// default DRAM-less cell, so only its other three schedulers run.
func TestEngineSharedWithFig01(t *testing.T) {
	for _, c := range []struct {
		id     string
		perKer int64 // new simulations per kernel after fig15
		why    string
	}{
		{"fig01", 1, "Ideal only"},
		{"fig13", 3, "Final reuses the DRAM-less cells"},
	} {
		c := c
		t.Run(c.id, func(t *testing.T) {
			o := quickOpts()
			e := NewEngine(o)
			if _, err := e.Table("fig15"); err != nil {
				t.Fatal(err)
			}
			before := e.Stats().Runs
			if want := int64(10 * len(o.kernels())); before != want {
				t.Errorf("fig15 ran %d simulations, want %d", before, want)
			}
			if _, err := e.Table(c.id); err != nil {
				t.Fatal(err)
			}
			added := e.Stats().Runs - before
			if want := c.perKer * int64(len(o.kernels())); added != want {
				t.Errorf("%s after fig15 ran %d new simulations, want %d (%s)", c.id, added, want, c.why)
			}
		})
	}
}

// TestUnknownKernelIsAnError checks that a misspelt kernel name fails
// every entry point with workload.ByName's error instead of panicking.
func TestUnknownKernelIsAnError(t *testing.T) {
	o := quickOpts()
	o.Kernels = []string{"gemver", "nope"}
	e := NewEngine(o)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "gemver") {
			t.Errorf("%s: err = %v, want an unknown-kernel error naming \"nope\" and the known kernels", what, err)
		}
	}
	_, err := e.Tables("fig15")
	check("Tables", err)
	_, err = e.Table("fig15")
	check("Table", err)
	_, err = e.Arena(nil, nil)
	check("Arena", err)
	if runs := e.Stats().Runs; runs != 0 {
		t.Errorf("rejected requests ran %d simulations", runs)
	}
}

func TestEngineUnknownExperiment(t *testing.T) {
	e := NewEngine(quickOpts())
	if _, err := e.Table("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-experiment error naming the id", err)
	}
	if _, err := e.Tables("fig12", "nope"); err == nil {
		t.Fatal("Tables with an unknown id did not fail")
	}
}

// TestTablesDefaultOrder checks that Tables() with no ids covers the
// registry in paper order.
func TestTablesDefaultOrder(t *testing.T) {
	o := quickOpts()
	o.Parallelism = 4
	tabs, err := NewEngine(o).Tables()
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry()
	if len(tabs) != len(reg) {
		t.Fatalf("got %d tables, want %d", len(tabs), len(reg))
	}
	for i, x := range reg {
		if tabs[i].ID != x.ID {
			t.Errorf("table %d: id %q, want %q", i, tabs[i].ID, x.ID)
		}
	}
}

// TestCountersDeterministicAcrossParallelism pins the observability
// determinism guarantee: every simulation cell's hardware-counter
// registry must be identical whether the engine ran serially or over an
// 8-worker pool. Counter collection walks per-run state in fixed code
// order, so any divergence means instrumentation leaked state between
// concurrently executing simulations.
func TestCountersDeterministicAcrossParallelism(t *testing.T) {
	kinds := system.Fig15Kinds()
	kernels := []workload.Kernel{
		workload.MustByName("gemver"),
		workload.MustByName("doitg"),
	}

	serialOpts := quickOpts()
	serialOpts.Parallelism = 1
	serial := NewEngine(serialOpts)

	parOpts := quickOpts()
	parOpts.Parallelism = 8
	par := NewEngine(parOpts)
	par.prefetch(kinds, kernels) // force concurrent execution

	for _, kind := range kinds {
		for _, k := range kernels {
			sres, err := serial.get(kind, k)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := par.get(kind, k)
			if err != nil {
				t.Fatal(err)
			}
			if sres.Counters.Len() == 0 {
				t.Fatalf("%s/%s: serial run produced no counters", kind, k.Name)
			}
			if !sres.Counters.Equal(&pres.Counters) {
				t.Errorf("%s/%s: counters diverge between serial and parallel engines:\n%s",
					kind, k.Name, sres.Counters.Diff(&pres.Counters))
			}
		}
	}
	if st := par.Stats(); st.Workers != 8 {
		t.Fatalf("parallel engine ran %d workers, want 8", st.Workers)
	}
}
