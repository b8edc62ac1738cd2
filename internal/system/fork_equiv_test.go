package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
	"dramless/internal/workload"
)

// prefixCounter reports the registry name recording how a run's prefix
// came to be. Forked and cold runs differ in this one name by design
// (prefix_forks vs prefix_cold_runs); everything else must match.
func prefixCounter(name string) bool {
	return strings.HasPrefix(name, "system.prefix_")
}

func forkFilteredEntries(c *obs.Counters) []obs.Entry {
	out := make([]obs.Entry, 0, c.Len())
	for _, e := range c.Entries() {
		if !eventCounter(e.Name) && !prefixCounter(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// TestForkedMatchesCold is the checkpoint/fork layer's equivalence
// oracle: for every Table I organization x one kernel per workload
// class, a run forked from a captured populate/load checkpoint must
// reproduce the cold run exactly - phase walls, time/energy breakdowns,
// per-agent reports, the full counter registry (save the prefix-origin
// counter and engine event totals), and byte-identical histogram and
// series exports. A series window other than the one the prefix was
// captured under cannot take the prefix's samples, so RunForked must run
// those cells cold, with the same exports.
func TestForkedMatchesCold(t *testing.T) {
	inputs := []struct {
		suffix string
		opts   []obs.Option
		origin string // the forked run's prefix-origin counter
	}{
		{"", nil, CounterPrefixForks},
		{"/window_1us", []obs.Option{obs.WithSeriesWindow(sim.Microsecond)}, CounterPrefixColdRuns},
	}
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			for _, in := range inputs {
				t.Run(kind.String()+"/"+kname+in.suffix, func(t *testing.T) {
					k := workload.MustByName(kname)

					cfg := testConfig(kind)
					cfg.Scale = 128 << 10
					cfg.Obs = obs.New(in.opts...)
					cold, err := Run(cfg, k)
					if err != nil {
						t.Fatal(err)
					}

					fcfg := cfg
					fcfg.Obs = obs.New(in.opts...)
					cp, err := CapturePrefix(PrefixOf(fcfg, k))
					if err != nil {
						t.Fatal(err)
					}
					forked, err := RunForked(fcfg, k, cp)
					if err != nil {
						t.Fatal(err)
					}

					if v := forked.Counters.Get(in.origin); v != 1 {
						t.Errorf("forked run: %s = %d, want 1", in.origin, v)
					}
					if v := cold.Counters.Get(CounterPrefixColdRuns); v != 1 {
						t.Errorf("cold run: %s = %d, want 1", CounterPrefixColdRuns, v)
					}

					if forked.Load != cold.Load ||
						forked.Kernel != cold.Kernel ||
						forked.Store != cold.Store ||
						forked.Total != cold.Total {
						t.Errorf("phase walls differ:\n  forked load=%v kernel=%v store=%v total=%v\n  cold   load=%v kernel=%v store=%v total=%v",
							forked.Load, forked.Kernel, forked.Store, forked.Total,
							cold.Load, cold.Kernel, cold.Store, cold.Total)
					}
					if forked.Footprint != cold.Footprint {
						t.Errorf("footprint differs: %d != %d", forked.Footprint, cold.Footprint)
					}
					if !reflect.DeepEqual(forked.Time, cold.Time) {
						t.Errorf("time breakdown differs:\n  forked: %+v\n  cold:   %+v", forked.Time, cold.Time)
					}
					if !reflect.DeepEqual(forked.Energy, cold.Energy) {
						t.Errorf("energy account differs:\n  forked: %+v\n  cold:   %+v", forked.Energy, cold.Energy)
					}

					fr, cr := *forked.Report, *cold.Report
					fr.Events = 0
					cr.Events = 0
					if !reflect.DeepEqual(fr, cr) {
						t.Errorf("kernel report differs:\n  forked: %+v\n  cold:   %+v", fr, cr)
					}

					fe := forkFilteredEntries(&forked.Counters)
					ce := forkFilteredEntries(&cold.Counters)
					if len(fe) != len(ce) {
						t.Fatalf("counter registries differ in size: %d != %d", len(fe), len(ce))
					}
					for i := range fe {
						if fe[i] != ce[i] {
							t.Errorf("counter %q: forked %+v != cold %+v", fe[i].Name, fe[i], ce[i])
						}
					}

					// The replayed prefix samples plus the live kernel/store
					// samples must reproduce the cold run's full distributions,
					// byte for byte in the export formats.
					fh, ch := fcfg.Obs.Histograms(), cfg.Obs.Histograms()
					if !fh.Equal(ch) {
						t.Errorf("histograms differ:\n%s", fh.Diff(ch))
					}
					fs, cs := fcfg.Obs.Series(), cfg.Obs.Series()
					if !fs.Equal(cs) {
						t.Errorf("series differ:\n%s", fs.Diff(cs))
					}
					if !t.Failed() {
						var fbuf, cbuf bytes.Buffer
						if err := fh.WriteJSON(&fbuf); err != nil {
							t.Fatal(err)
						}
						if err := ch.WriteJSON(&cbuf); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(fbuf.Bytes(), cbuf.Bytes()) {
							t.Error("histogram JSON exports are not byte-identical")
						}
						fbuf.Reset()
						cbuf.Reset()
						if err := fs.WriteCSV(&fbuf); err != nil {
							t.Fatal(err)
						}
						if err := cs.WriteCSV(&cbuf); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(fbuf.Bytes(), cbuf.Bytes()) {
							t.Error("series CSV exports are not byte-identical")
						}
					}
				})
			}
		}
	}
}

// TestPrefixCountersCataloged pins the prefix-origin counters in the
// observability catalog so exports and docs stay in sync.
func TestPrefixCountersCataloged(t *testing.T) {
	for _, name := range []string{CounterPrefixForks, CounterPrefixColdRuns} {
		if !obs.Cataloged(name) {
			t.Errorf("%s is not in the obs name catalog", name)
		}
	}
}

// TestPrefixOfNormalizesObservability pins the key normalization: runs
// that differ only in attached observability share a prefix, runs that
// differ in anything timing-relevant do not.
func TestPrefixOfNormalizesObservability(t *testing.T) {
	k := workload.MustByName("gemver")
	base := testConfig(DRAMLess)

	withObs := base
	withObs.Obs = obs.New()
	withObs.SampleInterval = 100 * 1000 // arbitrary non-zero
	if PrefixOf(base, k) != PrefixOf(withObs, k) {
		t.Error("Obs/SampleInterval should not split the prefix key")
	}

	scaled := base
	scaled.Scale = base.Scale * 2
	if PrefixOf(base, k) == PrefixOf(scaled, k) {
		t.Error("Scale must split the prefix key")
	}
	if PrefixOf(base, k) == PrefixOf(base, workload.MustByName("doitg")) {
		t.Error("kernels with different footprints must split the prefix key")
	}
}
