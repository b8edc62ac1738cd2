package system

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/workload"
)

// equivKernels picks one kernel from each workload class (Table III
// taxonomy), so the batched datapath is exercised across read-, write-,
// compute- and memory-bound op mixes.
var equivKernels = []string{"gemver", "doitg", "fdtdap", "jaco1d"}

// eventCounter reports registry names that count PE interleave steps.
// Run coalescing services several ops per step by design, so dispatch
// totals legitimately shrink; every other observable must stay
// byte-identical.
func eventCounter(name string) bool {
	return strings.HasSuffix(name, "events_dispatched")
}

func filteredEntries(c *obs.Counters) []obs.Entry {
	out := make([]obs.Entry, 0, c.Len())
	for _, e := range c.Entries() {
		if !eventCounter(e.Name) {
			out = append(out, e)
		}
	}
	return out
}

// TestBatchedMatchesUnbatched is the coalescing datapath's equivalence
// oracle: for every Table I organization x one kernel per workload
// class, a run with the batched front-end must reproduce the op-at-a-
// time run exactly - phase walls, time/energy breakdowns, per-agent
// reports and cache stats, and the full counter registry, save only the
// engine's event-dispatch totals (see eventCounter).
func TestBatchedMatchesUnbatched(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				k := workload.MustByName(kname)

				cfg := testConfig(kind)
				cfg.Scale = 128 << 10
				cfg.Obs = obs.New()
				batched, err := Run(cfg, k)
				if err != nil {
					t.Fatal(err)
				}

				ucfg := cfg
				ucfg.Accel.PE.Unbatched = true
				ucfg.Obs = obs.New()
				unbatched, err := Run(ucfg, k)
				if err != nil {
					t.Fatal(err)
				}

				if batched.Load != unbatched.Load ||
					batched.Kernel != unbatched.Kernel ||
					batched.Store != unbatched.Store ||
					batched.Total != unbatched.Total {
					t.Errorf("phase walls differ:\n  batched   load=%v kernel=%v store=%v total=%v\n  unbatched load=%v kernel=%v store=%v total=%v",
						batched.Load, batched.Kernel, batched.Store, batched.Total,
						unbatched.Load, unbatched.Kernel, unbatched.Store, unbatched.Total)
				}
				if batched.Footprint != unbatched.Footprint {
					t.Errorf("footprint differs: %d != %d", batched.Footprint, unbatched.Footprint)
				}
				if !reflect.DeepEqual(batched.Time, unbatched.Time) {
					t.Errorf("time breakdown differs:\n  batched:   %+v\n  unbatched: %+v", batched.Time, unbatched.Time)
				}
				if !reflect.DeepEqual(batched.Energy, unbatched.Energy) {
					t.Errorf("energy account differs:\n  batched:   %+v\n  unbatched: %+v", batched.Energy, unbatched.Energy)
				}

				// Reports match except the engine event totals.
				br, ur := *batched.Report, *unbatched.Report
				br.Events = 0
				ur.Events = 0
				if !reflect.DeepEqual(br, ur) {
					t.Errorf("kernel report differs:\n  batched:   %+v\n  unbatched: %+v", br, ur)
				}

				be := filteredEntries(&batched.Counters)
				ue := filteredEntries(&unbatched.Counters)
				if len(be) != len(ue) {
					t.Fatalf("counter registries differ in size: %d != %d", len(be), len(ue))
				}
				for i := range be {
					if be[i] != ue[i] {
						t.Errorf("counter %q: batched %+v != unbatched %+v", be[i].Name, be[i], ue[i])
					}
				}

				// The latency histograms and windowed series must agree
				// byte for byte: the batched fast paths are required to
				// record every per-access sample the scalar reference
				// loop would (mem.Run.OnOp, cache run fast arms).
				bh, uh := cfg.Obs.Histograms(), ucfg.Obs.Histograms()
				if !bh.Equal(uh) {
					t.Errorf("histograms differ:\n%s", bh.Diff(uh))
				}
				bs, us := cfg.Obs.Series(), ucfg.Obs.Series()
				if !bs.Equal(us) {
					t.Errorf("series differ:\n%s", bs.Diff(us))
				}
				if !t.Failed() {
					var bbuf, ubuf bytes.Buffer
					if err := bh.WriteJSON(&bbuf); err != nil {
						t.Fatal(err)
					}
					if err := uh.WriteJSON(&ubuf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bbuf.Bytes(), ubuf.Bytes()) {
						t.Error("histogram JSON exports are not byte-identical")
					}
					bbuf.Reset()
					ubuf.Reset()
					if err := bs.WriteCSV(&bbuf); err != nil {
						t.Fatal(err)
					}
					if err := us.WriteCSV(&ubuf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(bbuf.Bytes(), ubuf.Bytes()) {
						t.Error("series CSV exports are not byte-identical")
					}
				}
			})
		}
	}
}
