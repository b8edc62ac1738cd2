package system

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/workload"
)

// hostConcurrency is how many copies of one simulation the host-
// parallelism tests below run at once, the way the experiment engine's
// worker pool runs independent cells side by side.
const hostConcurrency = 4

// runExports are the byte exports of one run against a private Observer.
type runExports struct {
	counters, hist, series, blame []byte
}

// exportsOf returns an error rather than failing the test, so that
// concurrent runs can call it off the test goroutine.
func exportsOf(res *Result, o *obs.Observer) (runExports, error) {
	c, err := res.Counters.MarshalJSON()
	if err != nil {
		return runExports{}, err
	}
	var h, s, b bytes.Buffer
	if err := o.Histograms().WriteJSON(&h); err != nil {
		return runExports{}, err
	}
	if err := o.Series().WriteCSV(&s); err != nil {
		return runExports{}, err
	}
	if err := res.Blame.WriteJSON(&b); err != nil {
		return runExports{}, err
	}
	return runExports{counters: c, hist: h.Bytes(), series: s.Bytes(), blame: b.Bytes()}, nil
}

// compareRuns reports every difference between two runs of the same
// cell: phase walls, footprint, time/energy breakdowns, the kernel
// report, the counter registry and the byte exports. ignoreEvents drops
// the engine event totals and the prefix-origin counter, which differ
// between forked and cold runs by design.
func compareRuns(t *testing.T, what string, got, want *Result, gx, wx runExports, ignoreEvents bool) {
	t.Helper()
	if got.Load != want.Load || got.Kernel != want.Kernel ||
		got.Store != want.Store || got.Total != want.Total {
		t.Errorf("%s: phase walls differ:\n  got  load=%v kernel=%v store=%v total=%v\n  want load=%v kernel=%v store=%v total=%v",
			what, got.Load, got.Kernel, got.Store, got.Total,
			want.Load, want.Kernel, want.Store, want.Total)
	}
	if got.Footprint != want.Footprint {
		t.Errorf("%s: footprint differs: %d != %d", what, got.Footprint, want.Footprint)
	}
	if !reflect.DeepEqual(got.Time, want.Time) {
		t.Errorf("%s: time breakdown differs:\n  got:  %+v\n  want: %+v", what, got.Time, want.Time)
	}
	if !reflect.DeepEqual(got.Energy, want.Energy) {
		t.Errorf("%s: energy account differs:\n  got:  %+v\n  want: %+v", what, got.Energy, want.Energy)
	}

	gr, wr := *got.Report, *want.Report
	ge, we := got.Counters.Entries(), want.Counters.Entries()
	if ignoreEvents {
		gr.Events = 0
		wr.Events = 0
		ge, we = forkFilteredEntries(&got.Counters), forkFilteredEntries(&want.Counters)
	}
	if !reflect.DeepEqual(gr, wr) {
		t.Errorf("%s: kernel report differs:\n  got:  %+v\n  want: %+v", what, gr, wr)
	}
	if len(ge) != len(we) {
		t.Errorf("%s: counter registries differ in size: %d != %d", what, len(ge), len(we))
	} else {
		for i := range ge {
			if ge[i] != we[i] {
				t.Errorf("%s: counter %q: got %+v, want %+v", what, ge[i].Name, ge[i], we[i])
			}
		}
	}

	if !ignoreEvents && !bytes.Equal(gx.counters, wx.counters) {
		t.Errorf("%s: counters JSON export is not byte-identical", what)
	}
	for _, x := range []struct {
		what      string
		got, want []byte
	}{
		{"histogram JSON", gx.hist, wx.hist},
		{"series CSV", gx.series, wx.series},
		{"blame JSON", gx.blame, wx.blame},
	} {
		if !bytes.Equal(x.got, x.want) {
			t.Errorf("%s: %s export is not byte-identical", what, x.what)
		}
	}
}

// TestLanedMatchesSerial keeps the name of the lane executor's
// equivalence oracle, which checked that one simulation gave the same
// result on one goroutine and on N. With the lane executor gone, a
// simulation always runs on one goroutine, and the host's only
// parallelism is running independent simulations side by side (the
// experiment engine's worker pool). Those share package state: the
// staging buffer and storage free lists and the populate pattern. So
// for every Table I organization x one kernel per workload class, each
// of several concurrent runs of a cell must reproduce the same cell run
// alone, including the engine event counts, the whole counter registry
// and the counters, histogram, series and blame exports byte for byte.
func TestLanedMatchesSerial(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				k := workload.MustByName(kname)
				run := func() (*Result, runExports, error) {
					cfg := testConfig(kind)
					cfg.Scale = 128 << 10
					cfg.Obs = obs.New()
					res, err := Run(cfg, k)
					if err != nil {
						return nil, runExports{}, err
					}
					x, err := exportsOf(res, cfg.Obs)
					return res, x, err
				}

				alone, ax, err := run()
				if err != nil {
					t.Fatal(err)
				}

				res := make([]*Result, hostConcurrency)
				exp := make([]runExports, hostConcurrency)
				errs := make([]error, hostConcurrency)
				var wg sync.WaitGroup
				for i := range res {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res[i], exp[i], errs[i] = run()
					}(i)
				}
				wg.Wait()
				for i := range res {
					if errs[i] != nil {
						t.Fatalf("concurrent run %d: %v", i, errs[i])
					}
					compareRuns(t, "concurrent run", res[i], alone, exp[i], ax, false)
				}
			})
		}
	}
}

// TestLanedForkedMatchesCold keeps the name of the test that crossed the
// lane executor with the checkpoint layer. It now crosses the checkpoint
// layer with the host parallelism that remains: the experiment engine's
// workers take forks from one shared Checkpoint concurrently, which the
// Checkpoint contract allows because the template is only ever read.
// For every Table I organization x one kernel per workload class,
// several forks taken at once from one checkpoint, and one more taken
// after them, must each reproduce the cold run, save the prefix-origin
// counter and the engine event totals (TestForkedMatchesCold's filter).
func TestLanedForkedMatchesCold(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kname := range equivKernels {
			t.Run(kind.String()+"/"+kname, func(t *testing.T) {
				k := workload.MustByName(kname)

				cfg := testConfig(kind)
				cfg.Scale = 128 << 10
				cfg.Obs = obs.New()
				cold, err := Run(cfg, k)
				if err != nil {
					t.Fatal(err)
				}
				cx, err := exportsOf(cold, cfg.Obs)
				if err != nil {
					t.Fatal(err)
				}

				cp, err := CapturePrefix(PrefixOf(cfg, k))
				if err != nil {
					t.Fatal(err)
				}
				defer cp.Release()
				fork := func() (*Result, runExports, error) {
					fcfg := cfg
					fcfg.Obs = obs.New()
					res, err := RunForked(fcfg, k, cp)
					if err != nil {
						return nil, runExports{}, err
					}
					x, err := exportsOf(res, fcfg.Obs)
					return res, x, err
				}

				res := make([]*Result, hostConcurrency)
				exp := make([]runExports, hostConcurrency)
				errs := make([]error, hostConcurrency)
				var wg sync.WaitGroup
				for i := range res {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res[i], exp[i], errs[i] = fork()
					}(i)
				}
				wg.Wait()
				for i := range res {
					if errs[i] != nil {
						t.Fatalf("concurrent fork %d: %v", i, errs[i])
					}
					compareRuns(t, "concurrent fork", res[i], cold, exp[i], cx, true)
				}

				last, lx, err := fork()
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, "later fork", last, cold, lx, cx, true)
			})
		}
	}
}
