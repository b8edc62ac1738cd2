package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"dramless/internal/obs"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// cellExports are the byte exports of one simulation cell.
type cellExports struct {
	cell                          string
	counters, hist, series, blame []byte
}

// fig15Exports runs the Fig 15 cells (gemver and doitg on every Fig 15
// organization) through a fresh engine, each cell with a private
// Observer, and returns every cell's exports in fixed cell order.
func fig15Exports(t *testing.T, o Options) []cellExports {
	t.Helper()
	e := NewEngine(o)
	defer e.Release()
	kernels := []workload.Kernel{workload.MustByName("gemver"), workload.MustByName("doitg")}
	var cfgs []system.Config
	for _, kind := range system.Fig15Kinds() {
		for range kernels {
			cfg := o.config(kind)
			cfg.Obs = obs.New()
			cfgs = append(cfgs, cfg)
		}
	}
	for i, cfg := range cfgs {
		e.prefetchCfg(cfg, kernels[i%len(kernels)])
	}
	out := make([]cellExports, len(cfgs))
	for i, cfg := range cfgs {
		k := kernels[i%len(kernels)]
		res, err := e.getCfg(cfg, k)
		if err != nil {
			t.Fatalf("%s/%s: %v", cfg.Kind, k.Name, err)
		}
		c, err := res.Counters.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var h, s, b bytes.Buffer
		if err := cfg.Obs.Histograms().WriteJSON(&h); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Obs.Series().WriteCSV(&s); err != nil {
			t.Fatal(err)
		}
		if err := res.Blame.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = cellExports{
			cell:     fmt.Sprintf("%s/%s", cfg.Kind, k.Name),
			counters: c, hist: h.Bytes(), series: s.Bytes(), blame: b.Bytes(),
		}
	}
	return out
}

// TestExportsInvariantAcrossGOMAXPROCS pins that the host's core count
// is invisible in every export: the Fig 15 cells run at GOMAXPROCS 1, 2
// and 8, each with a serial engine and with the default GOMAXPROCS-wide
// worker pool, must produce counters, histogram JSON, series CSV and
// blame JSON byte-identical to the GOMAXPROCS(1) serial run.
func TestExportsInvariantAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var ref []cellExports
	for _, procs := range []int{1, 2, 8} {
		for _, par := range []int{1, 0} {
			runtime.GOMAXPROCS(procs)
			o := quickOpts()
			o.Parallelism = par
			got := fig15Exports(t, o)
			if ref == nil {
				ref = got
				continue
			}
			run := fmt.Sprintf("GOMAXPROCS=%d Parallelism=%d", procs, par)
			for i := range got {
				for _, x := range []struct {
					what      string
					got, want []byte
				}{
					{"counters", got[i].counters, ref[i].counters},
					{"histogram JSON", got[i].hist, ref[i].hist},
					{"series CSV", got[i].series, ref[i].series},
					{"blame JSON", got[i].blame, ref[i].blame},
				} {
					if !bytes.Equal(x.got, x.want) {
						t.Errorf("%s %s: %s export differs from the GOMAXPROCS=1 serial run", run, got[i].cell, x.what)
					}
				}
			}
		}
	}
}
