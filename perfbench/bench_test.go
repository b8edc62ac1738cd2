package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"dramless"
	"dramless/internal/experiments"
)

// fig15Table builds a synthetic Figure 15 table from per-row values in
// column order Hetero, Heterodirect, DRAM-less.
func fig15Table(rows ...[3]float64) *dramless.ExperimentTable {
	cols := []string{dramless.Hetero.String(), dramless.Heterodirect.String(), dramless.DRAMLess.String()}
	t := &dramless.ExperimentTable{ID: "fig15"}
	for _, v := range rows {
		r := &experiments.Row{Values: map[string]float64{}, Order: cols}
		for i, c := range cols {
			r.Values[c] = v[i]
		}
		t.Rows = append(t.Rows, r)
	}
	return t
}

func TestFig15PairsFracCountsTiesAsLosses(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    *dramless.ExperimentTable
		want float64
	}{
		{"all wins", fig15Table([3]float64{1, 1.5, 2}, [3]float64{1, 0.5, 1.1}), 1},
		{"tie loses", fig15Table([3]float64{1, 2, 2}), 0.5},
		{"mixed", fig15Table([3]float64{1, 3, 2}, [3]float64{1, 0.2, 0.9}), 0.5},
		{"all losses", fig15Table([3]float64{1, 1, 1}), 0},
		{"no table", nil, 0},
	} {
		if got := fig15PairsFrac(tc.t); got != tc.want {
			t.Errorf("%s: fig15PairsFrac = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQuantileNearestRankAndTail(t *testing.T) {
	s := make([]float64, 160)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q          float64
		v          float64
		beyond     int
		reportable bool
	}{
		{0.5, 80, 80, true},
		{0.9, 144, 16, true},
		{0.99, 159, 1, false}, // fewer than ten samples beyond p99
		{1, 160, 0, false},
	} {
		v, beyond := quantile(s, tc.q)
		if v != tc.v || beyond != tc.beyond || (beyond >= 10) != tc.reportable {
			t.Errorf("quantile(160, %v) = %v with %d beyond, want %v with %d", tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("quantile(nil) = %v, %d", v, beyond)
	}
	if v, _ := quantile([]float64{7}, 0.99); v != 7 {
		t.Errorf("quantile of one sample = %v", v)
	}
}

func TestSelfTimeSubtractsCoveredTimeOnce(t *testing.T) {
	ms := func(lo, hi int) span {
		return span{Start: time.Duration(lo) * time.Millisecond, End: time.Duration(hi) * time.Millisecond}
	}
	parent := ms(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []span{ms(10, 20), ms(30, 50)}, 70},
		{"overlapping", []span{ms(10, 40), ms(30, 60)}, 50},
		{"nested", []span{ms(10, 60), ms(20, 30)}, 50},
		{"clipped to parent", []span{ms(90, 130)}, 90},
		{"outside parent", []span{ms(120, 130)}, 100},
		{"unsorted", []span{ms(70, 80), ms(5, 15), ms(10, 20)}, 75},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self = %v, want %dms", tc.name, got, tc.want)
		}
	}

	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	tr.end(child)
	tr.end(root)
	self := tr.selfByName()
	if d := tr.spans[root-1].dur().Seconds(); math.Abs(self["root"]+self["child"]-d) > 1e-12 {
		t.Errorf("self times %v do not add up to the root's %v s", self, d)
	}
}

func TestFunctionalMismatchCountsAsOneFailure(t *testing.T) {
	p := newPRAMRW()
	if tl, err := p.setup(7); err != nil || tl.failed != 0 || tl.attempted != 10 {
		t.Fatalf("setup: %+v, %v", tl, err)
	}
	good := p.iterate()
	if good.attempted != 10 || good.failed != 0 {
		t.Fatalf("clean pass: %+v", good)
	}

	p.kernels[3].outputs[0].vals[5] *= 1 + 1e-6
	bad := p.iterate()
	if bad.attempted != 10 || bad.failed != 1 || len(bad.notes) != 1 {
		t.Fatalf("pass with one wrong reference: %+v", bad)
	}
	var tl tally
	tl.add(good)
	tl.add(bad)
	if got := tl.failFrac(); got != 1.0/20 {
		t.Errorf("fail_frac = %v, want 1/20", got)
	}
	m := metrics{}
	endToEnd(m, 1, 1, 1, tl, 1)
	if got := m["pass_frac"].Value; got != 1-1.0/20 {
		t.Errorf("pass_frac = %v", got)
	}

	// Within the relative tolerance is not a mismatch.
	if i := mismatch([]float64{1 + 1e-12, 0, 3}, []float64{1, 0, 3}); i != -1 {
		t.Errorf("mismatch within tolerance at %d", i)
	}
	if i := mismatch([]float64{1, 1e-300}, []float64{1, 0}); i != 1 {
		t.Errorf("mismatch against zero at %d, want 1", i)
	}
}

func TestPRAMRWIsDeterministicPerSeed(t *testing.T) {
	a, b, c := newPRAMRW(), newPRAMRW(), newPRAMRW()
	for _, x := range []struct {
		p    *pramRW
		seed int64
	}{{a, 3}, {b, 3}, {c, 4}} {
		if _, err := x.p.setup(x.seed); err != nil {
			t.Fatal(err)
		}
	}
	if a.digest() != b.digest() {
		t.Errorf("same seed, different digests")
	}
	if a.digest() == c.digest() {
		t.Errorf("different seeds, same digest")
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metric sets the result line
// carries to the ones BENCHMARK.json declares, with their units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e := metrics{}
	endToEnd(e2e, 1, 1, 1, tally{attempted: 1}, 1)
	var l layers
	for _, x := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		emitted  metrics
	}{{"end_to_end", doc.EndToEnd, e2e}, {"per_layer", doc.PerLayer, l.metrics()}} {
		want := map[string]string{}
		for _, d := range x.declared {
			want[d.Name] = d.Unit
		}
		var names []string
		for n := range x.emitted {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(x.emitted) != len(want) {
			t.Errorf("%s: emitted %d metrics, declared %d", x.name, len(x.emitted), len(want))
		}
		for _, n := range names {
			if u, ok := want[n]; !ok || u != x.emitted[n].Unit {
				t.Errorf("%s: emitted %s [%s], declared [%s]", x.name, n, x.emitted[n].Unit, u)
			}
		}
	}
}

func TestSlug(t *testing.T) {
	for in, want := range map[string]string{
		"DRAM-less (firmware)": "dram-less_firmware",
		"Integrated-MLC":       "integrated-mlc",
		"Hetero":               "hetero",
	} {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}
