package stats

import (
	"math"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func TestSeriesAccumulate(t *testing.T) {
	ts := NewSeries(10 * sim.Nanosecond)
	ts.Accumulate(5*sim.Nanosecond, 1)
	ts.Accumulate(9*sim.Nanosecond, 2)
	ts.Accumulate(10*sim.Nanosecond, 4)
	if ts.Len() != 2 {
		t.Fatalf("len = %d, want 2", ts.Len())
	}
	if ts.At(0) != 3 || ts.At(1) != 4 {
		t.Fatalf("buckets = %v %v, want 3 4", ts.At(0), ts.At(1))
	}
	if ts.Total() != 7 {
		t.Fatalf("total = %v, want 7", ts.Total())
	}
}

func TestSeriesSpread(t *testing.T) {
	ts := NewSeries(10 * sim.Nanosecond)
	// 30 units over [5ns, 35ns): bucket0 gets 5/30, bucket1 10/30, ...
	ts.Spread(5*sim.Nanosecond, 35*sim.Nanosecond, 30)
	want := []float64{5, 10, 10, 5}
	for i, w := range want {
		if math.Abs(ts.At(i)-w) > 1e-9 {
			t.Fatalf("bucket %d = %v, want %v", i, ts.At(i), w)
		}
	}
	if math.Abs(ts.Total()-30) > 1e-9 {
		t.Fatalf("total = %v, want 30", ts.Total())
	}
}

func TestSeriesCumulativeAndRate(t *testing.T) {
	ts := NewSeries(sim.Microsecond)
	ts.Accumulate(0, 2) // 2 J in 1 us -> 2 MW (rate check)
	ts.Accumulate(sim.Microsecond, 3)
	cum := ts.Cumulative()
	if cum[0] != 2 || cum[1] != 5 {
		t.Fatalf("cumulative = %v", cum)
	}
	rate := ts.Rate()
	if math.Abs(rate[0]-2e6) > 1 {
		t.Fatalf("rate[0] = %v, want 2e6", rate[0])
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("compute", 3)
	b.Add("storage", 6)
	b.Add("compute", 1)
	if got := b.Get("compute"); got != 4 {
		t.Fatalf("compute = %v, want 4", got)
	}
	if got := b.Total(); got != 10 {
		t.Fatalf("total = %v, want 10", got)
	}
	if got := b.Share("storage"); got != 0.6 {
		t.Fatalf("share = %v, want 0.6", got)
	}
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != "compute" || keys[1] != "storage" {
		t.Fatalf("keys = %v", keys)
	}
	b2 := NewBreakdown()
	b2.Add("pcie", 5)
	b.AddAll(b2)
	if b.Total() != 15 {
		t.Fatalf("after merge total = %v", b.Total())
	}
	b.Scale(2)
	if b.Get("pcie") != 10 {
		t.Fatalf("after scale pcie = %v", b.Get("pcie"))
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("geomean(nil) = %v", got)
	}
	// Non-positive values are skipped, not poisonous.
	if got := GeoMean([]float64{0, 4, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("geomean with zero = %v, want 4", got)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	if got := Percentile(vs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(vs, 1); got != 9 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(vs, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	// Input must not be mutated.
	if vs[0] != 9 {
		t.Fatal("Percentile sorted its input in place")
	}
}

// Property: Spread conserves mass for arbitrary windows.
func TestSpreadConservesMassProperty(t *testing.T) {
	f := func(start uint16, length uint16, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		ts := NewSeries(7 * sim.Nanosecond)
		t0 := sim.Time(start)
		t1 := t0 + sim.Time(length)
		ts.Spread(t0, t1, v)
		return math.Abs(ts.Total()-v) <= 1e-9*math.Max(1, math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
