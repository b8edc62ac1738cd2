package workload

import (
	"testing"

	"dramless/internal/mem"
	"dramless/internal/sim"
)

// TestVecAllocations pins Vec's paths in steady state: Get and Set go
// through the vector's element buffer, Fill reuses its byte buffer, and
// Snapshot allocates only the []float64 it returns. Both a flat device and the PRAM subsystem (whose
// unaligned edges take the read-modify-write path) are covered; the
// vector starts mid-row so both of its edges are partial rows.
func TestVecAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  mem.Device
	}{
		{"flat", dev()},
		{"pram", pramDevice(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 37
			v, err := NewVec(tc.dev, 8, n)
			if err != nil {
				t.Fatal(err)
			}
			xs := fill64(n, func(i int) float64 { return float64(i) + 0.25 })
			now := sim.Time(0)
			fill := func() {
				if now, err = v.Fill(now, xs); err != nil {
					t.Fatal(err)
				}
			}
			snapshot := func() {
				var got []float64
				if got, now, err = v.Snapshot(now); err != nil {
					t.Fatal(err)
				}
				if got[n-1] != xs[n-1] {
					t.Fatalf("Snapshot()[%d] = %v, want %v", n-1, got[n-1], xs[n-1])
				}
			}
			setGet := func() {
				if now, err = v.Set(now, 5, 1.5); err != nil {
					t.Fatal(err)
				}
				var x float64
				if x, now, err = v.Get(now, 5); err != nil || x != 1.5 {
					t.Fatalf("Get(5) = %v, %v after Set(5, 1.5)", x, err)
				}
			}
			if allocs := testing.AllocsPerRun(50, setGet); allocs != 0 {
				t.Errorf("Set+Get allocates %.1f objects per call pair, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
				t.Errorf("Fill allocates %.1f objects per call, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(50, snapshot); allocs != 1 {
				t.Errorf("Snapshot allocates %.1f objects per call, want 1 (its result)", allocs)
			}
		})
	}
}
