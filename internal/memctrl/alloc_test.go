package memctrl

import (
	"testing"

	"dramless/internal/obs"
	"dramless/internal/sim"
)

// allocPolicies are the schedulers the allocation pins cover: bare-metal
// runs each request to completion, final (the default) goes through the
// wave batcher.
var allocPolicies = []Policy{BareMetal, Final}

// TestObservedReadAllocationFree pins the instrumented memctrl hot path:
// with an observer attached, the steady-state read records its latency
// histogram sample and series points without allocating. The series
// window is stretched so window growth (amortized append, exercised
// elsewhere) stays out of the measurement.
func TestObservedReadAllocationFree(t *testing.T) {
	for _, p := range allocPolicies {
		t.Run(p.Name, func(t *testing.T) {
			cfg := testConfig(p)
			cfg.Obs = obs.New(obs.WithSeriesWindow(sim.Duration(1) << 60))
			sub := MustNew(cfg)

			dst := make([]byte, cfg.ChannelRequestBytes)
			// Warm: first read activates the row and registers every window.
			if _, err := sub.ReadInto(0, 0, dst); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sub.ReadInto(sim.Microsecond, 0, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("observed ReadInto allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestNilObserverReadAllocationFree pins the disabled state at the new
// call sites: the nil-handle chain (nil set -> nil histogram/series ->
// no-op Record) must not cost an allocation either.
func TestNilObserverReadAllocationFree(t *testing.T) {
	for _, p := range allocPolicies {
		t.Run(p.Name, func(t *testing.T) {
			cfg := testConfig(p)
			sub := MustNew(cfg)

			dst := make([]byte, cfg.ChannelRequestBytes)
			if _, err := sub.ReadInto(0, 0, dst); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := sub.ReadInto(sim.Microsecond, 0, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("unobserved ReadInto allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestWriteAllocationFree pins the steady-state write path: a full-row
// write (batched program flow) and a partial-row write (read-modify-write
// through the channel's single-request read) allocate nothing.
func TestWriteAllocationFree(t *testing.T) {
	for _, p := range allocPolicies {
		t.Run(p.Name, func(t *testing.T) {
			sub := MustNew(testConfig(p))
			rb := sub.Config().Geometry.RowBytes
			for _, tc := range []struct {
				name string
				addr uint64
				n    int
			}{
				{"full", 0, rb},
				{"partial", uint64(rb) + 8, 8},
			} {
				data := make([]byte, tc.n)
				for i := range data {
					data[i] = byte(i + 1)
				}
				now := sim.Time(0)
				write := func() {
					done, err := sub.Write(now, tc.addr, data)
					if err != nil {
						t.Fatal(err)
					}
					now = done
				}
				write() // warm: grow the batch and wave scratch
				if allocs := testing.AllocsPerRun(200, write); allocs != 0 {
					t.Fatalf("%s-row Write allocates %.1f objects per call, want 0", tc.name, allocs)
				}
			}
		})
	}
}
