package memctrl

import (
	"testing"

	"dramless/internal/sim"
)

// benchSpan is the address range the subsystem benchmarks cycle
// through: every channel and package, and overwrites from the second
// lap on.
const benchSpan = 1 << 20

// BenchmarkSubsystemWrite measures one Write under the default policy:
// a whole row (one batched program flow) and 8 bytes inside a row (a
// read-modify-write: a row read, then the program flow).
func BenchmarkSubsystemWrite(b *testing.B) {
	cfg := testConfig(Final)
	rb := cfg.Geometry.RowBytes
	for _, bc := range []struct {
		name   string
		col, n int
	}{
		{"full", 0, rb},
		{"partial", 8, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sub := MustNew(cfg)
			data := make([]byte, bc.n)
			for i := range data {
				data[i] = byte(i + 1)
			}
			at := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i*rb%benchSpan + bc.col)
				done, err := sub.Write(at, addr, data)
				if err != nil {
					b.Fatal(err)
				}
				at = done
			}
		})
	}
}

// BenchmarkSubsystemReadInto measures one ChannelRequestBytes read under
// the default policy.
func BenchmarkSubsystemReadInto(b *testing.B) {
	cfg := testConfig(Final)
	sub := MustNew(cfg)
	dst := make([]byte, cfg.ChannelRequestBytes)
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := sub.ReadInto(at, uint64(i*len(dst)%benchSpan), dst)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}
