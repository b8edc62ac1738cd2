package pram

import (
	"testing"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// benchRows is how many consecutive rows the benchmarks cycle through:
// every partition, four row segments, and overwrites from the second
// lap on.
const benchRows = 1024

func benchModule(b *testing.B) *Module {
	b.Helper()
	geo := DefaultGeometry()
	geo.RowsPerModule = 1 << 16
	m, err := NewModule(geo, lpddr.Default())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkProgramRow measures one full overlay-window program flow:
// the register-row burst, the program-buffer burst and the execute
// touch, each activating the window row it needs.
func BenchmarkProgramRow(b *testing.B) {
	m := benchModule(b)
	data := make([]byte, m.Geometry().RowBytes)
	for i := range data {
		data[i] = byte(i + 1)
	}
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := m.ProgramRow(at, 1, uint64(i%benchRows), data)
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}

// BenchmarkReadRow measures one three-phase array row read (pre-active,
// activate, one read burst into a caller buffer).
func BenchmarkReadRow(b *testing.B) {
	m := benchModule(b)
	rb := m.Geometry().RowBytes
	row := make([]byte, rb)
	for r := uint64(0); r < benchRows; r++ {
		row[0] = byte(r)
		if err := m.LoadRow(r, row); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]byte, rb)
	at := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upper, lower := m.Geometry().SplitRow(uint64(i % benchRows))
		done, err := m.Preactive(at, 0, upper)
		if err == nil {
			done, err = m.Activate(done, 0, lower)
		}
		if err == nil {
			done, err = m.ReadBurstInto(done, 0, 0, dst)
		}
		if err != nil {
			b.Fatal(err)
		}
		at = done
	}
}
