package pram

import (
	"fmt"
	"math/rand"
	"testing"
)

// refWrite is the byte-at-a-time overlay writer the range accessor
// replaced, kept as the reference it must match: each byte of the burst
// goes through the register map on its own, a RegExec byte is reported
// instead of stored, and the first rejected byte stops the burst.
func refWrite(o *overlay, off uint64, data []byte) (exec bool, err error) {
	for i, b := range data {
		at := off + uint64(i)
		if at == RegExec {
			exec = true
			continue
		}
		if err := refWriteByte(o, at, b); err != nil {
			return exec, err
		}
	}
	return exec, nil
}

func refWriteByte(o *overlay, off uint64, b byte) error {
	switch {
	case off < 128:
		return fmt.Errorf("pram: overlay meta-information at +%#x is read-only", off)
	case off == RegCode:
		o.code = b
	case off >= RegAddr && off < RegAddr+4:
		sh := (off - RegAddr) * 8
		o.addr = o.addr&^(0xFF<<sh) | uint32(b)<<sh
	case off >= RegMulti && off < RegMulti+2:
		sh := (off - RegMulti) * 8
		o.multi = o.multi&^(0xFF<<sh) | uint16(b)<<sh
	case off == RegExec:
	case off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize:
		o.progBuf[off-ProgBufOffset] = b
	case off > RegCode && off < RegExec:
	default:
		return fmt.Errorf("pram: write to unmapped overlay offset +%#x", off)
	}
	return nil
}

// refRead is the byte-at-a-time overlay reader the range accessor
// replaced, with the status register synthesized per byte as the module
// did.
func refRead(o *overlay, off uint64, dst []byte, status byte) error {
	for i := range dst {
		at := off + uint64(i)
		if at == RegStatus {
			dst[i] = status
			continue
		}
		b, err := refReadByte(o, at)
		if err != nil {
			return err
		}
		dst[i] = b
	}
	return nil
}

func refReadByte(o *overlay, off uint64) (byte, error) {
	switch {
	case off < 128:
		return o.meta[off], nil
	case off == RegCode:
		return o.code, nil
	case off >= RegAddr && off < RegAddr+4:
		return byte(o.addr >> ((off - RegAddr) * 8)), nil
	case off >= RegMulti && off < RegMulti+2:
		return byte(o.multi >> ((off - RegMulti) * 8)), nil
	case off == RegExec:
		return 0, nil
	case off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize:
		return o.progBuf[off-ProgBufOffset], nil
	case off > RegCode && off < RegExec:
		return 0, nil
	default:
		return 0, fmt.Errorf("pram: read from unmapped overlay offset +%#x", off)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// seededOverlay returns a window whose registers and program buffer hold
// random bytes, so a write that leaves a byte alone and one that zeroes
// it cannot agree by accident.
func seededOverlay(rng *rand.Rand) *overlay {
	o := newOverlay(0)
	o.code = uint8(rng.Intn(256))
	o.addr = rng.Uint32()
	o.multi = uint16(rng.Intn(1 << 16))
	rng.Read(o.progBuf[:])
	return o
}

// burstCases calls fn for every window offset and every burst length up
// to the row width that stays within one window row, plus a few
// offsets past the window and one below its base (a wrapped offset).
func burstCases(fn func(off uint64, n int)) {
	rb := uint64(DefaultGeometry().RowBytes)
	for off := uint64(0); off < WindowSize; off++ {
		for n := uint64(1); n <= rb-off%rb; n++ {
			fn(off, int(n))
		}
	}
	for _, off := range []uint64{WindowSize, WindowSize + 7, ^uint64(0) - 3} {
		fn(off, 4)
	}
}

func TestOverlayWriteMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	burstCases(func(off uint64, n int) {
		want := seededOverlay(rng)
		got := new(overlay)
		*got = *want
		data := make([]byte, n)
		rng.Read(data)
		wantExec, wantErr := refWrite(want, off, data)
		gotExec, gotErr := got.write(off, data)
		if errText(gotErr) != errText(wantErr) || gotExec != wantExec {
			t.Fatalf("write(+%#x, %d B) = (exec %v, %v), reference (exec %v, %v)",
				off, n, gotExec, gotErr, wantExec, wantErr)
		}
		if *got != *want {
			t.Fatalf("write(+%#x, %d B) left the window %+v, reference %+v", off, n, *got, *want)
		}
	})
}

func TestOverlayReadMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	burstCases(func(off uint64, n int) {
		o := seededOverlay(rng)
		status := byte(StatusBusy)
		if rng.Intn(2) == 0 {
			status = StatusReady
		}
		want := make([]byte, n)
		rng.Read(want)
		got := append([]byte(nil), want...)
		wantErr := refRead(o, off, want, status)
		gotErr := o.read(off, got, status)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("read(+%#x, %d B) error %v, reference %v", off, n, gotErr, wantErr)
		}
		if string(got) != string(want) {
			t.Fatalf("read(+%#x, %d B) = %x, reference %x", off, n, got, want)
		}
	})
}
