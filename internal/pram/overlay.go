package pram

import (
	"encoding/binary"
	"fmt"
)

// Overlay window register map (Figure 4 and Section V-B of the paper).
// Offsets are bytes from the overlay window base address (OWBA). The
// window occupies WindowSize bytes of the module's address space; the
// program buffer sits at the end of the register region.
const (
	// RegWindowSize..: 128 B of read-only meta-information describing the
	// window (window size, buffer offset, buffer size).
	RegWindowSize   = 0x00 // 4 B: total window size
	RegBufferOffset = 0x04 // 4 B: program buffer offset within the window
	RegBufferSize   = 0x08 // 4 B: program buffer capacity

	// RegCode receives the command code before an execute (OWBA+0x80).
	RegCode = 0x80
	// RegAddr receives the 4-byte target row address (OWBA+0x8B).
	RegAddr = 0x8B
	// RegMulti is the multi-purpose register: burst size in bytes
	// (OWBA+0x93, 2 bytes).
	RegMulti = 0x93
	// RegExec starts the queued operation when written (OWBA+0xC0).
	RegExec = 0xC0
	// RegStatus reads back device progress: StatusReady or StatusBusy
	// (OWBA+0xD0).
	RegStatus = 0xD0

	// ProgBufOffset is where the program buffer begins (OWBA+0x800).
	ProgBufOffset = 0x800
	// ProgBufSize is the program buffer capacity. One row (32 B) is the
	// program unit of the multi-partition bank; we provision 256 B so a
	// controller can stage several rows back to back.
	ProgBufSize = 0x100

	// WindowSize is the total overlay window span.
	WindowSize = ProgBufOffset + ProgBufSize
)

// Command codes written to RegCode.
const (
	// CmdProgram programs the staged program-buffer bytes to the row in
	// RegAddr.
	CmdProgram = 0x41
	// CmdErase bulk-erases the erase segment containing the row in
	// RegAddr (~60 ms; never used on the DRAM-less data path).
	CmdErase = 0x20
)

// Status register values.
const (
	StatusReady = 0x80
	StatusBusy  = 0x00
)

// overlay is the register-file state of one module's overlay window.
type overlay struct {
	base uint64 // OWBA, byte address within the module
	meta [128]byte

	code  uint8
	addr  uint32 // target row address
	multi uint16 // burst size in bytes

	progBuf [ProgBufSize]byte
}

func newOverlay(base uint64) *overlay {
	o := &overlay{base: base}
	binary.LittleEndian.PutUint32(o.meta[RegWindowSize:], WindowSize)
	binary.LittleEndian.PutUint32(o.meta[RegBufferOffset:], ProgBufOffset)
	binary.LittleEndian.PutUint32(o.meta[RegBufferSize:], ProgBufSize)
	return o
}

// containsRow reports whether any byte of the given row falls inside the
// window; the device checks this during tRCD to route the access to the
// register sets instead of the array.
func (o *overlay) containsRow(rowBase uint64, rowBytes int) bool {
	return rowBase+uint64(rowBytes) > o.base && rowBase < o.base+WindowSize
}

// write applies data at window offset off field by field, in offset
// order: program-buffer spans are one copy, the code/address/multi
// registers take the bytes they cover (a burst may update part of a
// multi-byte register), reserved gaps ignore their bytes, and a covered
// RegExec is reported back (its value is ignored; the act of writing
// starts the operation, which the module runs). The first read-only or
// unmapped byte stops the burst with an error, leaving the bytes before
// it applied.
func (o *overlay) write(off uint64, data []byte) (exec bool, err error) {
	for len(data) > 0 {
		var n int
		switch {
		case off < 128:
			return exec, fmt.Errorf("pram: overlay meta-information at +%#x is read-only", off)
		case off == RegCode:
			o.code, n = data[0], 1
		case off >= RegAddr && off < RegAddr+4:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], o.addr)
			n = copy(b[off-RegAddr:], data)
			o.addr = binary.LittleEndian.Uint32(b[:])
		case off >= RegMulti && off < RegMulti+2:
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], o.multi)
			n = copy(b[off-RegMulti:], data)
			o.multi = binary.LittleEndian.Uint16(b[:])
		case off == RegExec:
			exec, n = true, 1
		case off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize:
			n = copy(o.progBuf[off-ProgBufOffset:], data)
		case off > RegCode && off < RegExec:
			// Reserved space between the register fields: real devices
			// ignore writes there, which lets a controller update the
			// whole register row with one burst.
			n = min(len(data), int(reservedEnd(off)-off))
		default:
			return exec, fmt.Errorf("pram: write to unmapped overlay offset +%#x", off)
		}
		data = data[n:]
		off += uint64(n)
	}
	return exec, nil
}

// read fills dst from window offset off field by field, in offset order.
// status is the value the status register reads back (it depends on
// simulated time, which the module knows). The first unmapped byte
// stops the burst with an error, leaving the bytes before it filled.
func (o *overlay) read(off uint64, dst []byte, status byte) error {
	for len(dst) > 0 {
		var n int
		switch {
		case off < 128:
			n = copy(dst, o.meta[off:])
		case off == RegCode:
			dst[0], n = o.code, 1
		case off >= RegAddr && off < RegAddr+4:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], o.addr)
			n = copy(dst, b[off-RegAddr:])
		case off >= RegMulti && off < RegMulti+2:
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], o.multi)
			n = copy(dst, b[off-RegMulti:])
		case off == RegExec:
			dst[0], n = 0, 1
		case off == RegStatus:
			dst[0], n = status, 1
		case off >= ProgBufOffset && off < ProgBufOffset+ProgBufSize:
			n = copy(dst, o.progBuf[off-ProgBufOffset:])
		case off > RegCode && off < RegExec:
			n = min(len(dst), int(reservedEnd(off)-off))
			clear(dst[:n]) // reserved register space reads as zero
		default:
			return fmt.Errorf("pram: read from unmapped overlay offset +%#x", off)
		}
		dst = dst[n:]
		off += uint64(n)
	}
	return nil
}

// reservedEnd returns the end of the reserved gap holding off, a
// register-region offset outside every register field.
func reservedEnd(off uint64) uint64 {
	switch {
	case off < RegAddr:
		return RegAddr
	case off < RegMulti:
		return RegMulti
	default:
		return RegExec
	}
}
