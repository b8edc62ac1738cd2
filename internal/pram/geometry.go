// Package pram models the 3x nm multi-partition phase-change memory
// module at the heart of DRAM-less: real data storage with SET/RESET cell
// state, multiple row-buffer pairs (RAB/RDB), the program buffer reached
// through the overlay-window register file, multi-partition array
// parallelism, and LPDDR2-NVM three-phase addressing with the Table II
// timing. The model is both functional (bytes written are bytes read) and
// timed (every operation reserves the hardware resources it would occupy).
package pram

import (
	"fmt"
	"math/bits"

	"dramless/internal/lpddr"
	"dramless/internal/sim"
)

// Geometry fixes the address layout of one PRAM module.
//
// A module stores RowsPerModule rows of RowBytes bytes. The 256-bit row
// (32 B) is the unit the multi-partition bank senses into an RDB and the
// unit the program buffer writes back. Rows stripe across partitions on
// their low address bits (the dual-wordline block layout of Figure 3b),
// so sequential rows land on different partitions and can be interleaved.
//
// A full row address is delivered in two pieces per three-phase
// addressing: the low LowerBits go with ACTIVATE, the remaining upper
// bits are stored in a RAB by PREACTIVE.
type Geometry struct {
	// RowBytes is the row width: 32 B (256-bit parallel bank I/O).
	RowBytes int
	// RowsPerModule is the number of rows the module stores.
	RowsPerModule uint64
	// Partitions is the array partition count (16).
	Partitions int
	// LowerBits is how many row-address bits ride with the ACTIVATE
	// command; the rest must come from the selected RAB.
	LowerBits int
	// WordBytes is the program unit: selective erasing resets one word at
	// a time (4 B in this model).
	WordBytes int
	// EraseRows is how many rows a bulk erase clears at once. Erase
	// resets "a large number of cells (greater than cells in a program
	// unit)" - we model a 64-row erase segment.
	EraseRows int

	// Sub-partition structure (Figure 3b). These do not change request
	// timing - the 256-bit bank I/O already aggregates them - but fix the
	// physical decomposition a row maps onto.

	// TilesPerPartition is the resistive tile count per partition (64).
	TilesPerPartition int
	// TileBLs and TileWLs are each tile's bitline and wordline counts
	// (2048 x 4096 PRAM cores).
	TileBLs int
	TileWLs int
}

// DefaultGeometry matches the paper's device: 32 B rows, 16 partitions,
// 14 lower row-address bits, 4 M rows (128 MiB) per module so the
// 2-channel x 16-package subsystem totals 4 GiB.
func DefaultGeometry() Geometry {
	return Geometry{
		RowBytes:          32,
		RowsPerModule:     1 << 22,
		Partitions:        16,
		LowerBits:         14,
		WordBytes:         4,
		EraseRows:         64,
		TilesPerPartition: 64,
		TileBLs:           2048,
		TileWLs:           4096,
	}
}

// Validate reports descriptive errors for unusable geometries.
func (g Geometry) Validate() error {
	switch {
	case g.RowBytes <= 0 || g.RowBytes&(g.RowBytes-1) != 0:
		return fmt.Errorf("pram: RowBytes must be a positive power of two, got %d", g.RowBytes)
	case g.RowsPerModule == 0 || g.RowsPerModule&(g.RowsPerModule-1) != 0:
		return fmt.Errorf("pram: RowsPerModule must be a positive power of two, got %d", g.RowsPerModule)
	case g.Partitions <= 0 || g.Partitions&(g.Partitions-1) != 0:
		return fmt.Errorf("pram: Partitions must be a positive power of two, got %d", g.Partitions)
	case g.LowerBits <= 0 || g.LowerBits > 14:
		return fmt.Errorf("pram: LowerBits must be 1..14 (ACTIVATE address field), got %d", g.LowerBits)
	case g.WordBytes <= 0 || g.RowBytes%g.WordBytes != 0:
		return fmt.Errorf("pram: WordBytes %d must divide RowBytes %d", g.WordBytes, g.RowBytes)
	case g.EraseRows <= 0:
		return fmt.Errorf("pram: EraseRows must be positive, got %d", g.EraseRows)
	}
	if upper := g.rowBits() - g.LowerBits; upper > 14 {
		return fmt.Errorf("pram: %d upper row bits exceed the 14-bit RAB field (reduce RowsPerModule)", upper)
	}
	switch {
	case g.TilesPerPartition <= 0 || g.TilesPerPartition%2 != 0:
		return fmt.Errorf("pram: TilesPerPartition must be positive and even (two half partitions), got %d", g.TilesPerPartition)
	case g.TileBLs <= 0 || g.TileWLs <= 0:
		return fmt.Errorf("pram: tile dimensions must be positive (%d x %d)", g.TileBLs, g.TileWLs)
	}
	return nil
}

// TileAddress is the sub-partition decomposition of one row (Figure 3b):
// which partition serves it, which half partition (each with its own
// local Y-decoder), which dual-wordline block and tile within that half,
// and the wordline inside the tile. The 256-bit row senses through both
// halves at once - "64 I/O operations per half partition ... a 128-bit
// parallel data access for each partition" per half.
type TileAddress struct {
	Partition     int
	HalfPartition int // 0 or 1
	Block         int // dual-WL scheme groups every two tiles
	Tile          int // tile within the half partition
	Wordline      int
}

// Decompose maps a row address onto the tile structure. Rows spread over
// the partition's wordlines first (a wordline holds one row slice in
// every tile of the half), then wrap.
func (g Geometry) Decompose(rowAddr uint64) (TileAddress, error) {
	if err := g.CheckRow(rowAddr); err != nil {
		return TileAddress{}, err
	}
	tilesPerHalf := g.TilesPerPartition / 2
	inPart := rowAddr / uint64(g.Partitions) // row index within the partition
	wl := int(inPart % uint64(g.TileWLs))
	beyond := int(inPart / uint64(g.TileWLs))
	tile := beyond % tilesPerHalf
	return TileAddress{
		Partition:     g.PartitionOf(rowAddr),
		HalfPartition: beyond / tilesPerHalf % 2,
		Block:         tile / 2,
		Tile:          tile,
		Wordline:      wl,
	}, nil
}

// CellsPerPartition returns the PRAM core count one partition holds.
func (g Geometry) CellsPerPartition() int64 {
	return int64(g.TilesPerPartition) * int64(g.TileBLs) * int64(g.TileWLs)
}

func (g Geometry) rowBits() int { return bits.Len64(g.RowsPerModule - 1) }

// Size returns the module capacity in bytes.
func (g Geometry) Size() uint64 { return g.RowsPerModule * uint64(g.RowBytes) }

// WordsPerRow returns how many program units one row holds.
func (g Geometry) WordsPerRow() int { return g.RowBytes / g.WordBytes }

// RowOf returns the row address containing byte address addr.
func (g Geometry) RowOf(addr uint64) uint64 { return addr / uint64(g.RowBytes) }

// ColOf returns the byte offset of addr within its row.
func (g Geometry) ColOf(addr uint64) int { return int(addr % uint64(g.RowBytes)) }

// PartitionOf returns the partition serving the given row. Rows stripe
// across partitions on their low bits.
func (g Geometry) PartitionOf(row uint64) int { return int(row % uint64(g.Partitions)) }

// SplitRow splits a full row address into the upper part (stored in a RAB
// by PREACTIVE) and the lower part (delivered with ACTIVATE).
func (g Geometry) SplitRow(row uint64) (upper, lower uint32) {
	return uint32(row >> g.LowerBits), uint32(row & (1<<g.LowerBits - 1))
}

// JoinRow recomposes a full row address from its parts, as the device's
// row decoder does during the activate phase.
func (g Geometry) JoinRow(upper, lower uint32) uint64 {
	return uint64(upper)<<g.LowerBits | uint64(lower)
}

// EraseBase returns the first row of the erase segment containing row.
func (g Geometry) EraseBase(row uint64) uint64 {
	return row - row%uint64(g.EraseRows)
}

// CheckRow returns an error when row is outside the module.
func (g Geometry) CheckRow(row uint64) error {
	if row >= g.RowsPerModule {
		return fmt.Errorf("pram: row %#x outside module (%#x rows)", row, g.RowsPerModule)
	}
	return nil
}

// Row storage is segmented: segRows consecutive rows share one lazily
// allocated rowSeg whose slabs hold data, per-word cell state and the
// per-row program/read timestamps. Keying storage per segment instead of
// per 32 B row keeps the map three orders of magnitude smaller, and the
// module's one-entry segment memo turns the sequential row streams the
// datapath produces into plain array indexing (the per-row map was the
// top non-copy cost of the whole suite once the caches stopped
// allocating).
const (
	segBits = 8 // 256 rows (8 KiB of data) per segment
	segRows = 1 << segBits
	segMask = segRows - 1
)

// rowSeg is the storage of segRows consecutive rows. All slabs use the
// Go zero value as "pristine": data reads back zero and state is
// lpddr.CellFresh until a program or LoadRow marks the row written.
type rowSeg struct {
	data     []byte            // segRows * RowBytes
	state    []lpddr.CellState // segRows * WordsPerRow
	written  []bool            // per row: ever programmed or loaded
	lastProg []sim.Time        // per row: last program completion
	lastRead []sim.Time        // per row: last array activation
}

// newSeg returns a pristine segment, recycled when the free list holds
// one for g.
func newSeg(g Geometry) *rowSeg {
	if s, ok := freeSegs.Get(g); ok {
		s.zero()
		return s
	}
	return allocSeg(g)
}

// allocSeg allocates a fresh, pristine segment.
func allocSeg(g Geometry) *rowSeg {
	return &rowSeg{
		data:     make([]byte, segRows*g.RowBytes),
		state:    make([]lpddr.CellState, segRows*g.WordsPerRow()),
		written:  make([]bool, segRows),
		lastProg: make([]sim.Time, segRows),
		lastRead: make([]sim.Time, segRows),
	}
}

// rowData returns the data slab of row idx within the segment.
func (s *rowSeg) rowData(idx, rowBytes int) []byte {
	return s.data[idx*rowBytes : (idx+1)*rowBytes]
}

// rowState returns the per-word cell states of row idx within the segment.
func (s *rowSeg) rowState(idx, wordsPerRow int) []lpddr.CellState {
	return s.state[idx*wordsPerRow : (idx+1)*wordsPerRow]
}
