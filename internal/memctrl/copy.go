package memctrl

import "dramless/internal/mem"

// chanScratch is one channel's batch and wave scratch. freeScratch
// recycles it across subsystem lifetimes: every forked experiment cell
// builds a fresh Subsystem whose scratch would otherwise re-grow from
// zero capacity over the run's thousands of batched requests;
// recycling keeps the grown capacity. Contents are garbage between uses
// (every consumer resets to [:0] before appending).
type chanScratch struct {
	rows   []rowReq
	writes []writeReq
	rWaves [][]*rowReq
	wWaves [][]*writeReq
}

var freeScratch mem.FreeList[struct{}, chanScratch]

// CopyFrom clones src's complete subsystem state into s: boot status,
// declared write-intent ranges, wear-leveler position, and every
// channel's scheduler and device state. Both subsystems must have been
// built from the same Config; construction-time wiring (intent closures,
// instruments, scratch buffers) is left to the fresh construction.
func (s *Subsystem) CopyFrom(src *Subsystem) {
	s.bootedAt = src.bootedAt
	s.booted = src.booted
	s.intents = append(s.intents[:0], src.intents...)
	if s.wear != nil {
		s.wear.CopyFrom(src.wear)
	}
	for i, ch := range s.channels {
		ch.copyFrom(src.channels[i])
	}
}

// Release returns every module's row segments to the package-level
// segment free list and the batch/wave scratch to freeScratch. Call only
// once the run's results have been collected.
func (s *Subsystem) Release() {
	for c, ch := range s.channels {
		sc := chanScratch{s.batches[c], s.wBatches[c], ch.rWaves, ch.wWaves}
		if sc.rows != nil || sc.writes != nil || sc.rWaves != nil || sc.wWaves != nil {
			freeScratch.Put(struct{}{}, sc)
		}
		s.batches[c], s.wBatches[c], ch.rWaves, ch.wWaves = nil, nil, nil, nil
		for _, m := range ch.modules {
			m.Release()
		}
	}
}

func (w *wearState) CopyFrom(src *wearState) {
	copy(w.start, src.start)
	copy(w.gap, src.gap)
	copy(w.writes, src.writes)
	w.moves = src.moves
	w.movePS = src.movePS
	w.perRow = make(map[uint64]int64, len(src.perRow))
	for row, c := range src.perRow {
		w.perRow[row] = c
	}
}

func (ch *channel) copyFrom(src *channel) {
	ch.cmdBus.CopyFrom(src.cmdBus)
	// The data bus is shared by every module on the channel (ShareBus),
	// so it is copied exactly once here, never per module.
	ch.dataBus.CopyFrom(src.dataBus)
	for i, m := range ch.modules {
		m.CopyFrom(src.modules[i])
	}
	copy(ch.modLastDone, src.modLastDone)
	ch.lastDone = src.lastDone
	copy(ch.nextBA, src.nextBA)
	ch.stats = src.stats
}
