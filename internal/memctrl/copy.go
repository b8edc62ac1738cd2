package memctrl

import "sync"

// scratchPool recycles the per-channel batch and wave scratch slices
// across subsystem lifetimes. Every forked experiment cell builds a
// fresh Subsystem whose scratch would otherwise re-grow from zero
// capacity over the run's thousands of batched requests; recycling keeps
// the grown capacity. Contents are garbage between uses (every consumer
// resets to [:0] before appending).
var scratchPool = struct {
	mu     sync.Mutex
	rows   [][]rowReq
	writes [][]writeReq
	rWaves [][][]*rowReq
	wWaves [][][]*writeReq
}{}

func pooledRows() []rowReq {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.rows)
	if n == 0 {
		return nil
	}
	s := scratchPool.rows[n-1]
	scratchPool.rows[n-1] = nil
	scratchPool.rows = scratchPool.rows[:n-1]
	return s[:0]
}

func pooledWrites() []writeReq {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.writes)
	if n == 0 {
		return nil
	}
	s := scratchPool.writes[n-1]
	scratchPool.writes[n-1] = nil
	scratchPool.writes = scratchPool.writes[:n-1]
	return s[:0]
}

func pooledRWaves() [][]*rowReq {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.rWaves)
	if n == 0 {
		return nil
	}
	s := scratchPool.rWaves[n-1]
	scratchPool.rWaves[n-1] = nil
	scratchPool.rWaves = scratchPool.rWaves[:n-1]
	return s
}

func pooledWWaves() [][]*writeReq {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	n := len(scratchPool.wWaves)
	if n == 0 {
		return nil
	}
	s := scratchPool.wWaves[n-1]
	scratchPool.wWaves[n-1] = nil
	scratchPool.wWaves = scratchPool.wWaves[:n-1]
	return s
}

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
// segment pool and the batch/wave scratch to the scratch pool. Call only
// once the run's results have been collected.
func (s *Subsystem) Release() {
	scratchPool.mu.Lock()
	for c := range s.batches {
		if s.batches[c] != nil {
			scratchPool.rows = append(scratchPool.rows, s.batches[c])
			s.batches[c] = nil
		}
		if s.wBatches[c] != nil {
			scratchPool.writes = append(scratchPool.writes, s.wBatches[c])
			s.wBatches[c] = nil
		}
	}
	for _, ch := range s.channels {
		if ch.rWaves != nil {
			scratchPool.rWaves = append(scratchPool.rWaves, ch.rWaves)
			ch.rWaves = nil
		}
		if ch.wWaves != nil {
			scratchPool.wWaves = append(scratchPool.wWaves, ch.wWaves)
			ch.wWaves = nil
		}
	}
	scratchPool.mu.Unlock()
	for _, ch := range s.channels {
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
