package ssd

import "dramless/internal/mem"

// freeEntries recycles buffer entries (struct + page frame) across
// simulation runs, keyed by page size. Recycled entries hold stale data;
// newEntry's callers either fill the whole page or zero it, exactly as
// with locally recycled entries.
var freeEntries mem.FreeList[int, *bufEntry]

// Release returns the buffer's entries and the array's page frames to
// their package free lists. Call only once the device's contents are no
// longer needed.
func (s *SSD) Release() {
	pb := s.cfg.Media.PageBytes
	for lpn, e := range s.buf {
		freeEntries.Put(pb, e)
		delete(s.buf, lpn)
	}
	freeEntries.Put(pb, s.freeEnts...)
	s.freeEnts = s.freeEnts[:0]
	s.arr.Release()
}

// CopyFrom clones src's buffer contents, FTL mappings, firmware and
// array state into s. Both SSDs must have been built from the same
// Config (histogram handles resolve at construction against each side's
// own observer, so they are deliberately not copied). Buffer entries are
// drawn through s.newEntry, so the two devices never alias pages.
func (s *SSD) CopyFrom(src *SSD) {
	for lpn, e := range s.buf {
		s.recycle(e)
		delete(s.buf, lpn)
	}
	for lpn, e := range src.buf {
		ne := s.newEntry()
		copy(ne.data, e.data)
		ne.dirty = e.dirty
		ne.tick = e.tick
		s.buf[lpn] = ne
	}
	s.tick = src.tick
	s.dramPipe.CopyFrom(src.dramPipe)
	s.stats = src.stats
	s.arr.CopyFrom(src.arr)
	s.ftl.CopyFrom(src.ftl)
	s.fw.CopyFrom(src.fw)
}

// CopyFrom clones src's mapping tables, free-space accounting and GC
// totals into f. The GC scratch buffer is reusable working memory, not
// state, and stays as-is.
func (f *ftl) CopyFrom(src *ftl) {
	f.l2p = copyMap(src.l2p)
	f.p2l = copyMap(src.p2l)
	f.validIn = copyMap(src.validIn)
	f.writtenIn = copyMap(src.writtenIn)
	f.written = copyMap(src.written)
	f.freeHead = src.freeHead
	f.freeQueue = append(f.freeQueue[:0], src.freeQueue...)
	f.gcRuns = src.gcRuns
	f.gcMoves = src.gcMoves
}

func copyMap[K comparable, V any](src map[K]V) map[K]V {
	dst := make(map[K]V, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// CopyFrom clones src's core timelines and request total into f.
func (f *Firmware) CopyFrom(src *Firmware) {
	f.cores.CopyFrom(src.cores)
	f.reqs = src.reqs
}

// CopyFrom clones the firmware-complex state into f. The wrapped device
// is owned (and separately forked) by the caller.
func (f *FirmwareManaged) CopyFrom(src *FirmwareManaged) {
	f.fw.CopyFrom(src.fw)
}
