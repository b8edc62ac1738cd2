package flash

import "dramless/internal/mem"

// freeFrames recycles page frames across simulation runs, keyed by
// page size (media profiles differ). Recycled frames hold stale bytes;
// newFrame zeroes on acquisition, CopyFrom overwrites whole frames and
// skips the clear.
var freeFrames mem.FreeList[int, []byte]

// Release returns every stored and recycled page frame to the package
// free list and empties the store. Call only once the array's contents
// are no longer needed.
func (a *Array) Release() {
	pb := a.prof.PageBytes
	for page, f := range a.store {
		freeFrames.Put(pb, f)
		delete(a.store, page)
	}
	freeFrames.Put(pb, a.freePages...)
	a.freePages = a.freePages[:0]
}

// CopyFrom clones src's timelines, activity stats and page contents into
// a. Both arrays must share the same profile and page count. Page frames
// are drawn from a's own slab and recycle list, so the two arrays never
// alias storage; those are allocation scaffolding, not simulated state,
// and are left as-is.
func (a *Array) CopyFrom(src *Array) {
	for i := range a.dies {
		a.dies[i].CopyFrom(src.dies[i])
	}
	a.chan_.CopyFrom(src.chan_)
	a.stats = src.stats
	for page, f := range a.store {
		a.freePages = append(a.freePages, f)
		delete(a.store, page)
	}
	for page, data := range src.store {
		f := a.rawFrame()
		if f == nil {
			f = a.newFrame()
		}
		copy(f, data)
		a.store[page] = f
	}
}

// Release returns the NOR contents' pages to the mem package free list.
func (n *NOR) Release() { n.store.Release() }

// CopyFrom clones src's bus timeline, traffic totals and contents into n.
func (n *NOR) CopyFrom(src *NOR) {
	n.bus.CopyFrom(src.bus)
	n.store.CopyFrom(src.store)
	n.reads = src.reads
	n.writes = src.writes
	n.bytesRead = src.bytesRead
	n.bytesWritten = src.bytesWritten
}
