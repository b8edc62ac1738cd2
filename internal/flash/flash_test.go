package flash

import (
	"bytes"
	"testing"
	"testing/quick"

	"dramless/internal/sim"
)

func smallArray(t *testing.T) *Array {
	t.Helper()
	p := SLC()
	p.PageBytes = 1024
	p.PagesPerBlock = 4
	p.Dies = 2
	a, err := NewArray(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Name: "a", PageBytes: 0, PagesPerBlock: 4, Dies: 1, ChannelBW: 1, ReadPage: 1, ProgramPage: 1},
		{Name: "b", PageBytes: 16, PagesPerBlock: 4, Dies: 0, ChannelBW: 1, ReadPage: 1, ProgramPage: 1},
		{Name: "c", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 0, ReadPage: 1, ProgramPage: 1},
		{Name: "d", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 1},                // no page latencies
		{Name: "e", PageBytes: 16, PagesPerBlock: 4, Dies: 1, ChannelBW: 1, ChunkBytes: 4}, // no chunk latencies
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %s accepted", p.Name)
		}
	}
	if _, err := NewArray(SLC(), 0); err == nil {
		t.Error("zero-page array accepted")
	}
}

func TestArrayProgramRead(t *testing.T) {
	a := smallArray(t)
	data := bytes.Repeat([]byte{0xC3}, 1024)
	done, err := a.ProgramPage(0, 5, data)
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Microseconds(300) {
		t.Fatalf("program done at %v, want >= 300us SLC program", done)
	}
	got, _, err := a.ReadPage(done, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page round trip failed")
	}
	st := a.Stats()
	if st.PagePrograms != 1 || st.PageReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArrayDieParallelism(t *testing.T) {
	a := smallArray(t)
	// Pages 0 and 1 stripe onto different dies: their senses overlap and
	// only the channel serializes the transfers.
	_, d0, _ := a.ReadPage(0, 0)
	_, d1, _ := a.ReadPage(0, 1)
	// Serial senses would be >= 2x the 25 us page read.
	if d1-d0 >= sim.Microseconds(25) {
		t.Fatalf("dies serialized: %v then %v", d0, d1)
	}
	// Same die (pages 0 and 2) must serialize the sense.
	b := smallArray(t)
	_, e0, _ := b.ReadPage(0, 0)
	_, e2, _ := b.ReadPage(0, 2)
	if e2-e0 < sim.Microseconds(25) {
		t.Fatalf("same-die reads overlapped: %v then %v", e0, e2)
	}
}

func TestEraseBlockClearsPages(t *testing.T) {
	a := smallArray(t)
	for pg := uint64(4); pg < 8; pg++ { // block 1
		if _, err := a.ProgramPage(0, pg, bytes.Repeat([]byte{9}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	done, err := a.EraseBlock(sim.Milliseconds(10), 5)
	if err != nil {
		t.Fatal(err)
	}
	if done < sim.Milliseconds(10)+sim.Microseconds(2000) {
		t.Fatalf("erase done at %v, want >= 2ms SLC erase", done)
	}
	got, _, _ := a.ReadPage(done, 5)
	for _, b := range got {
		if b != 0 {
			t.Fatal("erased page still holds data")
		}
	}
	// Neighbouring block untouched? Program page 0 (block 0) first.
	b2 := smallArray(t)
	b2.ProgramPage(0, 0, bytes.Repeat([]byte{7}, 1024))
	b2.EraseBlock(sim.Milliseconds(10), 5)
	got, _, _ = b2.ReadPage(sim.Milliseconds(100), 0)
	if got[0] != 7 {
		t.Fatal("erase leaked into another block")
	}
}

func TestArrayBoundsChecked(t *testing.T) {
	a := smallArray(t)
	if _, _, err := a.ReadPage(0, 64); err == nil {
		t.Error("read past array accepted")
	}
	if _, err := a.ProgramPage(0, 64, nil); err == nil {
		t.Error("program past array accepted")
	}
	if _, err := a.ProgramPage(0, 0, make([]byte, 2048)); err == nil {
		t.Error("oversized program accepted")
	}
	if _, err := a.EraseBlock(0, 99); err == nil {
		t.Error("erase past array accepted")
	}
}

func TestChunkedMediaTiming(t *testing.T) {
	p := PRAMMedia()
	// 16 KiB / 256 B = 64 chunks.
	if got, want := p.PageRead(), 64*sim.Nanoseconds(100); got != want {
		t.Fatalf("chunked page read = %v, want %v", got, want)
	}
	if got, want := p.PageProgram(), 64*sim.Microseconds(18); got != want {
		t.Fatalf("chunked page program = %v, want %v", got, want)
	}
}

func TestPageBufferProfileSanity(t *testing.T) {
	p := PageBufferPRAM()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Dies != 1 {
		t.Fatal("PAGE-buffer page ops must not overlap (whole-subsystem ops)")
	}
	if p.EraseBlock != 0 {
		t.Fatal("PRAM page interface needs no erase")
	}
	if p.PageRead() >= SLC().PageRead() {
		t.Fatal("PAGE-buffer reads must beat flash")
	}
}

func TestNORDrainAndTraffic(t *testing.T) {
	n := NewNOR(1 << 16)
	if _, err := n.Write(0, 0, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if n.Drain() <= 0 {
		t.Fatal("drain at zero after a write")
	}
	r, w, rb, wb := n.Traffic()
	if r != 0 || w != 1 || rb != 0 || wb != 64 {
		t.Fatalf("traffic = %d %d %d %d", r, w, rb, wb)
	}
	if _, _, err := n.Read(0, 1<<16, 1); err == nil {
		t.Error("out-of-range NOR read accepted")
	}
}

// TestNORReadIntoAllocationFree pins the accelerator's NOR-intf load
// path: ReadInto returns Read's bytes, completion time and traffic, and
// allocates nothing.
func TestNORReadIntoAllocationFree(t *testing.T) {
	viaRead, viaInto := NewNOR(1<<16), NewNOR(1<<16)
	payload := bytes.Repeat([]byte{7, 9}, 40)
	for _, n := range []*NOR{viaRead, viaInto} {
		if _, err := n.Write(0, 100, payload); err != nil {
			t.Fatal(err)
		}
	}
	at := sim.Microsecond
	want, wantDone, err := viaRead.Read(at, 96, 90)
	if err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xff}, 90) // stale bytes must be overwritten
	done, err := viaInto.ReadInto(at, 96, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) || done != wantDone {
		t.Fatalf("ReadInto = %v at %v, Read = %v at %v", dst, done, want, wantDone)
	}
	r1, w1, rb1, wb1 := viaRead.Traffic()
	r2, w2, rb2, wb2 := viaInto.Traffic()
	if r1 != r2 || w1 != w2 || rb1 != rb2 || wb1 != wb2 {
		t.Fatalf("traffic: Read %d %d %d %d, ReadInto %d %d %d %d", r1, w1, rb1, wb1, r2, w2, rb2, wb2)
	}
	if _, err := viaInto.ReadInto(at, 1<<16, dst[:1]); err == nil {
		t.Error("out-of-range NOR ReadInto accepted")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := viaInto.ReadInto(at, 96, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NOR ReadInto allocates %.1f objects per call, want 0", allocs)
	}
}

// Property: array pages behave as independent 1 KiB cells under random
// program/erase sequences.
func TestArrayFunctionalProperty(t *testing.T) {
	a := smallArray(t)
	shadow := map[uint64][]byte{}
	now := sim.Time(0)
	f := func(pgSel uint8, fill byte, erase bool) bool {
		pg := uint64(pgSel) % 64
		if erase {
			done, err := a.EraseBlock(now, pg)
			if err != nil {
				return false
			}
			now = done
			base := pg - pg%4
			for p := base; p < base+4; p++ {
				delete(shadow, p)
			}
		} else {
			data := bytes.Repeat([]byte{fill}, 1024)
			done, err := a.ProgramPage(now, pg, data)
			if err != nil {
				return false
			}
			now = done
			shadow[pg] = data
		}
		got, done, err := a.ReadPage(now, pg)
		if err != nil {
			return false
		}
		now = done
		want, ok := shadow[pg]
		if !ok {
			want = make([]byte, 1024)
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyFromDrawsReleasedFrames pins the package free list path of
// checkpoint forking: after one array's Release, CopyFrom into a fresh
// array (its own recycle list and slab still empty) takes every page
// frame from the free list instead of carving a new slab.
func TestCopyFromDrawsReleasedFrames(t *testing.T) {
	src := smallArray(t)
	page := bytes.Repeat([]byte{0x5a}, src.Profile().PageBytes)
	for p := uint64(0); p < 4; p++ {
		if _, err := src.ProgramPage(0, p*5, page); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-build every array outside the measured functions (AllocsPerRun
	// calls each once more to warm up); the donor's Release stocks the
	// free list with as many frames as src holds.
	const runs = 20
	fresh := make([]*Array, 2*(runs+1))
	for i := range fresh {
		fresh[i] = smallArray(t)
	}
	donor := smallArray(t)
	donor.CopyFrom(src)
	donor.Release()

	// A fresh store map allocates on its first insert whatever the
	// frames' source: measure that alone, then require CopyFrom to add
	// nothing to it.
	i := 0
	storeOnly := testing.AllocsPerRun(runs, func() {
		dst := fresh[i]
		i++
		for pg := range src.store {
			dst.store[pg] = nil
		}
	})
	allocs := testing.AllocsPerRun(runs, func() {
		dst := fresh[i]
		i++
		dst.CopyFrom(src)
		dst.Release()
	})
	if allocs != storeOnly {
		t.Fatalf("CopyFrom into a fresh array allocated %.1f objects/run after a Release; want the store map's %.1f", allocs, storeOnly)
	}
}
