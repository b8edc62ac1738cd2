package mem

import (
	"bytes"
	"sync"
	"testing"
)

// TestFreeListPerKeyLIFO pins the free list's semantics: each key is its
// own stack, the most recently put value comes back first, and an empty
// key (including on the zero-value list) reports false.
func TestFreeListPerKeyLIFO(t *testing.T) {
	var l FreeList[int, string]
	if v, ok := l.Get(1); ok || v != "" {
		t.Fatalf("Get on zero-value list = %q, %v; want \"\", false", v, ok)
	}
	l.Put(1, "a", "b")
	l.Put(2, "x")
	l.Put(1, "c")
	l.Put(3)
	for _, want := range []string{"c", "b", "a"} {
		if v, ok := l.Get(1); !ok || v != want {
			t.Fatalf("Get(1) = %q, %v; want %q, true", v, ok, want)
		}
	}
	if v, ok := l.Get(1); ok {
		t.Fatalf("Get on drained key = %q, true; want false", v)
	}
	if v, ok := l.Get(3); ok {
		t.Fatalf("Get on key put with no values = %q, true; want false", v)
	}
	if v, ok := l.Get(2); !ok || v != "x" {
		t.Fatalf("Get(2) = %q, %v; want \"x\", true", v, ok)
	}
}

// TestFreeListConcurrentUse shares one list among goroutines, as the
// experiment engine's workers share the package free lists: every value
// put is got back exactly once, whatever the interleaving.
func TestFreeListConcurrentUse(t *testing.T) {
	const workers, perWorker = 4, 200
	var l FreeList[int, int]
	var wg sync.WaitGroup
	got := make([][]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Put(i%2, w*perWorker+i)
				if v, ok := l.Get(i % 2); ok {
					got[w] = append(got[w], v)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[int]bool{}
	for _, vs := range got {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d got twice", v)
			}
			seen[v] = true
		}
	}
	for k := 0; k < 2; k++ {
		for v, ok := l.Get(k); ok; v, ok = l.Get(k) {
			if seen[v] {
				t.Fatalf("value %d got twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d distinct values came back, want %d", len(seen), workers*perWorker)
	}
}

// TestFreeListSteadyStateAllocationFree pins the recycling contract the
// storage owners rely on: once a key's stack has grown, a Get/Put cycle
// touches no heap.
func TestFreeListSteadyStateAllocationFree(t *testing.T) {
	var l FreeList[[2]int, []byte]
	k := [2]int{4096, 1}
	l.Put(k, make([]byte, 4096), make([]byte, 4096))
	allocs := testing.AllocsPerRun(200, func() {
		a, _ := l.Get(k)
		b, _ := l.Get(k)
		l.Put(k, a)
		l.Put(k, b)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put cycle allocates %.1f objects, want 0", allocs)
	}
}

// TestSparseCopyFromReusesPages pins the checkpoint-fork allocation
// contract for sparse stores: once the page free list is warm, cloning a
// store's pages draws every frame from the list instead of allocating.
func TestSparseCopyFromReusesPages(t *testing.T) {
	src := NewSparse()
	page := make([]byte, sparsePage)
	for i := range page {
		page[i] = byte(i*7 + 1)
	}
	// Materialize several pages in the source.
	for p := uint64(0); p < 4; p++ {
		src.Write(p*3*sparsePage, page)
	}

	dst := NewSparse()
	dst.CopyFrom(src) // warm-up: grows dst's map and the page cycle

	allocs := testing.AllocsPerRun(20, func() {
		// Each cycle releases dst's pages to the free list and
		// immediately draws them back; steady state must not touch the
		// heap.
		dst.CopyFrom(src)
	})
	if allocs > 0 {
		t.Fatalf("CopyFrom allocated %.1f objects/run with a warm page free list; want 0", allocs)
	}

	got := make([]byte, sparsePage)
	dst.ReadInto(9*sparsePage, got)
	if !bytes.Equal(got, page) {
		t.Fatal("CopyFrom did not preserve page contents")
	}
}
