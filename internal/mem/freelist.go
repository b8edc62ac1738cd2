package mem

import "sync"

// FreeList recycles storage across simulation runs: one LIFO stack of
// values per key, guarded by a mutex so the experiment engine's workers
// can share it. Forking a checkpoint and building a fresh component
// graph per experiment cell would otherwise re-allocate (and the GC
// re-scan) the storage the previous cell just dropped. Recycled values
// carry stale contents; each owner zeroes or overwrites them as its own
// invariants require. A FreeList never drops a value (the standard
// library's pool empties on every GC cycle, forcing fresh allocations
// instead); since owners allocate only when Get reports false, what a
// list holds per key is bounded by the most values of that key ever live
// at once. The zero value is an empty list ready for use.
type FreeList[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K][]V
}

// Get pops the most recently put value for k. It reports false when
// none is left.
func (l *FreeList[K, V]) Get(k K) (V, bool) {
	var zero V
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.byKey[k]
	n := len(s)
	if n == 0 {
		return zero, false
	}
	v := s[n-1]
	s[n-1] = zero
	l.byKey[k] = s[:n-1]
	return v, true
}

// Put pushes vs for k; the last of them is the next Get's result.
func (l *FreeList[K, V]) Put(k K, vs ...V) {
	if len(vs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byKey == nil {
		l.byKey = map[K][]V{}
	}
	l.byKey[k] = append(l.byKey[k], vs...)
}
