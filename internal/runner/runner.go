// Package runner provides the parallel run engine behind the experiment
// harness: a concurrency-safe, deduplicating result cache over a bounded
// worker pool. Each distinct key is computed exactly once
// (singleflight); concurrent requests for an in-flight key coalesce onto
// the same computation, and distinct keys execute on at most Workers
// goroutines at a time.
//
// The runner parallelizes *across* independent computations only - each
// computation itself stays single-goroutine - so a deterministic
// function stays deterministic under any worker count: the cache returns
// the same value for a key no matter which worker produced it or in what
// order requests arrived.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Stats is the engine's cache and pool accounting.
type Stats struct {
	// Runs counts distinct keys actually computed (cache misses).
	Runs int64
	// Hits counts requests served from an already-completed cell.
	Hits int64
	// Coalesced counts requests that attached to an in-flight
	// computation instead of starting their own.
	Coalesced int64
	// Workers is the pool bound.
	Workers int
}

// cell is one memoized computation.
type cell[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Runner is a deduplicating cache over a bounded worker pool. The zero
// value is not usable; construct with New.
type Runner[K comparable, V any] struct {
	fn  func(K) (V, error)
	sem chan struct{}

	mu    sync.Mutex
	cells map[K]*cell[V]

	runs      atomic.Int64
	hits      atomic.Int64
	coalesced atomic.Int64
}

// New builds a runner computing values with fn on at most workers
// concurrent goroutines. workers <= 0 selects GOMAXPROCS.
func New[K comparable, V any](workers int, fn func(K) (V, error)) *Runner[K, V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner[K, V]{
		fn:    fn,
		sem:   make(chan struct{}, workers),
		cells: map[K]*cell[V]{},
	}
}

// Workers returns the pool bound.
func (r *Runner[K, V]) Workers() int { return cap(r.sem) }

// lookup returns the cell for key, creating it if absent. started
// reports whether the caller owns the computation. count selects whether
// a pre-existing cell bumps the hit/coalesced counters (Get) or not
// (Prefetch, which is advisory).
func (r *Runner[K, V]) lookup(key K, count bool) (c *cell[V], started bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cells[key]; ok {
		if count {
			select {
			case <-c.done:
				r.hits.Add(1)
			default:
				r.coalesced.Add(1)
			}
		}
		return c, false
	}
	c = &cell[V]{done: make(chan struct{})}
	r.cells[key] = c
	r.runs.Add(1)
	return c, true
}

// exec computes one owned cell under the pool bound. A panicking fn is
// captured as the cell's error so a bad run cannot wedge the pool or
// kill an unrelated goroutine; the worker slot and the done channel are
// released no matter how fn exits.
func (r *Runner[K, V]) exec(key K, c *cell[V]) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("runner: panic computing %v: %v", key, p)
		}
	}()
	c.val, c.err = r.fn(key)
}

// Get returns the value for key, computing it at most once across all
// callers. Concurrent Gets of the same key share one computation; the
// calling goroutine counts against the worker bound while it computes.
func (r *Runner[K, V]) Get(key K) (V, error) {
	c, started := r.lookup(key, true)
	if started {
		r.exec(key, c)
	}
	<-c.done
	return c.val, c.err
}

// Prefetch starts computing keys in the background without waiting.
// Keys already cached or in flight are skipped (and not counted as
// hits). A later Get picks up the finished or in-flight result.
func (r *Runner[K, V]) Prefetch(keys ...K) {
	for _, key := range keys {
		if c, started := r.lookup(key, false); started {
			go r.exec(key, c)
		}
	}
}

// Forget drops a completed key from the cache and returns the value it
// held, so the next request for key computes it again. ok reports
// whether a completed cell was dropped: an absent key, or one still in
// flight, is left alone.
func (r *Runner[K, V]) Forget(key K) (val V, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, found := r.cells[key]
	if !found {
		return val, false
	}
	select {
	case <-c.done:
	default:
		return val, false
	}
	delete(r.cells, key)
	return c.val, true
}

// Stats returns a snapshot of the cache and pool accounting.
func (r *Runner[K, V]) Stats() Stats {
	return Stats{
		Runs:      r.runs.Load(),
		Hits:      r.hits.Load(),
		Coalesced: r.coalesced.Load(),
		Workers:   r.Workers(),
	}
}

// String renders the snapshot for the CLI's engine report.
func (s Stats) String() string {
	return fmt.Sprintf("%d simulations, %d cache hits, %d coalesced, %d workers",
		s.Runs, s.Hits, s.Coalesced, s.Workers)
}
