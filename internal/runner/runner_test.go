package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetMemoizes(t *testing.T) {
	var calls atomic.Int64
	r := New(4, func(k int) (int, error) {
		calls.Add(1)
		return k * 10, nil
	})
	for i := 0; i < 3; i++ {
		v, err := r.Get(7)
		if err != nil {
			t.Fatal(err)
		}
		if v != 70 {
			t.Fatalf("Get(7) = %d, want 70", v)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fn called %d times, want 1", calls.Load())
	}
	st := r.Stats()
	if st.Runs != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want Runs=1 Hits=2", st)
	}
}

func TestConcurrentGetsCoalesce(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int64
	r := New(4, func(k string) (string, error) {
		calls.Add(1)
		<-gate
		return k + "!", nil
	})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := r.Get("x")
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every waiter attach to the in-flight cell, then release it.
	deadline := time.After(5 * time.Second)
	for r.Stats().Coalesced < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d coalesced, want %d", r.Stats().Coalesced, waiters-1)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("fn called %d times for one key, want 1", calls.Load())
	}
	for i, v := range results {
		if v != "x!" {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
	st := r.Stats()
	if st.Runs != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want Runs=1 Coalesced=%d", st, waiters-1)
	}
}

func TestErrorPropagatesWithoutWedgingPool(t *testing.T) {
	boom := errors.New("cell failed")
	r := New(2, func(k int) (int, error) {
		if k == 13 {
			return 0, boom
		}
		return k, nil
	})

	// The failing cell reports its error to every requester...
	for i := 0; i < 2; i++ {
		if _, err := r.Get(13); !errors.Is(err, boom) {
			t.Fatalf("Get(13) err = %v, want %v", err, boom)
		}
	}
	// ...and the error is cached, not re-run.
	if st := r.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("stats after failures = %+v, want Runs=1 Hits=1", st)
	}
	// The pool still serves other keys afterwards.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if v, err := r.Get(i); err != nil || v != i {
				t.Errorf("Get(%d) = %d, %v", i, v, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool wedged after a failing cell")
	}
}

func TestPanicBecomesError(t *testing.T) {
	r := New(2, func(k string) (int, error) {
		panic("kernel exploded")
	})
	r.Prefetch("a") // a panicking prefetch goroutine must not crash the process
	_, err := r.Get("a")
	if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("err = %v, want wrapped panic", err)
	}
	// Other work proceeds.
	r2 := New(2, func(k string) (int, error) { return len(k), nil })
	if v, _ := r2.Get("ok"); v != 2 {
		t.Fatalf("follow-up Get = %d", v)
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	const bound = 2
	var inFlight, peak atomic.Int64
	r := New(bound, func(k int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		return k, nil
	})
	r.Prefetch(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	for i := 0; i < 10; i++ {
		if _, err := r.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent runs, bound is %d", p, bound)
	}
	if st := r.Stats(); st.Runs != 10 {
		t.Fatalf("stats = %+v, want Runs=10", st)
	}
}

func TestPrefetchDoesNotDoubleCount(t *testing.T) {
	r := New(4, func(k int) (int, error) { return k, nil })
	if _, err := r.Get(1); err != nil {
		t.Fatal(err)
	}
	r.Prefetch(1, 1, 2) // 1 is cached: no hit bump; 2 starts once
	if _, err := r.Get(2); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs != 2 || st.Hits > 1 {
		t.Fatalf("stats = %+v, want Runs=2 and at most one hit", st)
	}
}

func TestForgetRecomputes(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	r := New(2, func(k int) (int, error) {
		if k == 2 {
			<-gate
		}
		return int(calls.Add(1)), nil
	})
	if _, ok := r.Forget(1); ok {
		t.Fatal("Forget of an absent key reported a dropped cell")
	}
	first, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Forget(1); !ok || v != first {
		t.Fatalf("Forget(1) = %d, %v, want %d, true", v, ok, first)
	}
	second, err := r.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatalf("Get after Forget returned the cached value %d, want a recomputation", first)
	}
	if _, err := r.Get(1); err != nil { // a hit on the recomputed cell
		t.Fatal(err)
	}
	// An in-flight key is left in place: its computation still serves
	// later requests instead of being started twice.
	r.Prefetch(2)
	if _, ok := r.Forget(2); ok {
		t.Fatal("Forget dropped an in-flight cell")
	}
	close(gate)
	if _, err := r.Get(2); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("fn called %d times, want 3 (key 1 twice, key 2 once)", got)
	}
	st := r.Stats()
	if st.Runs != 3 || st.Hits+st.Coalesced != 2 || st.Hits < 1 {
		t.Fatalf("stats = %+v, want Runs=3, one hit on key 1 and one hit or coalesce on key 2", st)
	}
}

func TestDefaultWorkersAndString(t *testing.T) {
	r := New[int, int](0, func(k int) (int, error) { return k, nil })
	if r.Workers() < 1 {
		t.Fatalf("Workers() = %d", r.Workers())
	}
	s := Stats{Runs: 3, Hits: 2, Coalesced: 1, Workers: 4}.String()
	want := "3 simulations, 2 cache hits, 1 coalesced, 4 workers"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

func ExampleRunner_Get() {
	r := New(2, func(k int) (int, error) { return k * k, nil })
	v, _ := r.Get(6)
	fmt.Println(v)
	// Output: 36
}
