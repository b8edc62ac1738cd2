// Package obs is the observability layer of the simulator: a
// deterministic Counters registry (typed counters and gauges, named per
// subsystem) and a Tracer that records simulated-time spans and exports
// them as Chrome chrome://tracing JSON.
//
// The layer is zero-overhead when disabled. Every recording entry point
// is nil-safe — calling Span on a nil *Tracer or reading a nil *Observer
// returns immediately — so model code threads observer handles
// unconditionally and pays one predictable nil check on the hot path
// when observation is off (pinned by TestNilObserverAllocationFree).
//
// Determinism: counters are collected from single-goroutine simulation
// state in fixed code order, and spans are recorded in the simulation's
// (deterministic) dispatch order, so identical runs produce identical
// counter sets and byte-identical trace exports.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dramless/internal/sim"
)

// Kind distinguishes the typed registry entries.
type Kind uint8

const (
	// KindCounter is a monotonically accumulated int64 (events, bytes,
	// picoseconds of busy time).
	KindCounter Kind = iota
	// KindGauge is a point-in-time float64 (hit rates, utilizations).
	KindGauge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Entry is one named registry value.
type Entry struct {
	Name  string
	Kind  Kind
	Int   int64   // counter value (KindCounter)
	Float float64 // gauge value (KindGauge)
}

// Counters is an ordered registry of named counters and gauges. The zero
// value is ready to use. Names are dotted per-subsystem paths
// ("memctrl.ch0.rdb_hits", "accel.pe3.busy_ps"); entries keep their
// registration order, which is deterministic because every collector
// walks its components in fixed code order.
type Counters struct {
	idx  map[string]int
	list []Entry
}

// slot returns the entry index for name, creating it with the given kind.
func (c *Counters) slot(name string, kind Kind) int {
	if i, ok := c.idx[name]; ok {
		return i
	}
	if c.idx == nil {
		c.idx = make(map[string]int)
	}
	c.idx[name] = len(c.list)
	c.list = append(c.list, Entry{Name: name, Kind: kind})
	return len(c.list) - 1
}

// Add accumulates delta into the named counter, registering it on first
// use. Nil-safe.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.list[c.slot(name, KindCounter)].Int += delta
}

// SetGauge sets the named gauge, registering it on first use. Nil-safe.
func (c *Counters) SetGauge(name string, v float64) {
	if c == nil {
		return
	}
	c.list[c.slot(name, KindGauge)].Float = v
}

// Get returns the named counter's value (0 when absent).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	if i, ok := c.idx[name]; ok {
		return c.list[i].Int
	}
	return 0
}

// Gauge returns the named gauge's value (0 when absent).
func (c *Counters) Gauge(name string) float64 {
	if c == nil {
		return 0
	}
	if i, ok := c.idx[name]; ok {
		return c.list[i].Float
	}
	return 0
}

// Has reports whether name is registered.
func (c *Counters) Has(name string) bool {
	if c == nil {
		return false
	}
	_, ok := c.idx[name]
	return ok
}

// Len returns how many entries are registered.
func (c *Counters) Len() int {
	if c == nil {
		return 0
	}
	return len(c.list)
}

// Entries returns the registry in registration order. The slice is
// shared; callers must not mutate it.
func (c *Counters) Entries() []Entry {
	if c == nil {
		return nil
	}
	return c.list
}

// Names returns every registered name in registration order.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.list))
	for i, e := range c.list {
		out[i] = e.Name
	}
	return out
}

// Merge accumulates other into c: counters add, gauges overwrite. New
// names register at the tail in other's order.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for _, e := range other.list {
		switch e.Kind {
		case KindCounter:
			c.Add(e.Name, e.Int)
		case KindGauge:
			c.SetGauge(e.Name, e.Float)
		}
	}
}

// Equal reports whether both registries hold the same entries in the
// same order with identical values. Gauges compare exactly: the
// determinism guarantee is bit-identical floats, not approximate ones.
func (c *Counters) Equal(other *Counters) bool {
	if c.Len() != other.Len() {
		return false
	}
	if c == nil || other == nil {
		return true // both empty
	}
	for i, e := range c.list {
		o := other.list[i]
		if e != o {
			return false
		}
	}
	return true
}

// kind returns the named entry's kind (KindCounter when absent).
func (c *Counters) kind(name string) Kind {
	if c == nil {
		return KindCounter
	}
	if i, ok := c.idx[name]; ok {
		return c.list[i].Kind
	}
	return KindCounter
}

// Diff returns a human-readable description of the first few differences
// between two registries (for test failure messages); empty when Equal.
// Names are reported in sorted order so the output is deterministic
// regardless of registration order; kind mismatches (a gauge in one
// registry, a counter in the other) and pure registration-order skew —
// which Equal rejects even when every value matches — are both reported.
func (c *Counters) Diff(other *Counters) string {
	var sb strings.Builder
	names := map[string]bool{}
	for _, n := range c.Names() {
		names[n] = true
	}
	for _, n := range other.Names() {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	diffs := 0
	for _, n := range ordered {
		if diffs >= 8 {
			fmt.Fprintf(&sb, "  ...\n")
			break
		}
		switch {
		case !c.Has(n):
			fmt.Fprintf(&sb, "  %s: missing left\n", n)
			diffs++
		case !other.Has(n):
			fmt.Fprintf(&sb, "  %s: missing right\n", n)
			diffs++
		case c.kind(n) != other.kind(n):
			fmt.Fprintf(&sb, "  %s: %s != %s\n", n, c.kind(n), other.kind(n))
			diffs++
		case c.Get(n) != other.Get(n) || c.Gauge(n) != other.Gauge(n):
			fmt.Fprintf(&sb, "  %s: %d/%g != %d/%g\n", n, c.Get(n), c.Gauge(n), other.Get(n), other.Gauge(n))
			diffs++
		}
	}
	if diffs == 0 && !c.Equal(other) {
		for i, e := range c.Entries() {
			if i >= other.Len() {
				break
			}
			if o := other.Entries()[i]; e.Name != o.Name {
				fmt.Fprintf(&sb, "  position %d: %q != %q (registration order differs)\n", i, e.Name, o.Name)
				break
			}
		}
	}
	return sb.String()
}

// WriteTo renders the registry as an aligned text table in registration
// order.
func (c *Counters) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range c.Entries() {
		var n int
		var err error
		switch e.Kind {
		case KindGauge:
			n, err = fmt.Fprintf(w, "%-40s %14.4f\n", e.Name, e.Float)
		default:
			n, err = fmt.Fprintf(w, "%-40s %14d\n", e.Name, e.Int)
		}
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// MarshalJSON renders the registry as an ordered array of entries.
func (c *Counters) MarshalJSON() ([]byte, error) {
	type jsonEntry struct {
		Name  string   `json:"name"`
		Kind  string   `json:"kind"`
		Value *int64   `json:"value,omitempty"`
		Gauge *float64 `json:"gauge,omitempty"`
	}
	out := make([]jsonEntry, 0, c.Len())
	for _, e := range c.Entries() {
		je := jsonEntry{Name: e.Name, Kind: e.Kind.String()}
		switch e.Kind {
		case KindGauge:
			g := e.Float
			je.Gauge = &g
		default:
			v := e.Int
			je.Value = &v
		}
		out = append(out, je)
	}
	return json.Marshal(out)
}

// Observer is the handle model code threads through the stack: a
// Counters registry that accumulates across observed runs and an
// optional Tracer for the simulated-time timeline. A nil *Observer is
// the disabled state — every accessor returns the corresponding nil
// handle and recording becomes a no-op.
//
// An Observer is not safe for concurrent use: attach it to runs that
// execute one at a time (the parallel experiment engine never attaches
// observers to its pooled simulations).
type Observer struct {
	counters Counters
	tracer   *Tracer
	hists    HistogramSet
	series   *SeriesSet
	blame    Blame
}

// Option customizes New.
type Option func(*Observer)

// WithTracing enables simulated-time span recording (Chrome trace
// export). Without it the Observer only accumulates counters.
func WithTracing() Option {
	return func(o *Observer) { o.tracer = NewTracer() }
}

// WithSeriesWindow sets the simulated-time window the Observer's series
// accumulate over (DefaultSeriesWindow otherwise). It must precede any
// recording: handles resolve their window at registration.
func WithSeriesWindow(window sim.Duration) Option {
	return func(o *Observer) { o.series = NewSeriesSet(window) }
}

// New builds an Observer.
func New(opts ...Option) *Observer {
	o := &Observer{}
	for _, fn := range opts {
		fn(o)
	}
	if o.series == nil {
		o.series = NewSeriesSet(DefaultSeriesWindow)
	}
	return o
}

// Tracer returns the span recorder, nil when tracing is disabled or o is
// nil. The nil result is itself safe to record against.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Counters returns the accumulated registry (nil when o is nil; the nil
// registry is safe to read).
func (o *Observer) Counters() *Counters {
	if o == nil {
		return nil
	}
	return &o.counters
}

// Record merges one run's counter snapshot into the Observer's registry.
// Nil-safe on both sides.
func (o *Observer) Record(c *Counters) {
	if o == nil {
		return
	}
	o.counters.Merge(c)
}

// Blame returns the accumulated time-blame account set (nil when o is
// nil; the nil set is safe to read and record against).
func (o *Observer) Blame() *Blame {
	if o == nil {
		return nil
	}
	return &o.blame
}

// RecordBlame merges one run's blame accounts into the Observer's set.
// Nil-safe on both sides.
func (o *Observer) RecordBlame(b *Blame) {
	if o == nil {
		return
	}
	o.blame.Merge(b)
}

// Histograms returns the Observer's latency-histogram registry, nil
// when o is nil. The nil set hands out nil (safely recordable)
// histogram handles, so instrument sites resolve unconditionally.
func (o *Observer) Histograms() *HistogramSet {
	if o == nil {
		return nil
	}
	return &o.hists
}

// Series returns the Observer's windowed time-series registry, nil when
// o is nil (the nil set hands out nil handles).
func (o *Observer) Series() *SeriesSet {
	if o == nil {
		return nil
	}
	return o.series
}

// WriteTrace exports the recorded timeline as Chrome trace JSON. It
// errors when tracing was not enabled.
func (o *Observer) WriteTrace(w io.Writer) error {
	t := o.Tracer()
	if t == nil {
		return fmt.Errorf("obs: observer has no tracer (build it with WithTracing)")
	}
	return t.WriteChromeJSON(w)
}
