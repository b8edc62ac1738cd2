package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"dramless/internal/sim"
)

// TraceEvent is one completed simulated-time span. Proc groups spans
// into a Chrome trace "process" row (a subsystem: "pram.ch0", "accel");
// Track is the "thread" within it (a package or PE: "pkg2", "pe5").
type TraceEvent struct {
	Proc  string
	Track string
	Name  string
	Start sim.Time
	End   sim.Time
}

// FlowEdge is one causal handoff between two tracks: work finished on
// (FromProc, FromTrack) at time At and continued on (ToProc, ToTrack).
// Components record these at the points they already hand work off
// (phase boundaries, kernel->flush transitions); the Chrome export
// renders them as flow arrows ("s"/"f" events) connecting the spans.
type FlowEdge struct {
	Name      string
	FromProc  string
	FromTrack string
	ToProc    string
	ToTrack   string
	At        sim.Time
}

// Tracer records simulated-time spans. The zero value of *Tracer (nil)
// is the disabled tracer: Span returns immediately, so instrumented
// model code needs no enabled-check of its own. Enabled tracers append
// in call order, which in a single-goroutine simulation is the
// deterministic dispatch order.
type Tracer struct {
	events []TraceEvent
	flows  []FlowEdge
}

// NewTracer returns an enabled span recorder.
func NewTracer() *Tracer {
	return &Tracer{events: make([]TraceEvent, 0, 1024)}
}

// Enabled reports whether spans will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Span records one completed span. Nil-safe; spans with end <= start are
// dropped (zero-width spans render as noise in the Chrome viewer).
func (t *Tracer) Span(proc, track, name string, start, end sim.Time) {
	if t == nil || end <= start {
		return
	}
	t.events = append(t.events, TraceEvent{Proc: proc, Track: track, Name: name, Start: start, End: end})
}

// Len returns the number of recorded spans (0 for the nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded spans in recording order. The slice is
// shared; callers must not mutate it.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	return t.events
}

// Flow records one causal handoff edge. Nil-safe.
func (t *Tracer) Flow(name, fromProc, fromTrack, toProc, toTrack string, at sim.Time) {
	if t == nil {
		return
	}
	t.flows = append(t.flows, FlowEdge{
		Name: name, FromProc: fromProc, FromTrack: fromTrack,
		ToProc: toProc, ToTrack: toTrack, At: at,
	})
}

// Flows returns the recorded handoff edges in recording order. The
// slice is shared; callers must not mutate it.
func (t *Tracer) Flows() []FlowEdge {
	if t == nil {
		return nil
	}
	return t.flows
}

// Reset drops all recorded spans and flows, keeping capacity.
func (t *Tracer) Reset() {
	if t != nil {
		t.events = t.events[:0]
		t.flows = t.flows[:0]
	}
}

// PathSeg is one segment of a critical path: the span that was the
// latest-started work covering this stretch of simulated time, or an
// idle gap (empty Proc) where no recorded span was active.
type PathSeg struct {
	Proc  string
	Track string
	Name  string
	Start sim.Time
	End   sim.Time
}

// Dur returns the segment's width.
func (s PathSeg) Dur() sim.Duration { return sim.Duration(s.End - s.Start) }

// CriticalPath extracts the blocking chain over [start, end] from the
// recorded span forest: every instant is attributed to the
// latest-started recorded span active there (ties to the later-recorded
// span, so nested work beats its enclosing span), and stretches no span
// covers become idle segments. Adjacent stretches with the same
// attribution merge, and the result tiles [start, end] exactly —
// segment durations always sum to end-start — in ascending time order.
// Nil-safe (nil tracer returns one idle segment).
func (t *Tracer) CriticalPath(start, end sim.Time) []PathSeg {
	if end <= start {
		return nil
	}
	if t == nil || len(t.events) == 0 {
		return []PathSeg{{Start: start, End: end}}
	}
	// Elementary boundaries: every span edge inside the window. Between
	// two consecutive boundaries the set of active spans is constant.
	bounds := make([]sim.Time, 0, 2*len(t.events)+2)
	bounds = append(bounds, start)
	for _, e := range t.events {
		if e.Start > start && e.Start < end {
			bounds = append(bounds, e.Start)
		}
		if e.End > start && e.End < end {
			bounds = append(bounds, e.End)
		}
	}
	bounds = append(bounds, end)
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	// Sweep the boundaries with a lazy-deletion max-heap ordered by
	// (Start, recording index): the heap top is the latest-started span
	// still active over the current elementary interval.
	order := make([]int, len(t.events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return t.events[order[a]].Start < t.events[order[b]].Start
	})
	later := func(a, b int) bool { // span a started later than span b
		if t.events[a].Start != t.events[b].Start {
			return t.events[a].Start > t.events[b].Start
		}
		return a > b
	}
	var heap []int
	push := func(idx int) {
		heap = append(heap, idx)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !later(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() {
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			big, l, r := i, 2*i+1, 2*i+2
			if l < n && later(heap[l], heap[big]) {
				big = l
			}
			if r < n && later(heap[r], heap[big]) {
				big = r
			}
			if big == i {
				break
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}

	var segs []PathSeg
	next := 0     // next span (by ascending Start) not yet pushed
	curAttr := -2 // attribution of the open segment (-1 idle, -2 none)
	for bi := 0; bi+1 < len(uniq); bi++ {
		t0, t1 := uniq[bi], uniq[bi+1]
		for next < len(order) && t.events[order[next]].Start <= t0 {
			push(order[next])
			next++
		}
		for len(heap) > 0 && t.events[heap[0]].End <= t0 {
			pop()
		}
		attr := -1
		if len(heap) > 0 {
			attr = heap[0]
		}
		if attr == curAttr {
			segs[len(segs)-1].End = t1
			continue
		}
		seg := PathSeg{Start: t0, End: t1}
		if attr >= 0 {
			e := t.events[attr]
			seg.Proc, seg.Track, seg.Name = e.Proc, e.Track, e.Name
		}
		segs = append(segs, seg)
		curAttr = attr
	}
	return segs
}

// tsMicros converts a sim.Time (picoseconds) to the microsecond float
// timestamps the Chrome trace format expects. Formatted with %.6f it
// preserves picosecond resolution exactly, keeping exports byte-identical
// across runs.
func tsMicros(t sim.Time) float64 {
	return float64(t) / 1e6
}

// WriteChromeJSON exports the recorded spans in the Chrome trace event
// format (load in chrome://tracing or https://ui.perfetto.dev). Each
// distinct Proc becomes a process with a stable pid in first-seen order,
// each (Proc, Track) a thread within it; spans emit as "X" complete
// events with ts/dur in microseconds of simulated time.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: tracing is disabled (nil tracer)")
	}
	bw := bufio.NewWriter(w)

	type trackKey struct{ proc, track string }
	pids := map[string]int{}
	var procs []string
	tids := map[trackKey]int{}
	var tracks []trackKey
	note := func(proc, track string) {
		if _, ok := pids[proc]; !ok {
			pids[proc] = len(procs) + 1
			procs = append(procs, proc)
		}
		k := trackKey{proc, track}
		if _, ok := tids[k]; !ok {
			tids[k] = 0 // assigned per-process below
			tracks = append(tracks, k)
		}
	}
	for _, e := range t.events {
		note(e.Proc, e.Track)
	}
	for _, f := range t.flows {
		note(f.FromProc, f.FromTrack)
		note(f.ToProc, f.ToTrack)
	}
	// Number threads within each process in first-seen order.
	perProc := map[string]int{}
	for _, k := range tracks {
		perProc[k.proc]++
		tids[k] = perProc[k.proc]
	}

	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",")
		}
		first = false
		bw.WriteString("\n")
		fmt.Fprintf(bw, format, args...)
	}
	for _, p := range procs {
		emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%q}}`, pids[p], p)
	}
	// Sort metadata by (pid, tid) so the export is stable even if track
	// first-use order ever differs from span order.
	sort.SliceStable(tracks, func(i, j int) bool {
		if pids[tracks[i].proc] != pids[tracks[j].proc] {
			return pids[tracks[i].proc] < pids[tracks[j].proc]
		}
		return tids[tracks[i]] < tids[tracks[j]]
	})
	for _, k := range tracks {
		emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`, pids[k.proc], tids[k], k.track)
	}
	for _, e := range t.events {
		emit(`{"ph":"X","pid":%d,"tid":%d,"name":%q,"ts":%.6f,"dur":%.6f}`,
			pids[e.Proc], tids[trackKey{e.Proc, e.Track}], e.Name,
			tsMicros(e.Start), tsMicros(e.End-e.Start))
	}
	// Causal handoffs render as flow arrows: an "s" event on the
	// producing track paired with a binding-point "f" on the consuming
	// one, sharing an id in recording order.
	for i, f := range t.flows {
		emit(`{"ph":"s","pid":%d,"tid":%d,"name":%q,"cat":"flow","id":%d,"ts":%.6f}`,
			pids[f.FromProc], tids[trackKey{f.FromProc, f.FromTrack}], f.Name, i+1, tsMicros(f.At))
		emit(`{"ph":"f","bp":"e","pid":%d,"tid":%d,"name":%q,"cat":"flow","id":%d,"ts":%.6f}`,
			pids[f.ToProc], tids[trackKey{f.ToProc, f.ToTrack}], f.Name, i+1, tsMicros(f.At))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
