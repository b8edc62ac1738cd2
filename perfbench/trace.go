package main

import (
	"sort"
	"time"
)

// span is one host-time interval the benchmark recorded around one of its
// own calls into a layer. Spans of one iteration share Iter; Parent is the
// enclosing span's ID, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Iter   int           `json:"iter"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextIter starts a new iteration; later spans carry its id.
func (t *tracer) nextIter() { t.iter++ }

// begin opens a span under parent (0 = root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: time.Since(t.t0)})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.dur()
}

// selfTime is s's duration minus the part of it its children cover. The
// children may nest or overlap one another; covered time counts once.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return s.dur() - covered
}

// selfByName sums the self time of every span, in seconds, per name.
func (t *tracer) selfByName() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += selfTime(s, kids[s.ID]).Seconds()
	}
	return out
}

// total sums the durations of the spans named name, in seconds.
func (t *tracer) total(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}
