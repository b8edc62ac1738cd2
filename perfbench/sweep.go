package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"dramless"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// sweep regenerates experiment tables through a fresh engine per
// iteration, using the engine's default worker pool (Parallelism 0:
// GOMAXPROCS workers). The kernel models are fixed, so the seed is
// recorded but not used.
type sweep struct {
	opts  dramless.ExperimentOptions
	ids   []string              // experiments per iteration; nil = all
	kinds []dramless.SystemKind // organizations of the replayed cells

	ref   []byte  // rendered tables of the first good iteration
	pairs float64 // fig15_pairs_frac of ref
	last  engineRun
}

// engineRun is what the traced run reads from one iteration's engine.
type engineRun struct {
	wall    time.Duration
	stats   dramless.ExperimentRunStats
	prefix  dramless.ExperimentRunStats
	timings []dramless.ExperimentCellTiming
	fig15   *dramless.ExperimentTable
}

// newSuiteFast regenerates every table and figure at the fast (128 KiB)
// scale; its replay covers the default-configuration cells of all twelve
// organizations.
func newSuiteFast() *sweep {
	return &sweep{opts: dramless.FastExperiments(), kinds: dramless.SystemKinds()}
}

// newFig15Full regenerates Figure 15 alone at the full (2 MiB) scale.
func newFig15Full() *sweep {
	return &sweep{opts: dramless.FullExperiments(), ids: []string{"fig15"}, kinds: dramless.Figure15Kinds()}
}

// setup warms the component storage pools: it captures the populate/load
// checkpoint of every distinct prefix among the replayed cells and
// releases it, so the first timed iteration draws on filled pools.
func (s *sweep) setup(int64) (tally, error) {
	var tl tally
	seen := map[system.Prefix]bool{}
	for _, c := range s.cells() {
		if seen[c.prefix] {
			continue
		}
		seen[c.prefix] = true
		tl.attempted++
		cp, err := system.CapturePrefix(c.prefix)
		if err != nil {
			tl.fail(1, "warm-up capture %s/%s: %v", c.kind, c.kernel.Name, err)
			continue
		}
		cp.Release()
	}
	return tl, nil
}

// iterate regenerates the tables through one fresh engine and checks
// them; every cell of a failed iteration counts as failed.
func (s *sweep) iterate() tally {
	t0 := time.Now()
	eng := dramless.NewExperimentEngine(s.opts)
	tabs, err := regenerate(eng, s.ids)
	eng.Release()
	s.last = engineRun{
		wall:    time.Since(t0),
		stats:   eng.Stats(),
		prefix:  eng.PrefixStats(),
		timings: eng.SlowestCells(math.MaxInt),
	}
	n := max(int(s.last.stats.Runs), 1)
	tl := tally{attempted: n}
	if err == nil {
		err = selfCheck(tabs, s.ids)
	}
	if err != nil {
		tl.fail(n, "regeneration: %v", err)
		return tl
	}
	s.last.fig15 = findTable(tabs, "fig15")
	out := render(tabs)
	switch {
	case s.ref == nil:
		s.ref = out
		s.pairs = fig15PairsFrac(s.last.fig15)
	case !bytes.Equal(out, s.ref):
		tl.fail(n, "rendered tables differ from the first iteration's")
	}
	return tl
}

// regenerate runs the engine, turning a generator panic into an error.
func regenerate(eng *dramless.ExperimentEngine, ids []string) (tabs []*dramless.ExperimentTable, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return eng.Tables(ids...)
}

// selfCheck rejects empty tables and non-finite values, and requires
// Figure 15 in its full shape: one row per kernel, one column per
// organization.
func selfCheck(tabs []*dramless.ExperimentTable, ids []string) error {
	if len(ids) > 0 && len(tabs) != len(ids) {
		return fmt.Errorf("%d tables for %d experiments", len(tabs), len(ids))
	}
	for _, t := range tabs {
		if t == nil || len(t.Rows) == 0 {
			return fmt.Errorf("empty table %v", t)
		}
		for _, r := range t.Rows {
			for c, v := range r.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s %s/%s = %v", t.ID, r.Label, c, v)
				}
			}
		}
	}
	f := findTable(tabs, "fig15")
	if f == nil {
		return fmt.Errorf("no fig15 table")
	}
	if len(f.Rows) != len(dramless.Workloads()) {
		return fmt.Errorf("fig15 has %d rows, want %d", len(f.Rows), len(dramless.Workloads()))
	}
	for _, r := range f.Rows {
		if len(r.Values) != len(dramless.Figure15Kinds()) {
			return fmt.Errorf("fig15 row %s has %d columns", r.Label, len(r.Values))
		}
	}
	return nil
}

func findTable(tabs []*dramless.ExperimentTable, id string) *dramless.ExperimentTable {
	for _, t := range tabs {
		if t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// render is the byte form the iterations are compared in: every table's
// JSON, which keeps each value's full precision.
func render(tabs []*dramless.ExperimentTable) []byte {
	var b bytes.Buffer
	for _, t := range tabs {
		js, err := t.JSON()
		if err != nil {
			fmt.Fprintf(&b, "%s: %v", t.ID, err)
		}
		b.Write(js)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// fig15PairsFrac is the share of Figure 15 (kernel, organization) pairs in
// which the DRAM-less column exceeds the other organization's. A tie does
// not count as a win.
func fig15PairsFrac(t *dramless.ExperimentTable) float64 {
	if t == nil {
		return 0
	}
	dl := dramless.DRAMLess.String()
	wins, pairs := 0, 0
	for _, r := range t.Rows {
		for _, c := range r.Order {
			if c == dl {
				continue
			}
			pairs++
			if r.Values[dl] > r.Values[c] {
				wins++
			}
		}
	}
	return frac(int64(wins), int64(pairs))
}

func (s *sweep) pairsFrac() float64 { return s.pairs }

func (s *sweep) digest() string {
	h := sha256.Sum256(s.ref)
	return hex.EncodeToString(h[:])
}

// cell is one replayed (organization, kernel) simulation.
type cell struct {
	kind   dramless.SystemKind
	kernel dramless.Workload
	cfg    dramless.SystemConfig
	prefix system.Prefix
}

// cells lists the replayed cells in organization-major order, configured
// as the engine configures its default cells: NewSystemConfig, the
// workload's scale and the engine's SSD-capacity rule.
func (s *sweep) cells() []cell {
	var out []cell
	for _, kind := range s.kinds {
		cfg := dramless.NewSystemConfig(kind)
		cfg.Scale = s.opts.Scale
		cfg.SSDCapacity = ssdCapacity(s.opts.Scale)
		for _, k := range workload.Suite() {
			out = append(out, cell{kind: kind, kernel: k, cfg: cfg, prefix: system.PrefixOf(cfg, k)})
		}
	}
	return out
}

// ssdCapacity is the experiment engine's SSD sizing rule: 64 MiB, doubled
// until it holds six footprints.
func ssdCapacity(scale int64) uint64 {
	c := uint64(64 << 20)
	for c < uint64(6*scale) {
		c *= 2
	}
	return c
}

// traced times untraced and traced iterations, reads the engine
// metrics from the traced one, then replays the cells serially with a
// span around every call into the system layer.
func (s *sweep) traced(tr *tracer, l *layers) tally {
	var tl tally
	var untraced time.Duration
	// The first regeneration of a process runs on a smaller heap and
	// fewer pooled buffers; the second is the one compared with.
	for i := 0; i < 2; i++ {
		runtime.GC()
		t0 := time.Now()
		tl.add(s.iterate())
		untraced = time.Since(t0)
	}

	runtime.GC()
	tr.nextIter()
	root := tr.begin("experiments.tables", 0)
	tl.add(s.iterate())
	l.overheadS = (tr.end(root) - untraced).Seconds()
	s.engineMetrics(l)

	runtime.GC()
	tr.nextIter()
	tl.add(s.replay(tr, l))
	return tl
}

// engineMetrics fills the runner and experiments layers from the last
// iteration's engine.
func (s *sweep) engineMetrics(l *layers) {
	e := s.last
	l.cells = e.stats.Runs
	l.captures = e.prefix.Runs
	l.cellS = map[string]float64{}
	var busy time.Duration
	for _, t := range e.timings {
		busy += t.Wall
		l.cellMS = append(l.cellMS, float64(t.Wall)/float64(time.Millisecond))
		l.cellS[slug(t.Kind.String())] += t.Wall.Seconds()
		if t.PrefixHit {
			l.forkedCells++
		}
	}
	if len(e.timings) > 0 {
		l.slowestCellS = e.timings[0].Wall.Seconds()
	}
	l.poolBusyFrac = ratio(busy.Seconds(), float64(e.stats.Workers)*e.wall.Seconds())
}

// replay runs every cell serially: one system.cell span per cell, a
// system.capture_prefix span the first time a prefix is needed, and a
// system.run_forked span around the simulation. Each checkpoint is
// released after its last cell. The Figure 15 values recomputed from the
// replay's own Results must equal the engine's exactly; a cell whose
// value differs counts as failed.
func (s *sweep) replay(tr *tracer, l *layers) tally {
	cells := s.cells()
	lastUse := map[system.Prefix]int{}
	for i, c := range cells {
		lastUse[c.prefix] = i
	}
	cps := map[system.Prefix]*system.Checkpoint{}
	bw := map[dramless.SystemKind]map[string]float64{}
	bad := map[int]bool{}
	var tl tally
	for i, c := range cells {
		tl.attempted++
		cs := tr.begin("system.cell", 0)
		cp := cps[c.prefix]
		if cp == nil {
			sp := tr.begin("system.capture_prefix", cs)
			var err error
			cp, err = system.CapturePrefix(c.prefix)
			tr.end(sp)
			if err != nil {
				bad[i] = true
				tl.note("replay capture %s/%s: %v", c.kind, c.kernel.Name, err)
				tr.end(cs)
				continue
			}
			cps[c.prefix] = cp
		}
		sp := tr.begin("system.run_forked", cs)
		res, err := system.RunForked(c.cfg, c.kernel, cp)
		tr.end(sp)
		if lastUse[c.prefix] == i {
			cp.Release()
			delete(cps, c.prefix)
		}
		if err != nil {
			bad[i] = true
			tl.note("replay %s/%s: %v", c.kind, c.kernel.Name, err)
		} else {
			l.addResult(c.kind, res)
			if bw[c.kind] == nil {
				bw[c.kind] = map[string]float64{}
			}
			bw[c.kind][c.kernel.Name] = res.BandwidthMBps()
		}
		tr.end(cs)
	}
	for _, cp := range cps {
		cp.Release()
	}
	l.captureS = tr.total("system.capture_prefix")
	l.runForkedS = tr.total("system.run_forked")
	l.cellSelfS = tr.selfByName()["system.cell"]

	for i, c := range cells {
		if bad[i] || !isFig15Kind(c.kind) {
			continue
		}
		got := bw[c.kind][c.kernel.Name] / bw[dramless.Hetero][c.kernel.Name]
		want, ok := fig15Value(s.last.fig15, c.kernel.Name, c.kind)
		if !ok || got != want {
			bad[i] = true
			tl.note("replay fig15 %s/%s = %v, engine %v", c.kind, c.kernel.Name, got, want)
		}
	}
	tl.failed = len(bad)
	return tl
}

func isFig15Kind(k dramless.SystemKind) bool {
	for _, f := range dramless.Figure15Kinds() {
		if f == k {
			return true
		}
	}
	return false
}

// fig15Value reads the engine's Figure 15 value for kernel under kind.
func fig15Value(t *dramless.ExperimentTable, kernel string, kind dramless.SystemKind) (float64, bool) {
	if t == nil {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == kernel {
			v, ok := r.Values[kind.String()]
			return v, ok
		}
	}
	return 0, false
}
