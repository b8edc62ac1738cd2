package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"dramless"
)

// blameKinds are the organizations whose kernel-phase blame the traced
// run splits by component family: the paper's system and its baseline.
var blameKinds = []dramless.SystemKind{dramless.DRAMLess, dramless.Hetero}

// refClockHz is the 1 GHz reference clock of the simulator's aggregate
// IPC (Report.TotalIPC, Figures 18 and 19).
const refClockHz = 1e9

// blameFamilies are the component families blame shares are reported for.
var blameFamilies = []string{"pe", "cache", "memctrl", "ssd", "pcie"}

// layers accumulates the per-layer measurements of a traced run. Host
// times come from the benchmark's own spans and timers; everything else
// is simulated and exact. Fields a workload does not exercise stay zero.
type layers struct {
	// runner / experiments: the engine of the traced iteration.
	cells, captures, forkedCells int64
	poolBusyFrac, slowestCellS   float64
	cellMS                       []float64          // host ms per cell
	cellS                        map[string]float64 // host s per organization

	// system: replay spans, and the phase walls of each Result.
	captureS, runForkedS, cellSelfS float64
	simPS                           map[string]*[3]int64 // load, kernel, store

	// sim and accel.
	events, instrs     int64
	cycles             float64
	computePS, stallPS int64

	// cache.
	l1Hits, l1Misses, l2Hits, l2Misses, l2Writebacks int64

	// memctrl and pram.
	mcReads, mcWrites, rabHits, rdbHits, fullAccesses int64
	overlaps, preErased, programs, programPS          int64
	readCalls, writeCalls                             int64
	readHost, writeHost                               time.Duration
	readSimPS, writeSimPS                             []float64
	pramRWSimPS                                       int64

	// storage and host path.
	ssdReads, ssdWrites, fwBusyPS, pcieBytes, dramReads int64

	// blame: kernel-phase ps per organization and component family.
	blamePS    map[string]map[string]int64
	blameTotal map[string]int64

	overheadS float64
}

// addResult folds one simulated cell's Result into the layer totals.
func (l *layers) addResult(kind dramless.SystemKind, res *dramless.SystemResult) {
	org := slug(kind.String())
	if l.simPS == nil {
		l.simPS = map[string]*[3]int64{}
	}
	if l.simPS[org] == nil {
		l.simPS[org] = new([3]int64)
	}
	w := l.simPS[org]
	w[0] += int64(res.Load)
	w[1] += int64(res.Kernel)
	w[2] += int64(res.Store)

	if r := res.Report; r != nil {
		l.events += r.Events
		l.instrs += r.Instrs
		l.cycles += r.ExecTime().Seconds() * refClockHz
		l.computePS += int64(r.Compute)
		l.stallPS += int64(r.Stall)
	}

	c := &res.Counters
	for _, e := range c.Entries() {
		if !strings.HasPrefix(e.Name, "accel.pe") {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name, ".l1.hits"):
			l.l1Hits += e.Int
		case strings.HasSuffix(e.Name, ".l1.misses"):
			l.l1Misses += e.Int
		case strings.HasSuffix(e.Name, ".l2.hits"):
			l.l2Hits += e.Int
		case strings.HasSuffix(e.Name, ".l2.misses"):
			l.l2Misses += e.Int
		case strings.HasSuffix(e.Name, ".l2.writebacks"):
			l.l2Writebacks += e.Int
		}
	}
	l.mcReads += c.Get("memctrl.reads")
	l.mcWrites += c.Get("memctrl.writes")
	l.rabHits += c.Get("memctrl.rab_hits")
	l.rdbHits += c.Get("memctrl.rdb_hits")
	l.fullAccesses += c.Get("memctrl.full_accesses")
	l.overlaps += c.Get("memctrl.interleave_overlaps")
	l.preErased += c.Get("memctrl.pre_erased_rows")
	l.programs += c.Get("pram.programs")
	l.programPS += c.Get("pram.program_time_ps")
	for _, s := range []string{"ssd.ext.", "ssd.int."} {
		l.ssdReads += c.Get(s + "reads")
		l.ssdWrites += c.Get(s + "writes")
		l.fwBusyPS += c.Get(s + "fw_busy_ps")
	}
	l.pcieBytes += c.Get("pcie.accel.bytes") + c.Get("pcie.ssd.bytes")
	l.dramReads += c.Get("dram.reads")

	for _, bk := range blameKinds {
		if bk != kind {
			continue
		}
		if l.blamePS == nil {
			l.blamePS = map[string]map[string]int64{}
			l.blameTotal = map[string]int64{}
		}
		if l.blamePS[org] == nil {
			l.blamePS[org] = map[string]int64{}
		}
		for _, e := range res.Blame.Entries() {
			parts := strings.SplitN(e.Name, "/", 3)
			if parts[0] != "kernel" || len(parts) < 2 {
				continue
			}
			family, _, _ := strings.Cut(parts[1], ".")
			l.blamePS[org][family] += e.PS
			l.blameTotal[org] += e.PS
		}
	}
}

// metrics renders every per-layer metric. The set of names is the same on
// every workload; README.md says which workload each one is meant for.
func (l *layers) metrics() metrics {
	m := metrics{}
	m.put("runner.cells", float64(l.cells), "count")
	m.put("runner.prefix_captures", float64(l.captures), "count")
	m.put("runner.prefix_fork_frac", frac(l.forkedCells, l.cells), "ratio")
	m.put("runner.pool_busy_frac", l.poolBusyFrac, "ratio")
	m.put("runner.slowest_cell_s", l.slowestCellS, "s")
	cells := append([]float64(nil), l.cellMS...)
	sort.Float64s(cells)
	p50, _ := quantile(cells, 0.5)
	p90, _ := quantile(cells, 0.9)
	m.put("experiments.cell_p50_ms", p50, "ms")
	m.put("experiments.cell_p90_ms", p90, "ms")
	m.put("experiments.cell_samples", float64(len(cells)), "count")

	m.put("system.capture_s", l.captureS, "s")
	m.put("system.run_forked_s", l.runForkedS, "s")
	m.put("system.cell_self_s", l.cellSelfS, "s")
	for _, k := range dramless.SystemKinds() {
		org := slug(k.String())
		m.put("experiments.cell_s."+org, l.cellS[org], "s")
		var w [3]int64
		if p := l.simPS[org]; p != nil {
			w = *p
		}
		m.put("system.sim_load_ms."+org, psTo(w[0], dramless.Millisecond), "ms")
		m.put("system.sim_kernel_ms."+org, psTo(w[1], dramless.Millisecond), "ms")
		m.put("system.sim_store_ms."+org, psTo(w[2], dramless.Millisecond), "ms")
	}

	m.put("sim.events", float64(l.events), "count")
	m.put("sim.events_per_s", ratio(float64(l.events), l.runForkedS), "1/s")
	m.put("sim.instr_per_s", ratio(float64(l.instrs), l.runForkedS), "1/s")
	m.put("accel.instructions", float64(l.instrs), "count")
	m.put("accel.ipc", ratio(float64(l.instrs), l.cycles), "instr/cycle")
	m.put("accel.stall_frac", frac(l.stallPS, l.computePS+l.stallPS), "ratio")

	m.put("cache.l1.hit_frac", frac(l.l1Hits, l.l1Hits+l.l1Misses), "ratio")
	m.put("cache.l2.hit_frac", frac(l.l2Hits, l.l2Hits+l.l2Misses), "ratio")
	m.put("cache.l2.writebacks", float64(l.l2Writebacks), "count")

	binds := l.rabHits + l.rdbHits + l.fullAccesses
	m.put("memctrl.reads", float64(l.mcReads), "count")
	m.put("memctrl.writes", float64(l.mcWrites), "count")
	// An RDB hit skips both addressing phases and implies a loaded RAB,
	// so the RAB hit share counts both, as the controller's gauges do.
	m.put("memctrl.rab_hit_frac", frac(l.rabHits+l.rdbHits, binds), "ratio")
	m.put("memctrl.rdb_hit_frac", frac(l.rdbHits, binds), "ratio")
	m.put("memctrl.interleave_overlaps", float64(l.overlaps), "count")
	m.put("memctrl.pre_erased_rows", float64(l.preErased), "count")
	m.put("pram.programs", float64(l.programs), "count")
	m.put("pram.program_ms", psTo(l.programPS, dramless.Millisecond), "ms")
	m.put("memctrl.read_calls", float64(l.readCalls), "count")
	m.put("memctrl.write_calls", float64(l.writeCalls), "count")
	m.put("memctrl.read_host_ns", ratio(float64(l.readHost.Nanoseconds()), float64(l.readCalls)), "ns")
	m.put("memctrl.write_host_ns", ratio(float64(l.writeHost.Nanoseconds()), float64(l.writeCalls)), "ns")
	for _, x := range []struct {
		name string
		ps   []float64
	}{{"memctrl.read_sim", l.readSimPS}, {"memctrl.write_sim", l.writeSimPS}} {
		s := append([]float64(nil), x.ps...)
		sort.Float64s(s)
		p50, _ := quantile(s, 0.5)
		p99, _ := quantile(s, 0.99)
		m.put(x.name+"_p50_ns", p50/float64(dramless.Nanosecond), "ns")
		m.put(x.name+"_p99_ns", p99/float64(dramless.Nanosecond), "ns")
	}
	m.put("pram_rw.sim_us", psTo(l.pramRWSimPS, dramless.Microsecond), "us")

	m.put("ssd.reads", float64(l.ssdReads), "count")
	m.put("ssd.writes", float64(l.ssdWrites), "count")
	m.put("ssd.fw_busy_ms", psTo(l.fwBusyPS, dramless.Millisecond), "ms")
	m.put("pcie.bytes", float64(l.pcieBytes), "B")
	m.put("dram.reads", float64(l.dramReads), "count")

	for _, k := range blameKinds {
		org := slug(k.String())
		for _, f := range blameFamilies {
			m.put("blame."+org+"."+f+"_frac", frac(l.blamePS[org][f], l.blameTotal[org]), "ratio")
		}
	}
	m.put("trace.overhead_s", l.overheadS, "s")
	return m
}

// quantile returns the nearest-rank q-quantile of the ascending samples
// and how many samples lie above it; a percentile is only worth reporting
// when at least ten do. It returns 0, 0 for no samples.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q * float64(n)))
	r = min(max(r, 1), n)
	return sorted[r-1], n - r
}

// slug turns an organization name into a metric-name component:
// "DRAM-less (firmware)" becomes "dram-less_firmware".
func slug(s string) string {
	var b strings.Builder
	under := false
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' {
			if under && b.Len() > 0 {
				b.WriteByte('_')
			}
			under = false
			b.WriteRune(r)
			continue
		}
		under = true
	}
	return b.String()
}

func frac(n, d int64) float64 { return ratio(float64(n), float64(d)) }

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// psTo converts simulated picoseconds to the given unit.
func psTo(ps int64, unit dramless.Duration) float64 { return float64(ps) / float64(unit) }
