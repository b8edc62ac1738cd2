// Command perfbench is the repository benchmark. It runs one workload of
// the DRAM-less simulator for about --seconds of host time, checks every
// output, and prints every metric by name; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload suite-fast --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the gated end-to-end metrics, measured
// with tracing off. With --trace 1 a separate run records spans around
// the benchmark's own calls into each layer and reports the per-layer
// metrics. README.md lists every metric and the layer it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so a single slow repetition does not move it.
const setupReps = 9

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// tally counts the operations a run attempted and the ones that failed:
// simulation cells for the sweeps, kernel passes for pram-rw. notes keeps
// the first maxNotes failure messages.
type tally struct {
	attempted, failed int
	notes             []string
}

const maxNotes = 20

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

// fail records n failed operations with the reason.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	t.note(format, args...)
}

// note keeps a failure message, up to maxNotes of them.
func (t *tally) note(format string, args ...any) {
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// failFrac is failed over attempted operations.
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// bench is one benchmark workload.
type bench interface {
	// setup builds the workload's state from scratch, including any
	// warm-up; the run calls it setupReps times and keeps the state of
	// the last call. An error means there is nothing to iterate on.
	setup(seed int64) (tally, error)
	// iterate runs one timed iteration and checks its outputs.
	iterate() tally
	// pairsFrac returns fig15_pairs_frac for the iterations run so far.
	pairsFrac() float64
	// digest returns sim_digest: a SHA-256 over the simulated outputs.
	digest() string
	// traced times untraced and traced iterations and runs the
	// workload's per-layer replay, recording spans in tr and filling l.
	traced(tr *tracer, l *layers) tally
}

// workloads maps each workload name to its constructor and its
// iteration budget: a run makes max(2, round(--seconds / budget)) timed
// iterations, so every run of a workload does the same work on any code.
// (The engine's storage pools keep what each regeneration released, so a
// run that made more regenerations would report a larger max_rss_mb.)
// The budgets are one iteration's host time on a 2-CPU Intel Xeon, except
// fig15-2mib's: its sweep takes about 15 s there, and a 20 s run makes
// three, so its median does not rest on one pair of sweeps.
var workloads = map[string]struct {
	budgetS  float64
	newBench func() bench
}{
	"suite-fast": {0.8, func() bench { return newSuiteFast() }},
	"fig15-2mib": {6.5, func() bench { return newFig15Full() }},
	"pram-rw":    {0.02, func() bench { return newPRAMRW() }},
}

// iterations is the number of timed iterations a run makes.
func iterations(seconds, budgetS float64) int {
	return max(2, int(math.Round(seconds/budgetS)))
}

// report is everything a run writes besides the result line.
type report struct {
	Provenance provenance         `json:"provenance"`
	SimDigest  string             `json:"sim_digest"`
	FailFrac   float64            `json:"fail_frac"`
	SetupS     []float64          `json:"setup_samples_s"`
	WallS      []float64          `json:"wall_samples_s,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Result     *result            `json:"result"`
	Self       map[string]float64 `json:"span_self_s,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: suite-fast, fig15-2mib or pram-rw")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds of timed iterations on the reference host")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have suite-fast, fig15-2mib, pram-rw)\n", *name)
		os.Exit(2)
	}
	rep, err := run(wl.newBench(), *seed, iterations(*seconds, wl.budgetS), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Provenance = stamp(*name, *seed, *trace == 1)
	if err := writeReport(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	printHuman(rep)
	line, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		SimDigest  string     `json:"sim_digest"`
		FailFrac   float64    `json:"fail_frac"`
	}{rep.Provenance, rep.SimDigest, rep.FailFrac})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets w up, then either times n iterations (untraced) or makes the
// traced per-layer run. Each set-up and iteration starts from a collected
// heap, so garbage one leaves does not slow the next.
func run(w bench, seed int64, n int, traced bool) (*report, error) {
	rep := &report{}
	var tl tally
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		t, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		tl.add(t)
	}
	m := metrics{}
	if traced {
		tr := newTracer()
		var l layers
		tl.add(w.traced(tr, &l))
		m = l.metrics()
		rep.Spans = tr.spans
		rep.Self = tr.selfByName()
	} else {
		for i := 0; i < n; i++ {
			runtime.GC()
			t0 := time.Now()
			tl.add(w.iterate())
			rep.WallS = append(rep.WallS, time.Since(t0).Seconds())
		}
		endToEnd(m, median(rep.SetupS), median(rep.WallS), maxRSSMiB(), tl, w.pairsFrac())
	}
	rep.SimDigest = w.digest()
	rep.FailFrac = tl.failFrac()
	rep.Notes = tl.notes
	rep.Result = &result{
		Correct:   tl.failed == 0 && tl.attempted > 0,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   m,
	}
	return rep, nil
}

// endToEnd fills the gated metrics. fail_frac is 0 on correct code, so
// the gated form is its complement pass_frac, which is never 0; the
// result line's attempted and failed carry fail_frac itself.
func endToEnd(m metrics, setupS, wallS, rssMiB float64, tl tally, pairs float64) {
	m.put("setup_s", setupS, "s")
	m.put("wall_s", wallS, "s")
	m.put("max_rss_mb", rssMiB, "MiB")
	m.put("pass_frac", 1-tl.failFrac(), "ratio")
	m.put("fig15_pairs_frac", pairs, "ratio")
}

// maxRSSMiB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeReport stores the full report, spans included, under
// .bench_build/perfbench-out in the working directory.
func writeReport(rep *report) error {
	dir := filepath.Join(".bench_build", "perfbench-out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := rep.Provenance
	traced := 0
	if p.Traced {
		traced = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", p.Workload, p.Seed, traced)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printHuman lists every metric by name and unit on standard error.
func printHuman(rep *report) {
	p := rep.Provenance
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d traced=%v commit=%s source=%.12s %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		p.Workload, p.Seed, p.Traced, p.Commit, p.SourceDigest, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d fail_frac=%g sim_digest=%s\n",
		rep.Result.Attempted, rep.Result.Failed, rep.FailFrac, rep.SimDigest)
	for _, n := range rep.Notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
}
