package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramless/internal/runner"
	"dramless/internal/system"
	"dramless/internal/workload"
)

// runKey identifies one simulation cell: the full system configuration
// plus the kernel name. system.Config is a comparable value type, so two
// experiments that need the same cell - fig15, fig16 and fig17 all walk
// the same ten systems - share one cached system.Run result.
type runKey struct {
	cfg    system.Config
	kernel string
}

// Engine is the parallel run engine behind the experiment harness. It
// owns a single cross-experiment result cache over a bounded worker
// pool: every distinct (config, kernel) simulation executes exactly once
// per engine, concurrent requests for the same cell coalesce, and
// distinct cells run on up to Options.Parallelism goroutines.
//
// Parallelism is across simulations only. Each simulation runs on one
// goroutine, so results - and therefore every rendered table - are
// byte-identical to a serial run at any worker count.
type Engine struct {
	o Options
	r *runner.Runner[runKey, *system.Result]

	// pr is the second-level cache: one captured populate/load
	// checkpoint per distinct system.Prefix. Many cells share a prefix
	// (every kernel with the same footprint class under one config), so
	// each prefix simulates once and every cell forks from it. The
	// runner's singleflight makes concurrent captures of one prefix
	// coalesce; forks only read the frozen template, so any number may
	// proceed at once. A template is freed after the last queued cell
	// of its prefix forks, so the engine holds only the templates of
	// prefixes in flight.
	pr *runner.Runner[system.Prefix, *system.Checkpoint]

	mu      sync.Mutex
	cells   map[runKey]system.Prefix    // every cell queued on r, with its prefix
	tmpls   map[system.Prefix]*template // prefixes whose templates may still be forked
	live    int                         // captured templates not yet freed
	peak    int                         // most templates live at once
	timings []CellTiming
	running sync.WaitGroup // queued cells not yet finished

	// While Tables starts its generators, a template whose queued cells
	// have all finished is parked rather than freed: a generator that
	// has not queued its cells yet may fork it (Figures 18 and 19 reuse
	// the Figure 15 gemver and doitg prefixes). The hold ends for good
	// the first time every running generator waits on a cell, by which
	// point each has queued its prefetches.
	hold    bool
	gens    int // Tables generators that have not returned
	waiting int // getCfg calls waiting for their cell
	parked  []system.Prefix

	// events totals the kernel-phase simulation events dispatched by
	// the cells this engine actually ran (cache hits re-dispatch
	// nothing) — the numerator of the benchmark harness's events/sec
	// dispatch-throughput metric.
	events atomic.Int64
}

// template is the engine's bookkeeping for one prefix's checkpoint,
// from the first queued cell that needs it until the last one finishes.
type template struct {
	pending int  // queued cells that have not finished
	claimed bool // a cell has asked pr for the checkpoint
}

// CellTiming is the host-side wall-clock accounting of one simulation
// cell, for the engine's -slowest report.
type CellTiming struct {
	Kind      system.Kind
	Kernel    string
	Wall      time.Duration
	PrefixHit bool // the cell forked a checkpoint another cell captured
	// Blame summary from the run's always-on time account: the largest
	// kernel-phase account (phase prefix stripped) and its share of the
	// kernel wall in parts per thousand.
	BlameTop      string
	BlameTopMille int64
}

// NewEngine builds an engine for one experiment invocation. Experiments
// regenerated through the same engine share its result cache.
func NewEngine(o Options) *Engine {
	e := &Engine{
		o:     o,
		cells: map[runKey]system.Prefix{},
		tmpls: map[system.Prefix]*template{},
	}
	e.pr = runner.New(o.Parallelism, func(pr system.Prefix) (*system.Checkpoint, error) {
		cp, err := system.CapturePrefix(pr)
		if err != nil {
			return nil, fmt.Errorf("%s prefix: %w", pr.Cfg.Kind, err)
		}
		e.mu.Lock()
		e.live++
		e.peak = max(e.peak, e.live)
		e.mu.Unlock()
		return cp, nil
	})
	e.r = runner.New(o.Parallelism, func(k runKey) (*system.Result, error) {
		e.mu.Lock()
		prefix := e.cells[k]
		t := e.tmpls[prefix]
		// The first cell to ask for a template captures it (or, in a
		// race, waits on the cell that does); every later one forks it.
		hit := t.claimed
		t.claimed = true
		e.mu.Unlock()
		defer e.finish(prefix)
		kern := workload.MustByName(k.kernel)
		start := time.Now()
		cp, err := e.pr.Get(prefix)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.cfg.Kind, k.kernel, err)
		}
		res, err := system.RunForked(k.cfg, kern, cp)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", k.cfg.Kind, k.kernel, err)
		}
		if res.Report != nil {
			e.events.Add(res.Report.Events)
		}
		ct := CellTiming{
			Kind:      k.cfg.Kind,
			Kernel:    k.kernel,
			Wall:      time.Since(start),
			PrefixHit: hit,
		}
		if top := res.Blame.TopShares("kernel/", 1); len(top) == 1 {
			ct.BlameTop = strings.TrimPrefix(top[0].Name, "kernel/")
			ct.BlameTopMille = top[0].Permille
		}
		e.mu.Lock()
		e.timings = append(e.timings, ct)
		e.mu.Unlock()
		return res, nil
	})
	return e
}

// queue registers every cell (cfgs[i], kernels[i]) not queued before,
// counting it against its prefix's template, and returns the new keys
// grouped by prefix in order of first appearance, so cells sharing a
// template run next to each other and free it sooner. The counts are in
// place before any returned key reaches the runner, so no template is
// freed while a cell queued with it still needs it.
func (e *Engine) queue(cfgs []system.Config, kernels []workload.Kernel) []runKey {
	e.mu.Lock()
	defer e.mu.Unlock()
	var order []system.Prefix
	groups := map[system.Prefix][]runKey{}
	for i, cfg := range cfgs {
		key := runKey{cfg: cfg, kernel: kernels[i].Name}
		if _, ok := e.cells[key]; ok {
			continue
		}
		prefix := system.PrefixOf(cfg, kernels[i])
		e.cells[key] = prefix
		t := e.tmpls[prefix]
		if t == nil {
			t = &template{}
			e.tmpls[prefix] = t
		}
		t.pending++
		e.running.Add(1)
		if groups[prefix] == nil {
			order = append(order, prefix)
		}
		groups[prefix] = append(groups[prefix], key)
	}
	var out []runKey
	for _, prefix := range order {
		out = append(out, groups[prefix]...)
	}
	return out
}

// finish retires one queued cell of prefix. The last one frees the
// template, unless Tables holds it.
func (e *Engine) finish(prefix system.Prefix) {
	defer e.running.Done()
	e.mu.Lock()
	var cp *system.Checkpoint
	t := e.tmpls[prefix]
	if t.pending--; t.pending == 0 {
		if e.hold {
			e.parked = append(e.parked, prefix)
		} else {
			cp = e.drop(prefix)
		}
	}
	e.mu.Unlock()
	cp.Release()
}

// drop removes an idle template from the engine and the checkpoint
// cache, so a later request for the prefix captures it afresh, and
// returns the checkpoint for the caller to release once e.mu is
// unlocked. Caller holds e.mu.
func (e *Engine) drop(prefix system.Prefix) *system.Checkpoint {
	delete(e.tmpls, prefix)
	cp, ok := e.pr.Forget(prefix)
	if ok && cp != nil {
		e.live--
	}
	return cp
}

// track adjusts the Tables hold's counts of waiting getCfg calls and
// running generators. The hold ends the first time every running
// generator waits on a cell, and the parked templates no queued cell
// needs any more are freed.
func (e *Engine) track(waiting, gens int) {
	e.mu.Lock()
	e.waiting += waiting
	e.gens += gens
	var cps []*system.Checkpoint
	if e.hold && e.waiting >= e.gens {
		e.hold = false
		for _, prefix := range e.parked {
			// A parked prefix that a later queue revived, or that was
			// parked twice, is skipped; its last cell frees it.
			if t := e.tmpls[prefix]; t != nil && t.pending == 0 {
				cps = append(cps, e.drop(prefix))
			}
		}
		e.parked = nil
	}
	e.mu.Unlock()
	for _, cp := range cps {
		cp.Release()
	}
}

// Options returns the engine's scaling options.
func (e *Engine) Options() Options { return e.o }

// Release waits for every cell the engine has queued to finish; call it
// once no request through the engine is in progress. Each checkpoint
// template is freed as soon as the last queued cell of its prefix has
// forked it, so after a complete regeneration there is nothing left to
// wait for. A generator that failed part-way may have left prefetched
// cells running; Release returns once they have finished and freed
// their templates, so the engine then holds none. Tables and results
// stay valid (they own their data), and a later request through the
// engine captures whatever prefix it needs afresh.
func (e *Engine) Release() { e.running.Wait() }

// Stats reports the engine's cache and pool accounting (simulation
// cells; checkpoint captures are accounted under PrefixStats).
func (e *Engine) Stats() runner.Stats { return e.r.Stats() }

// PrefixStats reports the checkpoint cache's accounting: Runs is the
// number of distinct prefixes captured, Coalesced the cells that waited
// on an in-flight capture.
func (e *Engine) PrefixStats() runner.Stats { return e.pr.Stats() }

// PeakCheckpoints returns the largest number of checkpoint templates
// the engine has held at once: the prefixes in flight together, which
// bound its retained memory.
func (e *Engine) PeakCheckpoints() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peak
}

// Events returns the total kernel-phase simulation events dispatched by
// the cells this engine ran. Dividing by host wall-clock gives the
// dispatch throughput (events/sec) the benchmark harness reports, which
// attributes suite speedups to the event kernel rather than to caching.
func (e *Engine) Events() int64 { return e.events.Load() }

// SlowestCells returns the n largest simulation cells by host
// wall-clock, slowest first, each tagged with whether it forked a
// checkpoint another cell captured.
func (e *Engine) SlowestCells(n int) []CellTiming {
	e.mu.Lock()
	out := make([]CellTiming, len(e.timings))
	copy(out, e.timings)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Wall != out[j].Wall {
			return out[i].Wall > out[j].Wall
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Kernel < out[j].Kernel
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// get returns the default-config cell for kind x kernel, running it if
// no experiment has needed it yet.
func (e *Engine) get(kind system.Kind, k workload.Kernel) (*system.Result, error) {
	return e.getCfg(e.o.config(kind), k)
}

// getCfg is get for a custom configuration (scheduler sweeps, sampling
// time series, shrunk footprints).
func (e *Engine) getCfg(cfg system.Config, k workload.Kernel) (*system.Result, error) {
	e.queue([]system.Config{cfg}, []workload.Kernel{k})
	e.track(1, 0)
	defer e.track(-1, 0)
	return e.r.Get(runKey{cfg: cfg, kernel: k.Name})
}

// prefetch enqueues the kinds x kernels product on the worker pool so
// the serial assembly loop that follows finds its cells finished or in
// flight. Cells another experiment already ran are skipped.
func (e *Engine) prefetch(kinds []system.Kind, kernels []workload.Kernel) {
	cfgs := make([]system.Config, 0, len(kinds)*len(kernels))
	ks := make([]workload.Kernel, 0, cap(cfgs))
	for _, kind := range kinds {
		cfg := e.o.config(kind)
		for _, k := range kernels {
			cfgs = append(cfgs, cfg)
			ks = append(ks, k)
		}
	}
	e.prefetchCells(cfgs, ks)
}

// prefetchCfg enqueues custom-configuration cells.
func (e *Engine) prefetchCfg(cfg system.Config, kernels ...workload.Kernel) {
	cfgs := make([]system.Config, len(kernels))
	for i := range cfgs {
		cfgs[i] = cfg
	}
	e.prefetchCells(cfgs, kernels)
}

// prefetchCells enqueues the cells (cfgs[i], kernels[i]). Queuing all
// of a sweep's cells in one call counts every cell against its template
// before any runs, so no template is freed and recaptured within the
// sweep.
func (e *Engine) prefetchCells(cfgs []system.Config, kernels []workload.Kernel) {
	e.r.Prefetch(e.queue(cfgs, kernels)...)
}

// Table regenerates one experiment by id through the shared cache.
func (e *Engine) Table(id string) (*Table, error) {
	if err := e.o.checkKernels(); err != nil {
		return nil, err
	}
	for _, x := range Registry() {
		if x.ID == id {
			return x.Gen(e)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Tables regenerates the identified experiments - all of them, in paper
// order, when ids is empty - and returns the tables in request order.
//
// With one worker the experiments run serially in order. Otherwise each
// experiment runs on its own goroutine over the shared pool-bounded
// cache; assembly order is fixed by the ids slice, so the output is
// byte-identical to the serial run. The first error in request order is
// returned; a panicking generator re-panics on the calling goroutine,
// matching serial behaviour.
func (e *Engine) Tables(ids ...string) ([]*Table, error) {
	if err := e.o.checkKernels(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		for _, x := range Registry() {
			ids = append(ids, x.ID)
		}
	}
	tabs := make([]*Table, len(ids))
	if e.r.Workers() == 1 {
		for i, id := range ids {
			t, err := e.Table(id)
			if err != nil {
				return nil, err
			}
			tabs[i] = t
		}
		return tabs, nil
	}
	errs := make([]error, len(ids))
	panics := make([]any, len(ids))
	e.mu.Lock()
	e.hold = true
	e.gens += len(ids)
	e.mu.Unlock()
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer e.track(0, -1)
			defer func() { panics[i] = recover() }()
			tabs[i], errs[i] = e.Table(id)
		}(i, id)
	}
	wg.Wait()
	for i := range ids {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return tabs, nil
}
