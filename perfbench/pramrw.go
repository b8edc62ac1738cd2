package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dramless"
	"dramless/internal/workload"
)

// pramRW drives the PRAM controller with writes beside reads: every
// functional kernel of internal/workload that has a Go reference runs on
// one booted PRAM subsystem (default policy) through workload.Vec loads
// and stores, and each output is checked against its *Ref function. It
// runs on one goroutine. The seed sets the input values and the
// row-aligned base addresses.
type pramRW struct {
	sub     *dramless.PRAM
	now     dramless.Time
	kernels []rwKernel
	took    []dramless.Duration // simulated duration of each kernel in the last pass
	sum     string              // digest of the warm-up pass
}

// rwKernel is one functional kernel with its inputs and expected outputs.
type rwKernel struct {
	name    string
	inputs  []region
	outputs []region
	run     func(dev dramless.Memory, at dramless.Time) (dramless.Time, error)
}

// region is a run of float64s at a device address.
type region struct {
	base uint64
	vals []float64
}

const (
	rowBytes = 32       // PRAM row width: base addresses are row-aligned
	slotSize = 16 << 20 // each kernel's regions live in their own slot
	maxShift = 4 << 20  // seeded offset of a kernel's regions in its slot
)

// relTol is the relative difference allowed against a reference.
const relTol = 1e-9

func newPRAMRW() *pramRW { return &pramRW{} }

// setup boots a fresh subsystem, generates the seeded inputs and expected
// outputs, and runs one warm-up pass. Its simulated results must be the
// same in every repetition.
func (p *pramRW) setup(seed int64) (tally, error) {
	sub, ready, err := dramless.NewPRAM()
	if err != nil {
		return tally{}, err
	}
	ks, err := rwKernels(seed)
	if err != nil {
		return tally{}, err
	}
	p.sub, p.now, p.kernels = sub, ready, ks
	tl := p.pass(sub, nil, 0)
	sum := p.passDigest()
	switch {
	case p.sum == "":
		p.sum = sum
	case sum != p.sum:
		tl.fail(1, "warm-up pass simulated differently from the first set-up's")
	}
	return tl, nil
}

// iterate runs one pass over all kernels on the booted subsystem.
func (p *pramRW) iterate() tally {
	return p.pass(p.sub, nil, 0)
}

// pass runs every kernel once through dev: it stores the inputs, runs the
// kernel, loads the outputs and compares them with the references. It
// returns the tally (one operation per kernel) and records each kernel's
// simulated duration in p.took. With tr set, each kernel gets a span
// under parent.
func (p *pramRW) pass(dev dramless.Memory, tr *tracer, parent int) tally {
	var tl tally
	p.took = p.took[:0]
	for _, k := range p.kernels {
		tl.attempted++
		sp := 0
		if tr != nil {
			sp = tr.begin("pram_rw."+k.name, parent)
		}
		done, err := k.exec(dev, p.now)
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			tl.fail(1, "%s: %v", k.name, err)
			continue
		}
		p.took = append(p.took, done-p.now)
		p.now = done
	}
	return tl
}

// passDigest hashes the last pass's simulated kernel durations and the
// controller and device statistics.
func (p *pramRW) passDigest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%v\n%+v\n%+v\n", p.took, p.sub.Stats(), p.sub.ModuleStats())
	return hex.EncodeToString(h.Sum(nil))
}

// exec stores k's inputs, runs k and checks its outputs, returning the
// simulated time the last output load completed.
func (k *rwKernel) exec(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
	now := at
	for _, r := range k.inputs {
		v, err := workload.NewVec(dev, r.base, len(r.vals))
		if err != nil {
			return 0, err
		}
		if now, err = v.Fill(now, r.vals); err != nil {
			return 0, err
		}
	}
	now, err := k.run(dev, now)
	if err != nil {
		return 0, err
	}
	for i, r := range k.outputs {
		v, err := workload.NewVec(dev, r.base, len(r.vals))
		if err != nil {
			return 0, err
		}
		var got []float64
		if got, now, err = v.Snapshot(now); err != nil {
			return 0, err
		}
		if j := mismatch(got, r.vals); j >= 0 {
			return 0, fmt.Errorf("output %d [%d] = %v, reference %v", i, j, got[j], r.vals[j])
		}
	}
	return now, nil
}

// mismatch returns the first index where got differs from want by more
// than relTol relative, or -1.
func mismatch(got, want []float64) int {
	for i := range want {
		if i >= len(got) {
			return i
		}
		g, w := got[i], want[i]
		if g != w && !(math.Abs(g-w) <= relTol*math.Abs(w)) {
			return i
		}
	}
	return -1
}

func (p *pramRW) pairsFrac() float64 {
	// Figure 15 is not part of this workload; 1 keeps the metric set the
	// same on every workload without suggesting a loss.
	return 1
}

func (p *pramRW) digest() string { return p.sum }

// untracedPasses is how many untraced passes the traced run's overhead
// is measured against; one pass is too short to time alone.
const untracedPasses = 5

// traced times untraced passes, then one pass through a timing wrapper
// around the subsystem's device calls, which sums per-call host and
// simulated durations instead of recording a span per call.
func (p *pramRW) traced(tr *tracer, l *layers) tally {
	var tl tally
	var walls []float64
	for i := 0; i < untracedPasses; i++ {
		runtime.GC()
		t0 := time.Now()
		tl.add(p.iterate())
		walls = append(walls, time.Since(t0).Seconds())
	}
	untraced := median(walls)

	runtime.GC()
	tr.nextIter()
	before, beforeMod, start := p.sub.Stats(), p.sub.ModuleStats(), p.now
	root := tr.begin("pram_rw.pass", 0)
	t := p.pass(&timedDevice{sub: p.sub, l: l}, tr, root)
	l.overheadS = tr.end(root).Seconds() - untraced
	tl.add(t)

	after, afterMod := p.sub.Stats(), p.sub.ModuleStats()
	l.mcReads = after.Reads - before.Reads
	l.mcWrites = after.Writes - before.Writes
	l.rabHits = after.PreactiveSkips - before.PreactiveSkips
	l.rdbHits = after.ActivateSkips - before.ActivateSkips
	l.fullAccesses = after.FullAccesses - before.FullAccesses
	l.overlaps = after.InterleaveOverlaps - before.InterleaveOverlaps
	l.preErased = after.PreErasedRows - before.PreErasedRows
	l.programs = afterMod.Programs - beforeMod.Programs
	l.programPS = int64(afterMod.ProgramTime - beforeMod.ProgramTime)
	l.pramRWSimPS = int64(p.now - start)
	return tl
}

// timedDevice wraps the subsystem's scalar device calls, counting each
// call with its host time and simulated latency.
type timedDevice struct {
	sub *dramless.PRAM
	l   *layers
}

func (d *timedDevice) Read(at dramless.Time, addr uint64, n int) ([]byte, dramless.Time, error) {
	t0 := time.Now()
	data, done, err := d.sub.Read(at, addr, n)
	d.read(time.Since(t0), done-at)
	return data, done, err
}

func (d *timedDevice) ReadInto(at dramless.Time, addr uint64, dst []byte) (dramless.Time, error) {
	t0 := time.Now()
	done, err := d.sub.ReadInto(at, addr, dst)
	d.read(time.Since(t0), done-at)
	return done, err
}

func (d *timedDevice) Write(at dramless.Time, addr uint64, data []byte) (dramless.Time, error) {
	t0 := time.Now()
	done, err := d.sub.Write(at, addr, data)
	d.l.writeCalls++
	d.l.writeHost += time.Since(t0)
	d.l.writeSimPS = append(d.l.writeSimPS, float64(done-at))
	return done, err
}

func (d *timedDevice) Size() uint64 { return d.sub.Size() }

func (d *timedDevice) read(host time.Duration, sim dramless.Duration) {
	d.l.readCalls++
	d.l.readHost += host
	d.l.readSimPS = append(d.l.readSimPS, float64(sim))
}

// rwKernels builds the ten kernels' seeded inputs, addresses and
// reference outputs.
func rwKernels(seed int64) ([]rwKernel, error) {
	rng := rand.New(rand.NewSource(seed))
	uniform := func(n int, lo, hi float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = lo + (hi-lo)*rng.Float64()
		}
		return out
	}
	slot := 0
	// place lays out consecutive row-aligned regions of the given
	// lengths at a seeded offset in the next slot.
	place := func(lens ...int) []uint64 {
		base := uint64(slot)*slotSize + uint64(rng.Intn(maxShift/rowBytes))*rowBytes
		slot++
		out := make([]uint64, len(lens))
		for i, n := range lens {
			out[i] = base
			base += (uint64(8*n) + rowBytes - 1) / rowBytes * rowBytes
		}
		return out
	}
	var ks []rwKernel

	{ // jacobi1d: a 3-point stencil, ping-ponging through a second buffer.
		const n, steps = 2048, 4
		a := uniform(n, 0, 1)
		b := place(n, n)
		ks = append(ks, rwKernel{
			name:    "jacobi1d",
			inputs:  []region{{b[0], a}},
			outputs: []region{{b[0], workload.Jacobi1DRef(a, steps)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Jacobi1D(dev, at, b[0], b[1], n, steps)
			},
		})
	}
	{ // trisolv: forward substitution, one scalar load or store per element.
		const n = 32
		l := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l[i*n+j] = -0.1 + 0.2*rng.Float64()
			}
			l[i*n+i] = 1 + rng.Float64()
		}
		bv := uniform(n, -1, 1)
		b := place(n*n, n, n)
		ks = append(ks, rwKernel{
			name:    "trisolv",
			inputs:  []region{{b[0], l}, {b[1], bv}},
			outputs: []region{{b[2], workload.TrisolvRef(l, bv)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Trisolv(dev, at, b[0], b[1], b[2], n)
			},
		})
	}
	{ // gemver: rank-2 update and two matrix-vector products.
		const n = 40
		a := uniform(n*n, -1, 1)
		vecs := uniform(5*n, -1, 1)
		alpha, beta := 0.5+rng.Float64(), 0.5+rng.Float64()
		bOut, x, w := workload.GemverRef(a, vecs[:n], vecs[n:2*n], vecs[2*n:3*n], vecs[3*n:4*n], vecs[4*n:], alpha, beta)
		b := place(n*n, 7*n)
		ks = append(ks, rwKernel{
			name:   "gemver",
			inputs: []region{{b[0], a}, {b[1], vecs}},
			outputs: []region{
				{b[0], bOut}, {b[1] + 8*5*n, x}, {b[1] + 8*6*n, w},
			},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Gemver(dev, at, b[0], b[1], n, alpha, beta)
			},
		})
	}
	{ // doitgen: a tensor contraction written back row by row.
		const nr, nq, np = 8, 8, 16
		a := uniform(nr*nq*np, -1, 1)
		c4 := uniform(np*np, -1, 1)
		b := place(nr*nq*np, np*np)
		ks = append(ks, rwKernel{
			name:    "doitgen",
			inputs:  []region{{b[0], a}, {b[1], c4}},
			outputs: []region{{b[0], workload.DoitgenRef(a, c4, nr, nq, np)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Doitgen(dev, at, b[0], b[1], nr, nq, np)
			},
		})
	}
	{ // floyd: all-pairs shortest paths, rows rewritten as they shrink.
		const n = 24
		d := make([]float64, n*n)
		for i := range d {
			switch {
			case i/n == i%n:
				d[i] = 0
			case rng.Float64() < 0.3:
				d[i] = math.Inf(1)
			default:
				d[i] = 1 + 9*rng.Float64()
			}
		}
		b := place(n * n)
		ks = append(ks, rwKernel{
			name:    "floyd",
			inputs:  []region{{b[0], d}},
			outputs: []region{{b[0], workload.FloydRef(d, n)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Floyd(dev, at, b[0], n)
			},
		})
	}
	{ // seidel: in-place 9-point relaxation.
		const n, steps = 40, 3
		g := uniform(n*n, 0, 1)
		b := place(n * n)
		ks = append(ks, rwKernel{
			name:    "seidel",
			inputs:  []region{{b[0], g}},
			outputs: []region{{b[0], workload.SeidelRef(g, n, steps)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Seidel(dev, at, b[0], n, steps)
			},
		})
	}
	{ // lu: in-place Doolittle factorization of a diagonally dominant matrix.
		const n = 48
		a := uniform(n*n, -1, 1)
		for i := 0; i < n; i++ {
			a[i*n+i] += n
		}
		b := place(n * n)
		ks = append(ks, rwKernel{
			name:    "lu",
			inputs:  []region{{b[0], a}},
			outputs: []region{{b[0], workload.LURef(a, n)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.LU(dev, at, b[0], n)
			},
		})
	}
	{ // cholesky: factor of M M^T + n I, written over the lower triangle.
		const n = 40
		m := uniform(n*n, -1, 1)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a[i*n+j] += m[i*n+k] * m[j*n+k]
				}
			}
			a[i*n+i] += n
		}
		b := place(n * n)
		ks = append(ks, rwKernel{
			name:    "cholesky",
			inputs:  []region{{b[0], a}},
			outputs: []region{{b[0], workload.CholeskyRef(a, n)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Cholesky(dev, at, b[0], n)
			},
		})
	}
	{ // durbin: Levinson-Durbin on an AR(1) autocorrelation sequence.
		const n = 512
		rho := 0.2 + 0.6*rng.Float64()
		r := make([]float64, n-1)
		for k := range r {
			r[k] = math.Pow(rho, float64(k+1))
		}
		y, err := workload.DurbinRef(r)
		if err != nil {
			return nil, fmt.Errorf("durbin reference: %w", err)
		}
		b := place(n-1, n-1)
		ks = append(ks, rwKernel{
			name:    "durbin",
			inputs:  []region{{b[0], r}},
			outputs: []region{{b[1], y}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.Durbin(dev, at, b[0], b[1], n)
			},
		})
	}
	{ // adi: alternating row and column relaxations.
		const n, steps = 40, 3
		g := uniform(n*n, 0, 1)
		b := place(n * n)
		ks = append(ks, rwKernel{
			name:    "adi",
			inputs:  []region{{b[0], g}},
			outputs: []region{{b[0], workload.ADIRef(g, n, steps)}},
			run: func(dev dramless.Memory, at dramless.Time) (dramless.Time, error) {
				return workload.ADI(dev, at, b[0], n, steps)
			},
		})
	}
	return ks, nil
}
