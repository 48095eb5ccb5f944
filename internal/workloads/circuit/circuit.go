// Package circuit is a small self-contained MNA (modified nodal
// analysis) transient simulator whose per-Newton-iteration device
// sweep runs through spice.Pool. It is the runtime's first *real*
// program: the netlist is a pointer-linked device list walked in
// order, and every matrix/RHS stamp is accumulated into a ReduceSum
// reduction cell — conflict-free by construction — while node voltages
// and device-internal state (capacitor charge, diode linearization
// point) churn between sweeps with the topology held stable.
//
// The memory is laid out by one rule: a cell is for state a chunk
// writes; what is constant for the invocation is read where it lies,
// and what the driver rewrites between invocations lives off the lines
// chunks read in bulk. So the cell store holds the N²+N stamp
// reductions and nothing else; the node voltages are the driver's own
// []float64 iterate, read by each device through two pointers into it;
// and the device state is one dense []float64 beside the netlist
// (Circuit.states, slot i for device i), not a field of the Device
// structs a chunk streams through — the driver's update pass between
// sweeps then dirties a few contiguous lines instead of invalidating
// every stateful device's line in the cache of the worker that just
// read it.
//
// Reading outside the view is race-free because an invocation is
// ordered on both sides: dispatch (the executor queue, or program order
// for the chunks the invoker runs itself) puts the driver's writes
// before every chunk's reads, and the round's latch join — which waits
// for every launched chunk, squashed or not — puts every chunk's reads
// before the driver's next writes. The sweep itself writes nothing but
// its view, so a squashed chunk leaves no trace and re-executes from
// the same inputs.
//
// The simulator works in Newton residual form. Each device reports
// its linearized branch conductance g and branch current i at the
// current voltage iterate; the sweep accumulates the Jacobian
// J[a][a]+=g, J[a][b]-=g, J[b][a]-=g, J[b][b]+=g and the residual
// f[a]+=i, f[b]-=i, and the driver solves J·ΔV = −f by dense
// Gaussian elimination with partial pivoting, iterating until the
// update is below tolerance. Capacitors use backward-Euler companion
// models (g = C/h, i = g·(v − v_prev)); diodes are Newton-linearized
// around a pnjlim-limited operating point.
//
// Bit-identical parallelism: float addition is not associative, so
// chunk privatization would change accumulation grouping. All stamps
// are therefore fixed-point int64 (fixScale fractional bits) folded
// with ReduceSum — int64 addition is associative and commutative even
// under wraparound, so the folded totals are bit-identical regardless
// of chunking, width, or the adaptive gate. Everything downstream
// of the accumulators (solve, convergence, state updates) is shared
// scalar code, so parallel transients reproduce the sequential
// reference bit for bit.
package circuit

import (
	"math"

	"spice"
)

// Device kinds. Exported so the serving-registry projection
// (internal/workloads/native) can mirror netlist topology.
const (
	KindResistor uint8 = iota
	KindCapacitor
	KindDiode
	KindSource
)

// Diode model constants: saturation current, thermal voltage, and the
// critical voltage above which Newton updates are log-damped (the
// classic SPICE pnjlim limiter).
const (
	diodeIs   = 1e-9
	thermalVt = 0.025852
	// gmin is the SPICE-style leakage conductance across every
	// junction: with all bridge diodes cut off the AC nodes would
	// otherwise float and the Jacobian would go singular. 1 µS is
	// comfortably above the fixed-point resolution (2⁻³⁰ ≈ 0.93 nS)
	// and comfortably below every circuit conductance here.
	gmin = 1e-6
)

var diodeVcrit = thermalVt * math.Log(thermalVt/(math.Sqrt2*diodeIs))

// Fixed-point stamp encoding: fixScale fractional bits, saturated at
// ±fixLimit before scaling so an absurd intermediate stays a
// deterministic rail instead of undefined float→int conversion.
const (
	fixScale = 1 << 30
	fixLimit = float64(int64(1) << 32)
)

func toFix(x float64) int64 {
	if x > fixLimit {
		x = fixLimit
	} else if x < -fixLimit {
		x = -fixLimit
	}
	return int64(math.Round(x * fixScale))
}

const fromFix = 1.0 / float64(fixScale)

// Device is one netlist element on the branch a→b (node 0 is ground).
// A sweep only reads a Device and what it points to. *state is the
// device-internal value carried across sweeps: capacitor branch voltage
// at the previous timestep, diode linearization point, source current
// for the current timestep; it lives in Circuit.states, off the struct,
// because the driver rewrites it between sweeps. The r* fields are the
// device's precomputed reduction indices (−1 = ground row/column,
// never stamped).
type Device struct {
	Kind uint8
	A, B int
	Val  float64 // R in ohms, C in farads, diode Is scale, source amps
	Freq float64 // sources only: sine frequency in Hz; 0 = DC

	next   *Device
	va, vb *float64 // the two node voltages, in Circuit.volts
	state  *float64 // this device's slot of Circuit.states
	geq    float64  // resistor 1/R, capacitor C/h; fixed per circuit

	rAA, rAB, rBA, rBB int32
	rA, rB             int32
}

// eval computes the device's Newton-linearized branch conductance and
// branch current at node voltages (va, vb), in fixed point. This is
// the one evaluation routine shared verbatim by the sequential
// reference sweep and the speculative parallel sweep.
func (d *Device) eval(va, vb float64) (g, i int64) {
	v := va - vb
	switch d.Kind {
	case KindResistor:
		return toFix(d.geq), toFix(d.geq * v)
	case KindCapacitor:
		// Backward-Euler companion: i = C/h · (v − v_prev).
		return toFix(d.geq), toFix(d.geq * (v - *d.state))
	case KindDiode:
		vl := pnjlim(v, *d.state)
		e := math.Exp(vl / thermalVt)
		gd := diodeIs/thermalVt*e + gmin
		id := diodeIs*(e-1) + gd*(v-vl) + gmin*vl
		return toFix(gd), toFix(id)
	default: // KindSource: fixed current this timestep, no conductance.
		return 0, toFix(*d.state)
	}
}

// pnjlim damps a junction-voltage Newton step the way Berkeley SPICE
// does: once past vcrit, exponentially growing updates are pulled back
// onto a logarithmic trajectory so exp() cannot overflow and Newton
// cannot oscillate across the knee.
func pnjlim(vnew, vold float64) float64 {
	if vnew <= diodeVcrit || math.Abs(vnew-vold) <= 2*thermalVt {
		return vnew
	}
	if vold > 0 {
		arg := 1 + (vnew-vold)/thermalVt
		if arg > 0 {
			return vold + thermalVt*math.Log(arg)
		}
		return diodeVcrit
	}
	return thermalVt * math.Log(vnew/thermalVt)
}

// Circuit is a built netlist, the driver's state and the speculation
// plumbing, laid out by who writes what (see the package comment).
type Circuit struct {
	Name string
	N    int     // unknown (non-ground) node count
	Step float64 // timestep h in seconds

	head    *Device
	devices []*Device
	// The devices the driver updates between sweeps, by kind, each in
	// netlist order (resistors carry no state).
	sources, diodes, caps []*Device

	// Written by the driver between sweeps, only read by a sweep: the
	// Newton iterate (volts[0] is ground and stays zero) and one state
	// slot per device, slot i being netlist device i's.
	volts  []float64
	states []float64

	// Written by the chunks: N² Jacobian stamp cells followed by N
	// residual stamp cells, every one a ReduceSum reduction.
	cells *spice.Cells
	reds  []spice.Reduction

	// The driver's scratch, reused by every run: the stamp totals read
	// back from a sweep, and the dense system they scale into.
	acc      []int64
	jac, rhs []float64
	piv      []int
}

// Devices returns the netlist in traversal order (for projections and
// inspection; mutating topology through it is not supported).
func (c *Circuit) Devices() []*Device { return c.devices }

// DeviceCount reports the netlist length.
func (c *Circuit) DeviceCount() int { return len(c.devices) }

func (c *Circuit) add(d *Device) { c.devices = append(c.devices, d) }

// finish links the device chain, points each device at its two node
// voltages and its state slot, files it under its kind, assigns its
// stamp reduction indices, and sizes the cell store and the scratch.
func (c *Circuit) finish() *Circuit {
	n := c.N
	c.volts = make([]float64, n+1)
	c.states = make([]float64, len(c.devices))
	for i, d := range c.devices {
		d.state = &c.states[i]
		if i+1 < len(c.devices) {
			d.next = c.devices[i+1]
		}
		switch d.Kind {
		case KindResistor:
			d.geq = 1 / d.Val
		case KindCapacitor:
			d.geq = d.Val / c.Step
			c.caps = append(c.caps, d)
		case KindDiode:
			c.diodes = append(c.diodes, d)
		case KindSource:
			c.sources = append(c.sources, d)
		}
		d.va, d.vb = &c.volts[d.A], &c.volts[d.B]
		d.rAA = c.matIdx(d.A, d.A)
		d.rAB = c.matIdx(d.A, d.B)
		d.rBA = c.matIdx(d.B, d.A)
		d.rBB = c.matIdx(d.B, d.B)
		d.rA = c.rhsIdx(d.A)
		d.rB = c.rhsIdx(d.B)
	}
	c.head = c.devices[0]
	nred := n*n + n
	c.cells = spice.NewCells(nred)
	c.reds = make([]spice.Reduction, nred)
	for r := range c.reds {
		c.reds[r] = spice.Reduction{Cell: r, Kind: spice.ReduceSum}
	}
	c.acc = make([]int64, nred)
	c.jac = make([]float64, n*n)
	c.rhs = make([]float64, n)
	c.piv = make([]int, n)
	return c
}

// matIdx maps (row i, col j) in 1-based node numbering onto the flat
// stamp-accumulator index; ground rows and columns are not stamped.
func (c *Circuit) matIdx(i, j int) int32 {
	if i == 0 || j == 0 {
		return -1
	}
	return int32((i-1)*c.N + (j - 1))
}

func (c *Circuit) rhsIdx(i int) int32 {
	if i == 0 {
		return -1
	}
	return int32(c.N*c.N + (i - 1))
}

// loop is the speculative device sweep: chase the netlist pointer
// chain, read the two node voltages, evaluate the device, and fold
// its Jacobian/residual stamps into the ReduceSum cells. The loop
// accumulator counts evaluated devices (a cheap liveness check).
func (c *Circuit) loop() spice.Loop[*Device, int64] {
	return spice.Loop[*Device, int64]{
		Done: func(d *Device) bool { return d == nil },
		Next: func(d *Device) *Device { return d.next },
		SpecBody: func(d *Device, acc int64, v *spice.CellView) int64 {
			d.stamp(v)
			return acc + 1
		},
		Scan:       sweepScan,
		Init:       func() int64 { return 0 },
		Merge:      func(a, b int64) int64 { return a + b },
		Reductions: c.reds,
	}
}

// stamp is one device of the speculative sweep in its closure form (the
// loop's SpecBody): evaluate, then fold the six guarded stamps through
// Reduce. It is the reference sweepScan is held to
// (TestSweepScanDifferential).
func (d *Device) stamp(v *spice.CellView) {
	g, i := d.eval(*d.va, *d.vb)
	if d.rAA >= 0 {
		v.Reduce(int(d.rAA), g)
	}
	if d.rBB >= 0 {
		v.Reduce(int(d.rBB), g)
	}
	if d.rAB >= 0 {
		v.Reduce(int(d.rAB), -g)
	}
	if d.rBA >= 0 {
		v.Reduce(int(d.rBA), -g)
	}
	if d.rA >= 0 {
		v.Reduce(int(d.rA), i)
	}
	if d.rB >= 0 {
		v.Reduce(int(d.rB), -i)
	}
}

// sweepScan is the sweep's block form (spice.Loop.Scan): the devices of
// stamp, stamped straight into the view's private accumulators, which it
// asks for once per block. Every reduction of the sweep is a ReduceSum,
// so each fold is an add, and with the slice in a local the compiler
// keeps its header across the stores as it does sweepSeq's acc; through
// Reduce it reloaded the header and repeated the range check after every
// one.
func sweepScan(d *Device, acc int64, v *spice.CellView, stop *Device, max int64) (*Device, int64, int64) {
	a := v.Accumulators()
	var k int64
	for ; k < max && d != nil && d != stop; k++ {
		g, i := d.eval(*d.va, *d.vb)
		if d.rAA >= 0 {
			a[d.rAA] += g
		}
		if d.rBB >= 0 {
			a[d.rBB] += g
		}
		if d.rAB >= 0 {
			a[d.rAB] -= g
		}
		if d.rBA >= 0 {
			a[d.rBA] -= g
		}
		if d.rA >= 0 {
			a[d.rA] += i
		}
		if d.rB >= 0 {
			a[d.rB] -= i
		}
		d = d.next
	}
	return d, acc + k, k
}

// sweepSeq is the pure-sequential reference sweep: same traversal,
// same eval, same stamp indices, accumulated into a plain slice with
// the identical int64 arithmetic the reduction fold performs.
func (c *Circuit) sweepSeq(volts []float64, acc []int64) {
	for d := c.head; d != nil; d = d.next {
		g, i := d.eval(volts[d.A], volts[d.B])
		if d.rAA >= 0 {
			acc[d.rAA] += g
		}
		if d.rBB >= 0 {
			acc[d.rBB] += g
		}
		if d.rAB >= 0 {
			acc[d.rAB] -= g
		}
		if d.rBA >= 0 {
			acc[d.rBA] -= g
		}
		if d.rA >= 0 {
			acc[d.rA] += i
		}
		if d.rB >= 0 {
			acc[d.rB] -= i
		}
	}
}

// resetState rewinds the voltage iterate and all device-internal state
// so a circuit can be re-run from t=0; construction leaves everything
// zeroed already.
func (c *Circuit) resetState() {
	clear(c.volts)
	clear(c.states)
}

// updateSources sets each source's drive current for timestep time t.
func (c *Circuit) updateSources(t float64) {
	for _, d := range c.sources {
		if d.Freq > 0 {
			*d.state = d.Val * math.Sin(2*math.Pi*d.Freq*t)
		} else {
			*d.state = d.Val
		}
	}
}

// updateDiodeStates advances every diode's linearization point to the
// pnjlim-limited voltage at the new iterate (once per Newton
// iteration, between sweeps — the runtime's legal mutation window).
// It cannot move into the sweep: state = pnjlim(v, state) is not
// idempotent, so a squashed chunk that had run it would hand its
// re-execution an already-advanced state.
func (c *Circuit) updateDiodeStates() {
	for _, d := range c.diodes {
		*d.state = pnjlim(*d.va-*d.vb, *d.state)
	}
}

// updateCapStates latches every capacitor's branch voltage at the end
// of an accepted timestep (the backward-Euler companion history).
func (c *Circuit) updateCapStates() {
	for _, d := range c.caps {
		*d.state = *d.va - *d.vb
	}
}

// RCLadder builds an RC ladder: a 1 A step current source drives node
// 1, each section is a series resistor bundle into a shunt capacitor
// bundle, and the last node is resistively loaded to ground. Every
// section's total R is 1 Ω and total C is 1 F split across `branches`
// parallel devices, so the waveform is independent of branches while
// the netlist length scales with it. Normalized units; h = 0.25 s.
func RCLadder(sections, branches int) *Circuit {
	if sections < 1 {
		sections = 1
	}
	if branches < 1 {
		branches = 1
	}
	c := &Circuit{Name: "rcladder", N: sections, Step: 0.25}
	c.add(&Device{Kind: KindSource, A: 0, B: 1, Val: 1.0})
	for s := 1; s <= sections; s++ {
		if s > 1 {
			for b := 0; b < branches; b++ {
				c.add(&Device{Kind: KindResistor, A: s - 1, B: s, Val: float64(branches)})
			}
		}
		for b := 0; b < branches; b++ {
			c.add(&Device{Kind: KindCapacitor, A: s, B: 0, Val: 1.0 / float64(branches)})
		}
	}
	for b := 0; b < branches; b++ {
		c.add(&Device{Kind: KindResistor, A: sections, B: 0, Val: float64(branches)})
	}
	return c.finish()
}

// Rectifier builds a full-wave diode-bridge rectifier: a 0.25 Hz
// Norton sine drive across nodes 1–2 (source ∥ 1 Ω), four bridge
// diodes into node 3 (DC+) and out of ground (DC−), and an RC-loaded
// output (10 Ω ∥ 2 F). Each of the `bundles` replicas carries 1/bundles
// of the drive and filter so the waveform is bundle-count-invariant
// while the netlist length scales. h = 0.1 s.
func Rectifier(bundles int) *Circuit {
	if bundles < 1 {
		bundles = 1
	}
	c := &Circuit{Name: "rectifier", N: 3, Step: 0.1}
	fb := float64(bundles)
	for b := 0; b < bundles; b++ {
		c.add(&Device{Kind: KindSource, A: 2, B: 1, Val: 1.5 / fb, Freq: 0.25})
		c.add(&Device{Kind: KindResistor, A: 1, B: 2, Val: 1.0 * fb})
		c.add(&Device{Kind: KindDiode, A: 1, B: 3})
		c.add(&Device{Kind: KindDiode, A: 2, B: 3})
		c.add(&Device{Kind: KindDiode, A: 0, B: 1})
		c.add(&Device{Kind: KindDiode, A: 0, B: 2})
		c.add(&Device{Kind: KindResistor, A: 3, B: 0, Val: 10.0 * fb})
		c.add(&Device{Kind: KindCapacitor, A: 3, B: 0, Val: 2.0 / fb})
	}
	return c.finish()
}
