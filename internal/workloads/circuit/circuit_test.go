package circuit

import (
	"context"
	"math"
	"slices"
	"testing"

	"spice"
)

// TestTransientOracle is the differential oracle the tentpole hangs
// on: for each netlist, the parallel transient must reproduce the
// pure-sequential reference waveform bit for bit across widths ×
// adaptive on/off. The same Circuit value is reused for every run, so
// this also proves resetState makes transients rerunnable.
func TestTransientOracle(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Circuit
		steps int
	}{
		{"rcladder", func() *Circuit { return RCLadder(6, 24) }, 40},
		{"rectifier", func() *Circuit { return Rectifier(48) }, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			ref, err := c.RunSequential(tc.steps)
			if err != nil {
				t.Fatalf("sequential reference: %v", err)
			}
			if ref.Steps() != tc.steps {
				t.Fatalf("reference produced %d steps, want %d", ref.Steps(), tc.steps)
			}
			for _, width := range []int{1, 2, 8} {
				for _, adaptive := range []bool{false, true} {
					wf, st, err := c.RunParallel(context.Background(), width, adaptive, tc.steps)
					if err != nil {
						t.Fatalf("width=%d adaptive=%v: %v", width, adaptive, err)
					}
					if !ref.Equal(wf) {
						t.Fatalf("width=%d adaptive=%v: waveform diverged from sequential reference", width, adaptive)
					}
					if st.Invocations == 0 {
						t.Fatalf("width=%d adaptive=%v: no invocations recorded", width, adaptive)
					}
				}
			}
			// And sequential again on the reused circuit: still identical.
			again, err := c.RunSequential(tc.steps)
			if err != nil {
				t.Fatalf("sequential rerun: %v", err)
			}
			if !ref.Equal(again) {
				t.Fatal("sequential rerun diverged: device state not fully reset")
			}
		})
	}
}

// TestSweepScanDifferential runs both netlists with the sweep loop's
// block form (Loop.Scan) set and stripped: the waveforms must equal the
// sequential reference bit for bit and each other's counters exactly —
// the block form changes how a chunk's inner loop is compiled and
// nothing a caller can observe.
func TestSweepScanDifferential(t *testing.T) {
	counters := func(st spice.Stats) [6]int64 {
		return [6]int64{st.TotalIters, st.Hits, st.Misses, st.SquashedIters, st.Conflicts, st.Recoveries}
	}
	for _, tc := range []struct {
		name  string
		c     *Circuit
		steps int
	}{
		{"rcladder", RCLadder(6, 24), 40},
		{"rectifier", Rectifier(48), 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.c.RunSequential(tc.steps)
			if err != nil {
				t.Fatal(err)
			}
			block, closures := tc.c.loop(), tc.c.loop()
			if block.Scan == nil {
				t.Fatal("the sweep loop has no Scan")
			}
			closures.Scan = nil
			for _, width := range []int{1, 2, 3, 4} {
				for _, adaptive := range []bool{false, true} {
					wfB, stB, err := tc.c.runParallel(context.Background(), block, width, adaptive, tc.steps)
					if err != nil {
						t.Fatalf("width=%d adaptive=%v Scan: %v", width, adaptive, err)
					}
					wfC, stC, err := tc.c.runParallel(context.Background(), closures, width, adaptive, tc.steps)
					if err != nil {
						t.Fatalf("width=%d adaptive=%v closures: %v", width, adaptive, err)
					}
					if !ref.Equal(wfB) || !ref.Equal(wfC) {
						t.Fatalf("width=%d adaptive=%v: waveform diverged from the sequential reference (Scan equal: %v, closures equal: %v)",
							width, adaptive, ref.Equal(wfB), ref.Equal(wfC))
					}
					if counters(stB) != counters(stC) {
						t.Fatalf("width=%d adaptive=%v: counters differ\nScan:     %v\nclosures: %v",
							width, adaptive, counters(stB), counters(stC))
					}
					if width > 1 && stB.Hits == 0 {
						t.Fatalf("width=%d adaptive=%v: no speculative chunk committed", width, adaptive)
					}
				}
			}
		})
	}
}

// floatBits snapshots a slice the way the oracle compares waveforms.
func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// relink replaces every device behind the head with a copy, so that no
// device pointer the predictor memoized is on the chain any more: every
// speculative chunk of the next sweep starts from an orphan and is
// squashed. The copies share their originals' voltage and state slots.
func relink(c *Circuit) {
	for i := 1; i < len(c.devices); i++ {
		d := *c.devices[i]
		c.devices[i] = &d
		c.devices[i-1].next = &d
	}
}

// TestSweepLeavesDriverStateAlone is the soundness check for reading
// outside the view: a sweep reads the node voltages and the device
// states in place, so whatever it does — commit, run into the iteration
// cap and finish in a later round, get squashed on a poisoned
// prediction and re-execute — both arrays must come back bit for bit as
// the driver left them, and the folded stamps must equal the reference
// sweep's at those values.
func TestSweepLeavesDriverStateAlone(t *testing.T) {
	ctx := context.Background()
	// prefix is the chain length the capped runs memoize on: the runtime
	// caps a speculative chunk at 4 × the last trip count + 1024, so a
	// netlist longer than 5 × prefix + 1024 devices caps its last chunk.
	const prefix = 16
	for _, tc := range []struct {
		name  string
		build func(scale int) *Circuit
	}{
		{"rcladder", func(k int) *Circuit { return RCLadder(4, 8*k) }},
		{"rectifier", func(k int) *Circuit { return Rectifier(12 * k) }},
	} {
		for _, scan := range []bool{true, false} {
			for _, capped := range []bool{false, true} {
				for width := 1; width <= 4; width++ {
					name := tc.name + "/" + benchLabel(width)
					if !scan {
						name += "/closures"
					}
					if capped {
						name += "/capped"
					}
					t.Run(name, func(t *testing.T) {
						c := tc.build(1)
						if capped {
							c = tc.build(20) // 1 281 and 1 920 devices
						}
						// A few timesteps in, so voltages and states are
						// not the all-zero start, with the next step's
						// source drive applied.
						if _, err := c.RunSequential(5); err != nil {
							t.Fatal(err)
						}
						c.updateSources(6 * c.Step)
						loop := c.loop()
						if !scan {
							loop.Scan = nil
						}
						pool, err := spice.NewPool(loop, spice.PoolConfig{
							Config: spice.Config{Threads: width},
						})
						if err != nil {
							t.Fatal(err)
						}
						defer pool.Close()
						sess, err := pool.SessionWidth(width)
						if err != nil {
							t.Fatal(err)
						}
						defer sess.Close()
						sess.BindCells(c.cells)

						volts, states := floatBits(c.volts), floatBits(c.states)
						want, got := make([]int64, len(c.acc)), make([]int64, len(c.acc))
						sweep := func(what string) spice.Stats {
							clear(want)
							c.sweepSeq(c.volts, want)
							before := sess.Stats()
							if err := c.sweepSpec(ctx, sess, got); err != nil {
								t.Fatalf("%s: %v", what, err)
							}
							if got := floatBits(c.volts); !slices.Equal(got, volts) {
								t.Fatalf("%s: the sweep changed the node voltages", what)
							}
							if got := floatBits(c.states); !slices.Equal(got, states) {
								t.Fatalf("%s: the sweep changed the device states", what)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s: stamps differ from the reference sweep's\ngot  %v\nwant %v", what, got, want)
							}
							return sess.Stats().Delta(before)
						}
						if capped { // memoize on the prefix alone
							c.devices[prefix-1].next = nil
						}
						for i := 0; i < 3; i++ { // memoize, then speculate
							sweep("clean sweep")
						}
						if capped {
							c.devices[prefix-1].next = c.devices[prefix]
							st := sweep("grown sweep")
							if width > 1 && st.Recoveries == 0 {
								t.Fatalf("the grown sweep capped no chunk: %+v", st)
							}
						}
						relink(c)
						st := sweep("poisoned sweep")
						if width > 1 && st.SquashedIters == 0 {
							t.Fatalf("the poisoned sweep squashed nothing: %+v", st)
						}
						sweep("sweep after the squash")
					})
				}
			}
		}
	}
}

// TestDeviceStateLayout pins the driver-side layout: state slot i is
// netlist device i's, every device reads its two voltages out of the
// circuit's one iterate, the three kind lists partition the stateful
// devices by Kind in netlist order, and resetState rewinds every slot
// (a re-run is bit-identical).
func TestDeviceStateLayout(t *testing.T) {
	for _, c := range []*Circuit{RCLadder(3, 5), Rectifier(7)} {
		t.Run(c.Name, func(t *testing.T) {
			if len(c.states) != len(c.devices) || len(c.volts) != c.N+1 {
				t.Fatalf("%d state slots for %d devices, %d voltages for %d nodes",
					len(c.states), len(c.devices), len(c.volts), c.N)
			}
			byKind := map[uint8][]*Device{}
			for i, d := range c.devices {
				if d.state != &c.states[i] {
					t.Fatalf("device %d does not own state slot %d", i, i)
				}
				if d.va != &c.volts[d.A] || d.vb != &c.volts[d.B] {
					t.Fatalf("device %d (%d→%d) reads the wrong voltages", i, d.A, d.B)
				}
				byKind[d.Kind] = append(byKind[d.Kind], d)
			}
			for _, l := range []struct {
				kind uint8
				list []*Device
			}{{KindSource, c.sources}, {KindDiode, c.diodes}, {KindCapacitor, c.caps}} {
				if !slices.Equal(l.list, byKind[l.kind]) {
					t.Fatalf("kind %d: the list is not the netlist's devices of that kind, in order", l.kind)
				}
			}

			ref, err := c.RunSequential(20)
			if err != nil {
				t.Fatal(err)
			}
			nonzero := func(u uint64) bool { return u != 0 }
			if !slices.ContainsFunc(floatBits(c.states), nonzero) {
				t.Fatal("a transient left every state slot zero")
			}
			c.resetState()
			if slices.ContainsFunc(floatBits(c.states), nonzero) || slices.ContainsFunc(floatBits(c.volts), nonzero) {
				t.Fatalf("resetState left states %v, voltages %v", c.states, c.volts)
			}
			again, err := c.RunSequential(20)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Equal(again) {
				t.Fatal("the re-run diverged")
			}
		})
	}
}

// TestRCLadderPhysics sanity-checks the solver against circuit theory:
// a 1 A step into a resistively loaded ladder must charge monotonically
// toward the DC solution V(1) = sections·1 Ω (all capacitors open).
func TestRCLadderPhysics(t *testing.T) {
	sections := 4
	c := RCLadder(sections, 8)
	wf, err := c.RunSequential(240)
	if err != nil {
		t.Fatal(err)
	}
	last := wf.At(wf.Steps()-1, 1)
	dc := float64(sections)
	if last < 0.9*dc || last > 1.01*dc {
		t.Fatalf("V(1) settled at %g, want ≈ %g", last, dc)
	}
	if first := wf.At(0, 1); first <= 0 || first >= last {
		t.Fatalf("V(1) not charging: first=%g last=%g", first, last)
	}
}

// TestRectifierPhysics checks rectification: the output node must end
// up positively charged with bounded ripple even while the drive
// swings both ways, and must never exceed the drive's open-circuit
// peak.
func TestRectifierPhysics(t *testing.T) {
	c := Rectifier(16)
	wf, err := c.RunSequential(120) // 12 s = three full 0.25 Hz periods
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for s := wf.Steps() / 2; s < wf.Steps(); s++ {
		v := wf.At(s, 3)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if min < 0.1 {
		t.Fatalf("DC output collapsed: min V(3)=%g over the settled half", min)
	}
	if max > 1.5 {
		t.Fatalf("DC output above drive peak: max V(3)=%g", max)
	}
	if max-min > 0.5 {
		t.Fatalf("ripple too large: %g", max-min)
	}
}

// TestWaveformEqual pins down the oracle comparison itself.
func TestWaveformEqual(t *testing.T) {
	a := &Waveform{Step: 0.1, V: [][]float64{{1, 2}, {3, 4}}}
	b := &Waveform{Step: 0.1, V: [][]float64{{1, 2}, {3, 4}}}
	if !a.Equal(b) {
		t.Fatal("identical waveforms compared unequal")
	}
	b.V[1][1] = math.Nextafter(4, 5)
	if a.Equal(b) {
		t.Fatal("one-ulp difference compared equal")
	}
	if a.Equal(nil) || a.Equal(&Waveform{Step: 0.2, V: a.V}) {
		t.Fatal("nil/mismatched-step waveforms compared equal")
	}
}

// TestParallelCancellation: a cancelled context must surface as an
// error from the transient, not hang or corrupt state.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RCLadder(4, 8).RunParallel(ctx, 2, false, 10); err == nil {
		t.Fatal("cancelled transient returned nil error")
	}
}

// BenchmarkCircuitSweep measures the steady-state device-evaluation
// sweep (the per-Newton-iteration hot path) through the runtime at
// fixed voltages, and gates it at 0 allocs/op like every other
// steady-state bench. The tN variants run sweeps back to back; the
// gap/tN variants do the transient's scalar work between sweeps (stamp
// read-back, the dense solve, device state updates), which is the
// cadence the runtime's worker lease exists for — back-to-back sweeps
// never leave the workers a gap to fall asleep in.
func BenchmarkCircuitSweep(b *testing.B) {
	for _, gap := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4} {
			name := benchLabel(threads)
			if gap {
				name = "gap/" + name
			}
			b.Run(name, func(b *testing.B) { benchSweep(b, threads, gap) })
		}
	}
}

func benchSweep(b *testing.B, threads int, gap bool) {
	c := RCLadder(8, 64)
	pool, err := spice.NewPool(c.loop(), spice.PoolConfig{
		Config: spice.Config{Threads: threads},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	sess, err := pool.SessionWidth(threads)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	sess.BindCells(c.cells)
	// The sweep reads the voltages where the driver keeps them: fix an
	// operating point in the circuit's own iterate.
	n := c.N
	for i := 1; i <= n; i++ {
		c.volts[i] = 0.5 * float64(i)
	}
	c.updateSources(c.Step)
	nred := n*n + n
	jac, rhs, piv := c.jac, c.rhs, c.piv
	ctx := context.Background()
	for i := 0; i < 2; i++ { // warm the views and queues
		if _, err := sess.Run(ctx, c.head); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < nred; r++ {
			c.cells.Set(r, 0)
		}
		if _, err := sess.Run(ctx, c.head); err != nil {
			b.Fatal(err)
		}
		if !gap {
			continue
		}
		// One Newton iteration's worth of transient() between sweeps,
		// with every second one closing a timestep. The voltages stay
		// fixed, so every sweep stamps the same system.
		for k := 0; k < n*n; k++ {
			jac[k] = float64(c.cells.At(k)) * fromFix
		}
		for k := 0; k < n; k++ {
			rhs[k] = -float64(c.cells.At(n*n+k)) * fromFix
		}
		if err := solveDense(n, jac, rhs, piv); err != nil {
			b.Fatal(err)
		}
		c.updateDiodeStates()
		if i%2 == 1 {
			c.updateCapStates()
			c.updateSources(c.Step)
		}
	}
}

// BenchmarkCircuitTransient is one whole transient per op — the
// benchmark of record's circuit_transient netlist and step count — on
// the plain reference sweep (seq) and through the runtime at width 1
// and 2, so `t2 < seq` is the end-to-end claim in `go test -bench`
// form. Each row's waveform is checked once against the reference.
func BenchmarkCircuitTransient(b *testing.B) {
	const steps = 50
	ref, err := RCLadder(8, 256).RunSequential(steps)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, threads := range []int{0, 1, 2} {
		name := "seq"
		if threads > 0 {
			name = benchLabel(threads)
		}
		b.Run(name, func(b *testing.B) {
			c := RCLadder(8, 256)
			run := func() (*Waveform, error) {
				if threads == 0 {
					return c.RunSequential(steps)
				}
				wf, _, err := c.RunParallel(ctx, threads, true, steps)
				return wf, err
			}
			wf, err := run()
			if err != nil {
				b.Fatal(err)
			}
			if !ref.Equal(wf) {
				b.Fatal("waveform diverged from the sequential reference")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchLabel(threads int) string {
	return "t" + string(rune('0'+threads))
}
