package circuit

import (
	"context"
	"math"
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
	n := c.N
	volts := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		volts[i] = 0.5 * float64(i)
		c.cells.Set(i, int64(math.Float64bits(volts[i])))
	}
	c.updateSources(c.Step)
	base := 1 + n
	nred := n*n + n
	jac := make([]float64, n*n)
	rhs := make([]float64, n)
	piv := make([]int, n)
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
			c.cells.Set(base+r, 0)
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
			jac[k] = float64(c.cells.At(base+k)) * fromFix
		}
		for k := 0; k < n; k++ {
			rhs[k] = -float64(c.cells.At(base+n*n+k)) * fromFix
		}
		if err := solveDense(n, jac, rhs, piv); err != nil {
			b.Fatal(err)
		}
		c.updateDiodeStates(volts)
		if i%2 == 1 {
			c.updateCapStates(volts)
			c.updateSources(c.Step)
		}
	}
}

func benchLabel(threads int) string {
	return "t" + string(rune('0'+threads))
}
