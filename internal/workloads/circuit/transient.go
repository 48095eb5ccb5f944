package circuit

import (
	"context"
	"fmt"
	"math"

	"spice"
)

// Newton iteration controls. Convergence is the standard SPICE
// two-term test on the update magnitude: |ΔV_i| ≤ vntol + reltol·|V_i|.
const (
	maxNewton = 50
	vntol     = 1e-5
	reltol    = 1e-3
)

// Waveform is a transient result: one row of node voltages (nodes
// 1..N) per accepted timestep.
type Waveform struct {
	Step float64
	V    [][]float64
}

// Steps reports the number of accepted timesteps.
func (w *Waveform) Steps() int { return len(w.V) }

// At returns node's voltage (1-based) after timestep step (0-based).
func (w *Waveform) At(step, node int) float64 { return w.V[step][node-1] }

// Equal is the differential oracle's comparison: bit-exact equality
// of every sample, via Float64bits so ±0 and NaN patterns can't alias.
func (w *Waveform) Equal(o *Waveform) bool {
	if o == nil || w.Step != o.Step || len(w.V) != len(o.V) {
		return false
	}
	for i := range w.V {
		if len(w.V[i]) != len(o.V[i]) {
			return false
		}
		for j := range w.V[i] {
			if math.Float64bits(w.V[i][j]) != math.Float64bits(o.V[i][j]) {
				return false
			}
		}
	}
	return true
}

// sweepFn runs one device-evaluation sweep at the circuit's current
// node voltages (c.volts) and leaves the fixed-point Jacobian/residual
// stamps in acc (length N²+N, pre-zeroed by the caller).
type sweepFn func(acc []int64) error

// transient is the shared Newton/backward-Euler driver. Everything
// here is plain scalar float code operating on the int64 stamp totals
// a sweep produced — identical for the sequential reference and every
// parallel configuration, which is what makes the differential oracle
// a bit-exact test of the speculative sweep alone.
func (c *Circuit) transient(steps int, sweep sweepFn) (*Waveform, error) {
	n := c.N
	c.resetState()
	volts, acc, jac, rhs, piv := c.volts, c.acc, c.jac, c.rhs, c.piv
	// The waveform is the one thing a run hands out, so the one thing it
	// allocates: every row is carved out of a single backing array.
	rows := make([]float64, steps*n)
	wf := &Waveform{Step: c.Step, V: make([][]float64, 0, steps)}

	for s := 0; s < steps; s++ {
		c.updateSources(float64(s+1) * c.Step)
		converged := false
		for it := 0; it < maxNewton; it++ {
			clear(acc)
			if err := sweep(acc); err != nil {
				return nil, err
			}
			for k := 0; k < n*n; k++ {
				jac[k] = float64(acc[k]) * fromFix
			}
			for k := 0; k < n; k++ {
				rhs[k] = -float64(acc[n*n+k]) * fromFix
			}
			if err := solveDense(n, jac, rhs, piv); err != nil {
				return nil, fmt.Errorf("circuit %s: step %d newton %d: %w", c.Name, s, it, err)
			}
			done := true
			for i := 1; i <= n; i++ {
				dv := rhs[i-1]
				volts[i] += dv
				if math.Abs(dv) > vntol+reltol*math.Abs(volts[i]) {
					done = false
				}
			}
			c.updateDiodeStates()
			if done {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("circuit %s: newton failed to converge at step %d (t=%g)", c.Name, s, float64(s+1)*c.Step)
		}
		c.updateCapStates()
		row := rows[s*n : (s+1)*n : (s+1)*n]
		copy(row, volts[1:])
		wf.V = append(wf.V, row)
	}
	return wf, nil
}

// solveDense solves the n×n system a·x = b in place by Gaussian
// elimination with partial pivoting; the solution replaces b.
func solveDense(n int, a []float64, b []float64, piv []int) error {
	for col := 0; col < n; col++ {
		p, best := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				p, best = r, v
			}
		}
		if best == 0 {
			return fmt.Errorf("singular matrix at column %d", col)
		}
		piv[col] = p
		if p != col {
			for k := col; k < n; k++ {
				a[col*n+k], a[p*n+k] = a[p*n+k], a[col*n+k]
			}
			b[col], b[p] = b[p], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		x := b[r]
		for k := r + 1; k < n; k++ {
			x -= a[r*n+k] * b[k]
		}
		b[r] = x / a[r*n+r]
	}
	return nil
}

// RunSequential runs the transient with the plain in-process reference
// sweep — no runtime, no speculation. This is the oracle side of the
// differential test.
func (c *Circuit) RunSequential(steps int) (*Waveform, error) {
	return c.transient(steps, func(acc []int64) error {
		c.sweepSeq(c.volts, acc)
		return nil
	})
}

// RunParallel runs the same transient with every device-evaluation
// sweep dispatched through spice.Pool at the given width: the stamp
// reduction cells are zeroed, the netlist chunk-executes speculatively
// (reading the node voltages where the driver keeps them), and the
// folded totals are read back for the shared solve. Returns the
// waveform and the runtime's cumulative speculation stats for the
// whole run.
func (c *Circuit) RunParallel(ctx context.Context, width int, adaptive bool, steps int) (*Waveform, spice.Stats, error) {
	return c.runParallel(ctx, c.loop(), width, adaptive, steps)
}

// runParallel is RunParallel over the given form of the sweep loop (the
// tests also run it with the block form stripped).
func (c *Circuit) runParallel(ctx context.Context, loop spice.Loop[*Device, int64], width int, adaptive bool, steps int) (*Waveform, spice.Stats, error) {
	pool, err := spice.NewPool(loop, spice.PoolConfig{
		Config: spice.Config{
			Threads: width,
			Options: spice.Options{Adaptive: adaptive},
		},
	})
	if err != nil {
		return nil, spice.Stats{}, err
	}
	defer pool.Close()
	sess, err := pool.SessionWidth(width)
	if err != nil {
		return nil, spice.Stats{}, err
	}
	defer sess.Close()
	sess.BindCells(c.cells)

	wf, err := c.transient(steps, func(acc []int64) error {
		return c.sweepSpec(ctx, sess, acc)
	})
	if err != nil {
		return nil, spice.Stats{}, err
	}
	return wf, sess.Stats(), nil
}

// sweepSpec is one sweep through the runtime, on a session the circuit's
// cell store is bound to: zero the stamp cells, run the netlist, read
// the folded totals back into acc.
func (c *Circuit) sweepSpec(ctx context.Context, sess *spice.Session[*Device, int64], acc []int64) error {
	for r := range acc {
		c.cells.Set(r, 0)
	}
	if _, err := sess.Run(ctx, c.head); err != nil {
		return err
	}
	for r := range acc {
		acc[r] = c.cells.At(r)
	}
	return nil
}
