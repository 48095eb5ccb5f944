// Circuit: a real program on the speculative runtime — transient
// simulation of a diode-bridge rectifier.
//
// The MNA simulator in internal/workloads/circuit walks its netlist as
// a pointer-linked device list. Every Newton iteration's device sweep
// runs through spice.Pool: each device reads its two node voltages and
// its state from plain memory (the driver writes them only between
// sweeps) and folds its Jacobian/residual stamps into ReduceSum
// reduction cells — the only cells there are, conflict-free by
// construction, so speculation pays purely on prediction hits over the
// topology-stable chain. Stamps are fixed-point int64, so the parallel
// waveform is bit-identical to the sequential reference at any width.
//
// Run: go run ./examples/circuit
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"spice/internal/workloads/circuit"
)

func main() {
	const (
		bundles = 256
		steps   = 120 // 12 s of a 0.25 Hz drive at h = 0.1 s
		width   = 4
	)
	c := circuit.Rectifier(bundles)
	fmt.Printf("rectifier: %d devices, %d unknown nodes, h=%gs, %d steps\n\n",
		c.DeviceCount(), c.N, c.Step, steps)

	t0 := time.Now()
	ref, err := c.RunSequential(steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sequential:", err)
		os.Exit(1)
	}
	seqD := time.Since(t0)

	t0 = time.Now()
	wf, st, err := c.RunParallel(context.Background(), width, true, steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parallel:", err)
		os.Exit(1)
	}
	parD := time.Since(t0)

	fmt.Printf("sequential reference: %v\n", seqD.Round(time.Microsecond))
	fmt.Printf("speculative width %d:  %v  (sweeps=%d hits=%d misses=%d conflicts=%d)\n",
		width, parD.Round(time.Microsecond), st.Invocations, st.Hits, st.Misses, st.Conflicts)
	fmt.Printf("bit-identical waveforms: %v\n\n", ref.Equal(wf))

	// ASCII waveform: AC input V(1)−V(2) vs rectified DC output V(3).
	const cols = 64
	scale := func(v float64) int {
		x := int((v + 1.6) / 3.2 * cols)
		if x < 0 {
			x = 0
		}
		if x >= cols {
			x = cols - 1
		}
		return x
	}
	fmt.Printf("%8s  %-*s\n", "t", cols, "  '.' = V(1)-V(2) AC drive, '#' = V(3) DC output")
	for s := 0; s < wf.Steps(); s += 2 {
		row := []byte(strings.Repeat(" ", cols))
		row[scale(0)] = '|'
		row[scale(wf.At(s, 1)-wf.At(s, 2))] = '.'
		row[scale(wf.At(s, 3))] = '#'
		fmt.Printf("%7.1fs  %s\n", float64(s+1)*c.Step, row)
	}
}
