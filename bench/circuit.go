package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"spice"
	"spice/internal/workloads/circuit"
)

// The circuit workload: one op is a whole transient. The netlist is
// fixed by its shape parameters, so the seed does not reach it.
const (
	ladderSections = 8
	ladderBranches = 256
	ladderSteps    = 50
	rectBundles    = 512
	rectSteps      = 80
)

// waveHash folds a waveform into the accumulator the trio compares.
func waveHash(w *circuit.Waveform) int64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range w.V {
		for _, v := range row {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return int64(h.Sum64())
}

// circuitTrio builds the three series over three copies of the
// netlist. Every parallel waveform is also compared sample by sample
// with the first sequential one.
func circuitTrio(mk func() *circuit.Circuit, steps int) (*trio, error) {
	t := &trio{finish: func() error { return nil }}
	var want *circuit.Waveform
	for i := 0; i < nSeries; i++ {
		c := mk()
		var total spice.Stats
		s := &series{churn: func() {}}
		switch i {
		case sRef:
			s.layer = "circuit.RunSequential"
			s.op = func() (int64, error) {
				wf, err := c.RunSequential(steps)
				if err != nil {
					return 0, err
				}
				if want == nil {
					want = wf
				}
				return waveHash(wf), nil
			}
		default:
			width := seriesWidth(i)
			s.layer = "circuit.RunParallel"
			s.op = func() (int64, error) {
				wf, st, err := c.RunParallel(bg, width, true, steps)
				if err != nil {
					return 0, err
				}
				if want != nil && !wf.Equal(want) {
					return waveHash(wf), fmt.Errorf("circuit: width-%d waveform differs from the sequential one", width)
				}
				total = total.Plus(st)
				total.EffectiveThreads, total.LastWorks = st.EffectiveThreads, st.LastWorks
				return waveHash(wf), nil
			}
			s.stats = func() spice.Stats { return total }
		}
		t.s[i] = s
	}
	return t, nil
}

func buildCircuit() (*trio, error) {
	return circuitTrio(func() *circuit.Circuit { return circuit.RCLadder(ladderSections, ladderBranches) }, ladderSteps)
}
