package spice_test

// Differential coverage of Loop.Scan on the loops the repository ships
// with one (native.Loop and native.SpecLoop; the circuit sweep has its
// counterpart in internal/workloads/circuit): every kernel runs on twin
// instances with the field set and with it stripped, beside a width-1
// closure-path oracle, and the three must agree on every result and
// every cell, the first two also on every counter that repeats from run
// to run. In an external test package because the kernels import spice.

import (
	"context"
	"fmt"
	"testing"

	"spice"
	"spice/internal/workloads/native"
)

// shippedCase is one kernel behind one of the shipped loops.
type shippedCase struct {
	kernel string
	spec   bool // through SpecLoop (with the instance's cell store) or Loop
	churn  int
}

func (c shippedCase) String() string {
	loop := "Loop"
	if c.spec {
		loop = "SpecLoop"
	}
	return fmt.Sprintf("%s/%s/churn%d", loop, c.kernel, c.churn)
}

// shippedCases lists every kernel behind SpecLoop — histo from no
// conflicts to dense ones — and the DOALL kernels behind Loop as well.
func shippedCases() []shippedCase {
	var cases []shippedCase
	for _, k := range native.All() {
		churns := []int{0, 16}
		if k.Name == "histo" {
			churns = []int{0, 64, 256} // the kernel's conflict-density dial
		}
		for _, churn := range churns {
			cases = append(cases, shippedCase{k.Name, true, churn})
			if !k.DOACROSS {
				cases = append(cases, shippedCase{k.Name, false, churn})
			}
		}
	}
	return cases
}

// runShippedCase drives three lockstep copies of the case for a few
// invocations with the kernel's churn between them, holds every copy to
// the matrix's accounting identities after each, and returns the
// counters of the copy with Scan set.
func runShippedCase(t *testing.T, c shippedCase, size, seed int64, cfg spice.Config) spice.Stats {
	t.Helper()
	kern := native.ByName(c.kernel)
	type side struct {
		inst *native.Instance
		r    *spice.Runner[*native.Node, int64]
	}
	var sides [3]side // Scan set, Scan stripped, width-1 stripped oracle
	for i := range sides {
		inst := kern.New(size, seed, c.churn)
		loop := native.Loop()
		if c.spec {
			loop = native.SpecLoop()
			loop.Cells = inst.Cells
		}
		if loop.Scan == nil {
			t.Fatalf("%v: the shipped loop has no Scan", c)
		}
		sideCfg := cfg
		if i > 0 {
			loop.Scan = nil
		}
		if i == 2 {
			sideCfg = spice.Config{Threads: 1}
		}
		r, err := spice.NewRunner(loop, sideCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		sides[i] = side{inst, r}
	}
	for inv := 0; inv < 8; inv++ {
		var got [3]int64
		for i, s := range sides {
			var err error
			if got[i], err = s.r.Run(context.Background(), s.inst.Head); err != nil {
				t.Fatalf("%v inv %d side %d: %v", c, inv, i, err)
			}
		}
		if got[0] != got[2] || got[1] != got[2] {
			t.Fatalf("%v inv %d: Scan %d, closures %d, width-1 oracle %d", c, inv, got[0], got[1], got[2])
		}
		for cell := 0; cell < sides[2].inst.Cells.Size(); cell++ {
			want := sides[2].inst.Cells.At(cell)
			if a, b := sides[0].inst.Cells.At(cell), sides[1].inst.Cells.At(cell); a != want || b != want {
				t.Fatalf("%v inv %d cell %d: Scan %d, closures %d, width-1 oracle %d", c, inv, cell, a, b, want)
			}
		}
		if a, b := spice.StatsLine(sides[0].r.Stats()), spice.StatsLine(sides[1].r.Stats()); a != b {
			t.Fatalf("%v inv %d: counters differ\nScan:     %s\nclosures: %s", c, inv, a, b)
		}
		for i, s := range sides {
			spice.CheckConservation(t, s.r.Stats(), []int{cfg.Threads, cfg.Threads, 1}[i], 0)
			s.inst.Mutate()
		}
	}
	return sides[0].r.Stats()
}

// TestShippedLoopsScanDifferential is the matrix: every case across
// widths 1–4, with and without a tight speculative cap (which forces
// later rounds), adaptive on and off.
func TestShippedLoopsScanDifferential(t *testing.T) {
	for _, c := range shippedCases() {
		t.Run(c.String(), func(t *testing.T) {
			var seen spice.Stats
			for threads := 1; threads <= 4; threads++ {
				for _, maxSpec := range []int64{0, 70} {
					for _, adaptive := range []bool{false, true} {
						seen = seen.Plus(runShippedCase(t, c, 700, 9, spice.WithSeams(spice.Config{
							Threads: threads, Options: spice.Options{Adaptive: adaptive},
						}, maxSpec, 2)))
					}
				}
			}
			// The premise of the matrix: the cap forced later rounds, and
			// speculative chunks committed — or, on the shared histogram
			// buckets, conflicted every time.
			conflicting := c.kernel == "histo" && c.churn > 0
			if seen.Recoveries == 0 || (seen.Hits == 0) != conflicting || (conflicting && seen.Conflicts == 0) {
				t.Errorf("the matrix lost its premise: %+v", seen)
			}
		})
	}
}

// FuzzShippedLoopsScan fuzzes the same comparison over kernel, size,
// width, cap and seed.
func FuzzShippedLoopsScan(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(2), uint8(0), uint16(0))
	f.Add(int64(2), uint16(900), uint8(4), uint8(5), uint16(40))
	f.Add(int64(3), uint16(1), uint8(1), uint8(9), uint16(1))
	f.Add(int64(4), uint16(2500), uint8(3), uint8(13), uint16(0))
	cases := shippedCases()
	f.Fuzz(func(t *testing.T, seed int64, size uint16, threads, pick uint8, maxSpec uint16) {
		for _, adaptive := range []bool{false, true} {
			runShippedCase(t, cases[int(pick)%len(cases)], int64(size%4096)+1, seed, spice.WithSeams(spice.Config{
				Threads: int(threads%8) + 1, Options: spice.Options{Adaptive: adaptive},
			}, int64(maxSpec), 2))
		}
	})
}
