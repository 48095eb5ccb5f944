package native

import (
	"context"
	"math/rand"
	"testing"

	"spice"
)

// mixedKernel is a test-only kernel (never registered) whose nodes run
// every SpecLoop kind, in runs of one to eight nodes, over one cell
// store: no registered kernel mixes kinds, so only this one makes a
// block of specScan hand over between its in-loop opSum and specStep.
// accum and stamp nodes sometimes read the cell of the node before
// them and a few histo nodes share hot buckets, so depending on where
// the chunk boundaries fall a width commits its speculative chunks or
// squashes them on a conflict.
var mixedKernel = &Kernel{
	Name:  "mixed",
	Build: BuildList,
	Setup: func(rng *rand.Rand, inst *Instance) {
		const data = reservedCells + histoHotBuckets
		inst.Cells = spice.NewCells(data + len(inst.Nodes))
		kinds := [...]uint8{opSum, opAccum, opHisto, opStamp}
		kind, left := -1, 0
		j := 0
		for n := inst.Head; n != nil; n = n.Next {
			if left == 0 {
				kind, left = (kind+1)%len(kinds), 1+rng.Intn(8)
			}
			left--
			n.Kind = kinds[kind]
			n.Dst = int32(data + j)
			n.Src = n.Dst
			switch n.Kind {
			case opAccum, opStamp:
				if j > 0 && rng.Intn(8) == 0 {
					n.Src-- // the cell of the node before
				}
			case opHisto:
				if rng.Intn(128) == 0 {
					n.Dst = int32(reservedCells + rng.Intn(histoHotBuckets))
				}
			}
			j++
		}
	},
	Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
		for i := 0; i < churn; i++ {
			inst.Nodes[rng.Intn(len(inst.Nodes))].W = rng.Int63n(1 << 20)
		}
	},
}

// TestSpecLoopMixedKinds runs mixedKernel through SpecLoop with Scan
// set, with Scan stripped, and as a width-1 stripped oracle, at widths
// 1–4 over churned invocations: every invocation must give one result
// and leave the three stores cell for cell equal.
func TestSpecLoopMixedKinds(t *testing.T) {
	ctx := context.Background()
	for threads := 1; threads <= 4; threads++ {
		type side struct {
			inst *Instance
			r    *spice.Runner[*Node, int64]
		}
		var sides [3]side // Scan set, Scan stripped, width-1 stripped oracle
		for i := range sides {
			inst := mixedKernel.New(3000, int64(threads), 16)
			loop := SpecLoop()
			loop.Cells = inst.Cells
			width := threads
			if i > 0 {
				loop.Scan = nil
			}
			if i == 2 {
				width = 1
			}
			r, err := spice.NewRunner(loop, spice.Config{Threads: width})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			sides[i] = side{inst, r}
		}
		for inv := 0; inv < 6; inv++ {
			var got [3]int64
			for i, s := range sides {
				var err error
				if got[i], err = s.r.Run(ctx, s.inst.Head); err != nil {
					t.Fatalf("t%d inv %d side %d: %v", threads, inv, i, err)
				}
			}
			if got[0] != got[2] || got[1] != got[2] {
				t.Fatalf("t%d inv %d: Scan %d, closures %d, width-1 oracle %d", threads, inv, got[0], got[1], got[2])
			}
			oracle := sides[2].inst.Cells
			for cell := 0; cell < oracle.Size(); cell++ {
				want := oracle.At(cell)
				if a, b := sides[0].inst.Cells.At(cell), sides[1].inst.Cells.At(cell); a != want || b != want {
					t.Fatalf("t%d inv %d cell %d: Scan %d, closures %d, width-1 oracle %d", threads, inv, cell, a, b, want)
				}
			}
			for _, s := range sides {
				s.inst.Mutate()
			}
		}
	}
}
