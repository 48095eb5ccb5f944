package native

// This file is the DOACROSS side of the native kernel registry:
// kernels whose loop bodies carry loop-ordered state through a
// spice.Cells store instead of being pure per-node summations. They
// run under SpecLoop, a single universal speculative loop whose body
// dispatches on each node's operation kind — so one shared
// spice.Pool (as the serving daemon builds) can execute DOALL and
// DOACROSS kernels alike, with DOALL nodes (Kind zero) never touching
// the cell store.
//
// Two kernels span the conflict spectrum:
//
//   - accum: a low-conflict recurrence. Every node accumulates into
//     its own private cell, but every 64th node reads its
//     predecessor's cell — a flow dependence that only turns into a
//     cross-chunk conflict when a chunk boundary happens to split the
//     pair. Structure is stable (value churn only), so membership
//     predictions hit and speculation wins: this is the kernel the
//     t2 < t1 DOACROSS gate measures.
//   - histo: a conflict-density dial. With churn 0 every node owns a
//     private bucket (exactly zero conflicts — the 0 allocs/op bench
//     regime); raising churn routes a growing fraction of nodes onto
//     8 shared hot buckets, densifying read/write-set conflicts until
//     squash-and-recover dominates. It also exercises both reduction
//     kinds (a Sum and a Max over the same weights).

import (
	"math/rand"

	"spice"
)

// Cell-store layout shared by every kernel behind SpecLoop: the first
// reservedCells indices are the universal reduction accumulators, data
// cells follow.
const (
	cellRedSum    = 0 // ReduceSum over node weights
	cellRedMax    = 1 // ReduceMax over node weights
	reservedCells = 2
)

// Per-node operation kinds for SpecLoop's body dispatch.
const (
	opSum   uint8 = iota // a += W; no cell traffic (the DOALL kinds' zero value)
	opAccum              // cells[Dst] = cells[Src] + W; a += the new value
	opHisto              // cells[Dst] += W, plus Sum and Max reductions over W
	opStamp              // circuit sweep: load two node-voltage cells, fold the branch term into both reductions
)

// SpecLoop returns the universal speculative loop: the same traversal
// as Loop, but the body runs against a per-chunk CellView and
// dispatches on Node.Kind. The loop declares the two reduction cells
// every instance's store reserves; bind each instance's own store
// (Instance.Cells) before running — stores must never be shared across
// concurrently-running instances.
func SpecLoop() spice.Loop[*Node, int64] {
	return spice.Loop[*Node, int64]{
		Done:     func(n *Node) bool { return n == nil },
		Next:     func(n *Node) *Node { return n.Next },
		SpecBody: specStep,
		Scan:     specScan,
		Init:     func() int64 { return 0 },
		Merge:    func(a, b int64) int64 { return a + b },
		Reductions: []spice.Reduction{
			{Cell: cellRedSum, Kind: spice.ReduceSum},
			{Cell: cellRedMax, Kind: spice.ReduceMax},
		},
	}
}

// specStep is one node of SpecLoop: the per-kind operation, written
// once and shared by the loop's SpecBody and its block form.
func specStep(n *Node, a int64, v *spice.CellView) int64 {
	switch n.Kind {
	case opAccum:
		x := v.Load(int(n.Src)) + n.W
		v.Store(int(n.Dst), x)
		return a + x
	case opHisto:
		x := v.Load(int(n.Dst)) + n.W
		v.Store(int(n.Dst), x)
		v.Reduce(0, n.W)
		v.Reduce(1, n.W)
		return a + x
	case opStamp:
		// Circuit-sweep projection (circuit.go): a device on
		// the branch Src→Dst loads both node-voltage cells and
		// folds its linearized branch term into the universal
		// reductions — conflict-free stamping, read-set on the
		// voltages only. The full MNA loop with per-circuit
		// stamp reductions lives in internal/workloads/circuit.
		x := v.Load(int(n.Src)) - v.Load(int(n.Dst)) + n.W
		v.Reduce(0, x)
		v.Reduce(1, x)
		return a + x
	default:
		return a + n.W
	}
}

// specScan is SpecLoop's block form (spice.Loop.Scan). An opSum node
// is summed in the loop itself, so a DOALL kernel's chunk runs at
// sumScan's speed; the DOACROSS kinds go through specStep. They keep
// the call on purpose: the benchmark of record replays DOACROSS jobs
// through this same loop at width 1, so speeding them up here would
// shrink its reference as much as the daemon's time.
func specScan(n *Node, a int64, v *spice.CellView, stop *Node, max int64) (*Node, int64, int64) {
	var k int64
	for ; k < max && n != nil && n != stop; k++ {
		if n.Kind == opSum {
			a += n.W
		} else {
			a = specStep(n, a, v)
		}
		n = n.Next
	}
	return n, a, k
}

// accumDepStride spaces the cross-node flow dependences in the accum
// kernel: one node in every accumDepStride reads its predecessor's
// cell, so only chunk boundaries landing inside such a pair conflict —
// an expected (threads-1)/accumDepStride conflicting boundaries per
// invocation.
const accumDepStride = 64

// histoHotBuckets is the shared-bucket count the histo kernel routes
// hot nodes onto; a handful keeps collisions dense once churn sends
// real traffic there.
const histoHotBuckets = 8

func init() {
	// accum: low-conflict DOACROSS recurrence with a stable structure.
	// Membership predictions behave like sumlist (value churn only), so
	// speculation throughput is decided purely by the occasional
	// boundary-splitting flow dependence.
	Register(&Kernel{
		Name:           "accum",
		Description:    "DOACROSS array-accumulate: private cells with sparse cross-node flow deps",
		Predictability: "high",
		DOACROSS:       true,
		Build:          BuildList,
		Setup: func(rng *rand.Rand, inst *Instance) {
			inst.Cells = spice.NewCells(reservedCells + len(inst.Nodes))
			j := 0
			prev := int32(-1)
			for n := inst.Head; n != nil; n = n.Next {
				n.Kind = opAccum
				n.Dst = int32(reservedCells + j)
				n.Src = n.Dst
				if prev >= 0 && j%accumDepStride == 0 {
					n.Src = prev
				}
				prev = n.Dst
				j++
			}
		},
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			for i := 0; i < churn; i++ {
				inst.Nodes[rng.Intn(len(inst.Nodes))].W = rng.Int63n(1 << 20)
			}
		},
	})

	// histo: conflict-density dial. churn doubles as the hot fraction at
	// Setup (out of 256): churn 0 keeps every node on a private bucket
	// (zero conflicts by construction), churn 256 routes everything onto
	// the 8 shared buckets (dense conflicts). Structure stays stable, so
	// any squashing is pure data conflict, never misprediction.
	Register(&Kernel{
		Name:           "histo",
		Description:    "DOACROSS histogram: churn-tunable fraction of nodes share 8 hot buckets",
		Predictability: "high",
		DOACROSS:       true,
		Build:          BuildList,
		Setup: func(rng *rand.Rand, inst *Instance) {
			inst.Cells = spice.NewCells(reservedCells + histoHotBuckets + len(inst.Nodes))
			hot := int64(inst.churn)
			if hot > 256 {
				hot = 256
			}
			j := 0
			for n := inst.Head; n != nil; n = n.Next {
				n.Kind = opHisto
				n.Dst = int32(reservedCells + histoHotBuckets + j)
				if hot > 0 && int64(rng.Intn(256)) < hot {
					n.Dst = int32(reservedCells + rng.Intn(histoHotBuckets))
				}
				n.Src = n.Dst
				j++
			}
		},
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			for i := 0; i < churn; i++ {
				inst.Nodes[rng.Intn(len(inst.Nodes))].W = rng.Int63n(1 << 20)
			}
		},
	})
}
