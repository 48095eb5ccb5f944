package native

// Circuit-workload serving kernels: the real MNA netlists from
// internal/workloads/circuit, projected onto the universal SpecLoop so
// spiced can serve them through the shared pool. The projection keeps
// what makes the workload interesting to the speculation machinery —
// the pointer-linked device chain in netlist order, per-device loads
// of two node-voltage cells, conflict-free reduction-only stamping,
// and topology-stable value churn on the voltages between invocations
// (a Newton update's footprint) — while folding the branch terms into
// the pool's two universal reduction cells instead of a per-circuit
// N²+N stamp bank (a shared serving pool has a fixed reduction
// layout; the full matrix build runs in the circuit package itself).
//
// The projection deliberately keeps its two voltage Loads per device,
// which the circuit package's own sweep dropped (it reads its
// voltages from plain memory, because there only the driver writes
// them, between sweeps). Here the voltages are the tenant's data in
// the instance's store: Mutate moves them through Cells.Set, the
// universal SpecLoop can reach an instance's values only by cell
// index, and a load-heavy, store-free tenant is what this kernel adds
// to the serving mix.

import (
	"math/rand"

	"spice"
	"spice/internal/workloads/circuit"
)

// voltScale bounds the synthetic node-voltage cell values.
const voltScale = 1 << 20

func circuitKernel(name, desc string, build func(size int64) *circuit.Circuit) *Kernel {
	return &Kernel{
		Name:           name,
		Description:    desc,
		Predictability: "high",
		DOACROSS:       true,
		Build: func(rng *rand.Rand, size int64) (*Node, []*Node) {
			devs := build(size).Devices()
			all := make([]*Node, len(devs))
			var head *Node
			for i := len(devs) - 1; i >= 0; i-- {
				d := devs[i]
				head = &Node{
					W:    rng.Int63n(voltScale),
					Next: head,
					Src:  int32(reservedCells + d.A),
					Dst:  int32(reservedCells + d.B),
					Kind: opStamp,
				}
				all[i] = head
			}
			return head, all
		},
		Setup: func(rng *rand.Rand, inst *Instance) {
			// Size the store to the highest node-voltage cell any
			// device touches; cell reservedCells+0 is ground and
			// stays zero, the rest get an initial operating point.
			top := reservedCells
			for n := inst.Head; n != nil; n = n.Next {
				if int(n.Src) > top {
					top = int(n.Src)
				}
				if int(n.Dst) > top {
					top = int(n.Dst)
				}
			}
			inst.Cells = spice.NewCells(top + 1)
			for i := reservedCells + 1; i <= top; i++ {
				inst.Cells.Set(i, rng.Int63n(voltScale))
			}
		},
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			// A Newton/timestep update's footprint: node voltages move,
			// topology never does. Ground (the first voltage cell)
			// stays pinned at zero.
			nv := inst.Cells.Size() - reservedCells - 1
			if nv <= 0 {
				return
			}
			for i := 0; i < churn; i++ {
				inst.Cells.Set(reservedCells+1+rng.Intn(nv), rng.Int63n(voltScale))
			}
		},
	}
}

func init() {
	Register(circuitKernel(
		"rcladder",
		"circuit sweep: RC-ladder netlist, node-voltage loads + reduction-only stamps",
		func(size int64) *circuit.Circuit {
			branches := int(size / 16)
			if branches < 1 {
				branches = 1
			}
			return circuit.RCLadder(8, branches)
		},
	))
	Register(circuitKernel(
		"rectifier",
		"circuit sweep: diode-bridge rectifier netlist, node-voltage loads + reduction-only stamps",
		func(size int64) *circuit.Circuit {
			bundles := int(size / 8)
			if bundles < 1 {
				bundles = 1
			}
			return circuit.Rectifier(bundles)
		},
	))
}
