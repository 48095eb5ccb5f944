package native

// This file is the native-runtime counterpart of the simulator's Table 2
// registry: named workload kernels that run on spice.Pool/Runner rather
// than the simulated machine. Everything that drives the native runtime
// by kernel name — the spiced serving daemon's wire protocol, the root
// package's chaos and Scan oracles, bench/ — selects kernels from this
// one registry instead of hand-rolling its own list, so a kernel name
// means the same structure, traversal and churn profile everywhere.
//
// All kernels traverse the same element type (Node) through the same
// summation loop (Loop); what distinguishes them is the structure
// they build and, above all, their per-invocation mutator — the
// cross-invocation dynamics that decide whether Spice's memoized
// chunk-start predictions hit (value churn only), drift (bounded
// insert/remove churn), or collapse (reordering / node replacement). A
// serving layer exploits exactly that spread: tenants running
// well-predicting kernels earn speculation width, tenants running
// hostile ones are starved to sequential execution.

import (
	"fmt"
	"math/rand"
	"sort"

	"spice"
)

// Node is one element of every native kernel's traversal. The DOALL
// kernels use only W and Next; the DOACROSS kernels (doacross.go)
// additionally give each node an operation kind and cell operands, so
// one universal speculative loop (SpecLoop) serves every kernel behind
// a single shared pool.
type Node struct {
	W    int64
	Next *Node
	// Src and Dst are cell-store operand indices for the DOACROSS
	// operation kinds; Kind selects the per-node operation (opSum for
	// plain summation — the zero value, so DOALL builders and mutators
	// need no changes).
	Src, Dst int32
	Kind     uint8
}

// Loop returns the weight-summation loop shared by all native
// kernels: Done on nil, Next through the link, Body accumulating W, and
// the same loop in block form (Scan), which is what a chunk executes.
func Loop() spice.Loop[*Node, int64] {
	return spice.Loop[*Node, int64]{
		Done:  func(n *Node) bool { return n == nil },
		Next:  func(n *Node) *Node { return n.Next },
		Body:  func(n *Node, a int64) int64 { return a + n.W },
		Scan:  sumScan,
		Init:  func() int64 { return 0 },
		Merge: func(a, b int64) int64 { return a + b },
	}
}

// sumScan is Loop's block form (spice.Loop.Scan): up to max nodes from
// n, stopping at the end of the list or on stop.
func sumScan(n *Node, a int64, _ *spice.CellView, stop *Node, max int64) (*Node, int64, int64) {
	var k int64
	for ; k < max && n != nil && n != stop; k++ {
		a += n.W
		n = n.Next
	}
	return n, a, k
}

// BuildList returns the head of an n-element list with rng-drawn
// weights, plus every node for between-invocation churn.
func BuildList(rng *rand.Rand, n int64) (*Node, []*Node) {
	var head *Node
	all := make([]*Node, 0, n)
	for i := int64(0); i < n; i++ {
		head = &Node{W: rng.Int63n(1 << 20), Next: head}
		all = append(all, head)
	}
	return head, all
}

// Kernel is one registered native workload: a structure builder
// plus the per-invocation mutator that defines its cross-invocation
// dynamics.
type Kernel struct {
	// Name identifies the kernel on command lines and in serving-job
	// specs.
	Name string
	// Description is a one-line human summary.
	Description string
	// Predictability summarizes the expected chunk-start hit profile:
	// "high", "medium" or "hostile".
	Predictability string
	// DOACROSS marks kernels whose loop bodies carry cross-iteration
	// state through the cell store (conflict-checked speculative
	// reads/writes and reductions). DOALL kernels leave it false.
	DOACROSS bool
	// Build returns the initial structure: its head and every node.
	Build func(rng *rand.Rand, size int64) (*Node, []*Node)
	// Setup, when non-nil, runs once after Build: DOACROSS kernels use
	// it to allocate the instance's cell store and assign each node's
	// operation kind and cell operands.
	Setup func(rng *rand.Rand, inst *Instance)
	// Mutate applies one invocation's worth of churn to the instance.
	// churn scales the mutation count; it must only be called between
	// invocations (never while a Run is in flight).
	Mutate func(rng *rand.Rand, inst *Instance, churn int)
}

// Instance is one mutable structure built from a kernel: the live
// traversal entry point plus the node set the mutator works on.
type Instance struct {
	Head *Node
	// Nodes is the kernel's node pool in an arbitrary but stable order;
	// mutators index it to pick churn victims and may grow it when they
	// allocate replacement nodes.
	Nodes []*Node
	// Cells is the instance's private DOACROSS cell store, sized by the
	// kernel's Setup (a minimal store for DOALL kernels, so every
	// instance can run behind the shared SpecLoop pool). Never share a
	// store across instances: concurrent invocations against one store
	// race by construction.
	Cells *spice.Cells

	kernel *Kernel
	rng    *rand.Rand
	churn  int
}

// New builds one instance of the kernel. seed fixes the structure and
// the mutation stream; churn scales each Mutate call's mutation count
// (0 means an immutable structure — Mutate becomes a no-op for DOALL
// kernels; the histogram kernel also reads it as its conflict-density
// dial at Setup).
func (k *Kernel) New(size, seed int64, churn int) *Instance {
	rng := rand.New(rand.NewSource(seed))
	head, all := k.Build(rng, size)
	inst := &Instance{Head: head, Nodes: all, kernel: k, rng: rng, churn: churn}
	if k.Setup != nil {
		k.Setup(rng, inst)
	}
	if inst.Cells == nil {
		// The shared SpecLoop declares reduction cells 0 and 1, so even a
		// DOALL instance needs a store covering them when served through
		// the speculative pool.
		inst.Cells = spice.NewCells(reservedCells)
	}
	return inst
}

// Mutate applies one invocation's worth of the kernel's churn profile.
// Must not be called while an invocation traverses the instance.
func (inst *Instance) Mutate() {
	if inst.churn <= 0 {
		return
	}
	inst.kernel.Mutate(inst.rng, inst, inst.churn)
}

// Kernel returns the kernel the instance was built from.
func (inst *Instance) Kernel() *Kernel { return inst.kernel }

// nativeRegistry holds the registered kernels by name. Registration
// happens in package init (and in tests); lookups after init need no
// locking.
var nativeRegistry = map[string]*Kernel{}

// Register adds a kernel to the registry. It panics on a duplicate
// or empty name — registration is a program-startup act, not a runtime
// fallible one.
func Register(k *Kernel) {
	if k.Name == "" {
		panic("workloads: Register with empty name")
	}
	if _, dup := nativeRegistry[k.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate native kernel %q", k.Name))
	}
	nativeRegistry[k.Name] = k
}

// ByName returns a registered kernel (nil if unknown).
func ByName(name string) *Kernel { return nativeRegistry[name] }

// All returns the registered kernels sorted by name.
func All() []*Kernel {
	out := make([]*Kernel, 0, len(nativeRegistry))
	for _, k := range nativeRegistry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered kernel names, sorted.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.Name
	}
	return names
}

func init() {
	// sumlist: the membership-validation best case. Node identities and
	// order never change; only values churn, so memoized chunk starts
	// keep materializing and hit rate approaches 1 after the bootstrap
	// invocation.
	Register(&Kernel{
		Name:           "sumlist",
		Description:    "stable list, value churn only",
		Predictability: "high",
		Build:          BuildList,
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			for i := 0; i < churn; i++ {
				inst.Nodes[rng.Intn(len(inst.Nodes))].W = rng.Int63n(1 << 20)
			}
		},
	})

	// drift: the paper's otter/mcf regime — bounded insert/remove churn.
	// A few nodes leave and enter per invocation, so most memoized
	// starts survive (membership validation tolerates insertions and
	// deletions) while trip counts drift.
	Register(&Kernel{
		Name:           "drift",
		Description:    "slow membership churn: few removals and insertions per invocation",
		Predictability: "medium",
		Build:          BuildList,
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			moves := churn/8 + 1
			for i := 0; i < moves; i++ {
				unlinkRandom(rng, inst)
				insertRandom(rng, inst, &Node{W: rng.Int63n(1 << 20)})
			}
			for i := 0; i < churn; i++ {
				inst.Nodes[rng.Intn(len(inst.Nodes))].W = rng.Int63n(1 << 20)
			}
		},
	})

	// shuffle: every invocation relinks the same nodes in a fresh random
	// order. Memoized starts stay members — membership validation still
	// accepts them — but their positions scatter, so chunk boundaries
	// land anywhere: heavy imbalance and frequent chain breaks.
	Register(&Kernel{
		Name:           "shuffle",
		Description:    "same nodes, fully reshuffled order every invocation",
		Predictability: "hostile",
		Build:          BuildList,
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			reshuffle(rng, inst)
		},
	})

	// hostile: reshuffle plus node replacement — churn nodes are replaced
	// by fresh allocations each invocation (the whole structure once
	// churn reaches the node count), so memoized starts stop being
	// members at all and membership validation rejects them before
	// dispatch. The adversarial workload a confidence gate must close:
	// unlike pure reordering, which narrow widths flatter, replacement is
	// hostile at every width.
	Register(&Kernel{
		Name:           "hostile",
		Description:    "reshuffled order plus node replacement: predictions cannot survive",
		Predictability: "hostile",
		Build:          BuildList,
		Mutate: func(rng *rand.Rand, inst *Instance, churn int) {
			replace := churn
			if n := len(inst.Nodes); replace > n {
				replace = n
			}
			if replace < 1 {
				replace = 1
			}
			for i := 0; i < replace; i++ {
				j := rng.Intn(len(inst.Nodes))
				inst.Nodes[j] = &Node{W: rng.Int63n(1 << 20)}
			}
			reshuffle(rng, inst)
		},
	})
}

// unlinkRandom removes a random node from both the list links and the
// node set (no-op on a single-node list, which must stay non-empty).
func unlinkRandom(rng *rand.Rand, inst *Instance) {
	if len(inst.Nodes) <= 1 {
		return
	}
	j := rng.Intn(len(inst.Nodes))
	victim := inst.Nodes[j]
	inst.Nodes[j] = inst.Nodes[len(inst.Nodes)-1]
	inst.Nodes = inst.Nodes[:len(inst.Nodes)-1]
	if inst.Head == victim {
		inst.Head = victim.Next
		return
	}
	for n := inst.Head; n != nil; n = n.Next {
		if n.Next == victim {
			n.Next = victim.Next
			return
		}
	}
}

// insertRandom links a fresh node at a random position and adds it to
// the node set.
func insertRandom(rng *rand.Rand, inst *Instance, nd *Node) {
	inst.Nodes = append(inst.Nodes, nd)
	if inst.Head == nil || rng.Intn(len(inst.Nodes)) == 0 {
		nd.Next = inst.Head
		inst.Head = nd
		return
	}
	steps := rng.Intn(len(inst.Nodes) - 1)
	at := inst.Head
	for i := 0; i < steps && at.Next != nil; i++ {
		at = at.Next
	}
	nd.Next = at.Next
	at.Next = nd
}

// reshuffle relinks the current node set in a fresh random order.
func reshuffle(rng *rand.Rand, inst *Instance) {
	rng.Shuffle(len(inst.Nodes), func(i, j int) {
		inst.Nodes[i], inst.Nodes[j] = inst.Nodes[j], inst.Nodes[i]
	})
	var head *Node
	for i := len(inst.Nodes) - 1; i >= 0; i-- {
		inst.Nodes[i].Next = head
		head = inst.Nodes[i]
	}
	inst.Head = head
}
