// Package workloads provides the benchmark programs of the paper's
// evaluation: IR kernels for the four Spice-parallelized loops of
// Table 2 / Figure 7 (ks FindMaxGpAndSwap, otter find_lightest_cl,
// 181.mcf refresh_potential, 458.sjeng std_eval), each wrapped in a
// whole-application shell that reproduces the loop's hotness, plus the
// synthetic benchmark suite used to reproduce the Figure 8 value
// predictability study.
//
// The original benchmark sources (SPEC, pointer-intensive suite, otter)
// cannot be shipped; each kernel is a from-scratch model of the loop the
// paper names, with a native mutator that reproduces the loop's
// cross-invocation data-structure dynamics.
package workloads

import (
	"fmt"
	"math/rand"

	"spice/internal/ir"
	"spice/internal/rt"
)

// Params sizes a workload instance.
type Params struct {
	// Size is the primary data-structure size (list nodes, tree nodes,
	// pieces).
	Size int64
	// Invocations is the number of loop invocations the app performs.
	Invocations int64
	// Seed drives all native mutators.
	Seed int64
	// FillerIters is the per-invocation iteration count of the app
	// filler loop that surrounds the measured region, calibrated per
	// benchmark to reproduce the Table 2 hotness.
	FillerIters int64
}

// Instance is a workload bound to a machine: main-thread arguments plus
// a checksum extractor for sequential-vs-Spice equivalence checks.
type Instance struct {
	Args []int64
	// Checksum returns machine-independent result words (normalized so
	// that heap base differences between machines cancel out).
	Checksum func() []int64
}

// Benchmark describes one entry of Table 2.
type Benchmark struct {
	Name        string
	Description string
	LoopName    string // the paper's loop name
	// LoopHeader is the target loop's header block in main.
	LoopHeader string
	// Hotness is the paper-reported fraction of execution time.
	Hotness float64
	// PaperSpeedup2 and PaperSpeedup4 are the approximate loop speedups
	// read off Figure 7 (2 and 4 threads).
	PaperSpeedup2, PaperSpeedup4 float64
	Defaults                     Params
	Program                      func(p Params) *ir.Program
	Init                         func(m *rt.Machine, p Params) *Instance
}

// RegionID is the region used to bracket the measured loop in every
// workload (Table 2 hotness, Figure 7 loop cycles).
const RegionID int64 = 1

// HookMutate is the hook id every workload uses for its inter-invocation
// mutator.
const HookMutate int64 = 1

// All returns the Table 2 benchmarks in paper order.
func All() []*Benchmark {
	return []*Benchmark{KS(), Otter(), MCF(), Sjeng()}
}

// ByName returns a Table 2 benchmark by name (nil if unknown).
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// world bundles the simulated-memory data structures shared by the list
// kernels.
type world struct {
	m        *rt.Machine
	rng      *rand.Rand
	headCell int64
	pool     int64
	n        int64
	stride   int64
}

func newWorld(m *rt.Machine, n, stride, seed int64) *world {
	return &world{
		m:        m,
		rng:      rand.New(rand.NewSource(seed)),
		headCell: m.Mem.Alloc(1),
		pool:     m.Mem.Alloc(n * stride),
		n:        n,
		stride:   stride,
	}
}

func (w *world) node(i int64) int64 { return w.pool + i*w.stride }

// linkAll links every pool node in index order and stores the head.
func (w *world) linkAll(nextOff int64) {
	for i := int64(0); i < w.n; i++ {
		next := int64(0)
		if i+1 < w.n {
			next = w.node(i + 1)
		}
		w.m.Mem.MustStore(w.node(i)+nextOff, next)
	}
	w.m.Mem.MustStore(w.headCell, w.node(0))
}

// listNodes returns the current list membership in order.
func (w *world) listNodes(nextOff int64) []int64 {
	var out []int64
	for c := w.m.Mem.MustLoad(w.headCell); c != 0; c = w.m.Mem.MustLoad(c + nextOff) {
		out = append(out, c)
		if int64(len(out)) > 4*w.n {
			panic("workloads: list cycle")
		}
	}
	return out
}

// relink rebuilds the list from the given node order.
func (w *world) relink(nodes []int64, nextOff int64) {
	if len(nodes) == 0 {
		w.m.Mem.MustStore(w.headCell, 0)
		return
	}
	w.m.Mem.MustStore(w.headCell, nodes[0])
	for i := range nodes {
		next := int64(0)
		if i+1 < len(nodes) {
			next = nodes[i+1]
		}
		w.m.Mem.MustStore(nodes[i]+nextOff, next)
	}
}

// checksumRegion reads the pool image with intra-pool pointers
// normalized relative to the pool base, making checksums comparable
// across machines with different heap layouts.
func (w *world) checksumRegion(ptrOffsets map[int64]bool) []int64 {
	out := make([]int64, 0, w.n*w.stride)
	for i := int64(0); i < w.n*w.stride; i++ {
		v := w.m.Mem.MustLoad(w.pool + i)
		if ptrOffsets[i%w.stride] && v != 0 {
			v -= w.pool
		}
		out = append(out, v)
	}
	return out
}

// fillerSrc is the app-filler loop fragment shared by all kernels: a
// cheap integer recurrence standing in for the rest of the application
// (parsing, setup, bookkeeping) so that the measured loop accounts for
// the paper's reported fraction of total execution.
const fillerSrc = `
fill0:
  fi = const 0
  br filloop
filloop:
  fc = cmplt fi, filler
  cbr fc, fillbody, postfill
fillbody:
  facc = mul facc, 3
  facc = add facc, fi
  facc = and facc, 1048575
  fi = add fi, 1
  br filloop
`

func mustParseProgram(name, src string) *ir.Program {
	prog, err := parseProgram(src)
	if err != nil {
		panic(fmt.Sprintf("workloads: %s: %v", name, err))
	}
	return prog
}
