package main

import (
	"context"
	"fmt"
	"math/rand"

	"spice"
	"spice/internal/workloads/native"
)

type node = native.Node

// Sizes of the library workloads.
const (
	hotNodes       = 100_000
	scatteredNodes = 200_000
	churnNodes     = 100_000
	churnReplace   = churnNodes / 5 // hostile: 20 % of the nodes replaced per op
	cellsNodes     = 100_000
	cellsDepStride = 64 // one node in 64 reads its predecessor's cell
	valueChurn     = 8  // weights rewritten between ops on the stable lists
)

// slabList allocates n nodes contiguously and links them in the given
// order (identity when order is nil). Weights come from rng.
func slabList(rng *rand.Rand, n int, order []int) (*node, []node) {
	slab := make([]node, n)
	at := func(i int) *node {
		if order != nil {
			return &slab[order[i]]
		}
		return &slab[i]
	}
	for i := 0; i < n; i++ {
		nd := at(i)
		nd.W = rng.Int63n(1 << 20)
		if i+1 < n {
			nd.Next = at(i + 1)
		}
	}
	return at(0), slab
}

// churnValues rewrites k random weights: membership and order stay, so
// predictions keep hitting while every op returns a different sum.
func churnValues(rng *rand.Rand, slab []node, k int) {
	for i := 0; i < k; i++ {
		slab[rng.Intn(len(slab))].W = rng.Int63n(1 << 20)
	}
}

// sumRef is the plain loop every DOALL series is checked against.
func sumRef(head *node) int64 {
	var a int64
	for n := head; n != nil; n = n.Next {
		a += n.W
	}
	return a
}

var bg = context.Background()

// runnerSeries drives a private spice.Runner over native.Loop.
func runnerSeries(head func() *node, width int) (*series, func(), error) {
	r, err := spice.NewRunner(native.Loop(), spice.Config{Threads: width})
	if err != nil {
		return nil, nil, err
	}
	s := &series{
		layer: "runner.Run",
		op:    func() (int64, error) { return r.Run(bg, head()) },
		stats: r.Stats,
	}
	return s, r.Close, nil
}

// sessionSeries drives a width-budgeted pool session — the front door
// spiced uses per tenant. cells may be nil.
func sessionSeries(loop spice.Loop[*node, int64], head func() *node, width int, adaptive bool, cells *spice.Cells) (*series, func(), error) {
	pool, err := spice.NewPool(loop, spice.PoolConfig{Config: spice.Config{
		Threads: targetWidth(),
		Options: spice.Options{Adaptive: adaptive},
	}})
	if err != nil {
		return nil, nil, err
	}
	sess, err := pool.SessionWidth(width)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	if cells != nil {
		sess.BindCells(cells)
	}
	s := &series{
		layer: "session.Run",
		op:    func() (int64, error) { return sess.Run(bg, head()) },
		stats: sess.Stats,
	}
	return s, func() { sess.Close(); pool.Close() }, nil
}

// refSeries wraps a plain loop.
func refSeries(op func() int64) *series {
	return &series{
		layer: "ref.loop",
		op:    func() (int64, error) { return op(), nil },
	}
}

// seriesWidth is the width series i runs at.
func seriesWidth(i int) int {
	if i == sWN {
		return targetWidth()
	}
	return 1
}

// closers runs every release function once.
func closers(fs []func()) func() error {
	return func() error {
		for _, f := range fs {
			f()
		}
		return nil
	}
}

// buildStable builds doall_hot (order nil) and doall_scattered: a slab
// list with value churn, a plain loop against Runner at width 1 and W.
func buildStable(seed int64, n int, scatter bool) (*trio, error) {
	t := &trio{}
	var release []func()
	for i := 0; i < nSeries; i++ {
		rng := rand.New(rand.NewSource(seed))
		var order []int
		if scatter {
			order = rng.Perm(n)
		}
		head, slab := slabList(rng, n, order)
		var s *series
		switch i {
		case sRef:
			s = refSeries(func() int64 { return sumRef(head) })
		default:
			var closeFn func()
			var err error
			if s, closeFn, err = runnerSeries(func() *node { return head }, seriesWidth(i)); err != nil {
				return nil, err
			}
			release = append(release, closeFn)
		}
		s.churn = func() { churnValues(rng, slab, valueChurn) }
		t.s[i] = s
	}
	t.finish = closers(release)
	return t, nil
}

// buildChurn builds doall_churn: native's hostile kernel (node
// replacement plus a full relink before every op) through an adaptive
// pool session.
func buildChurn(seed int64) (*trio, error) {
	t := &trio{}
	var release []func()
	for i := 0; i < nSeries; i++ {
		inst := native.ByName("hostile").New(churnNodes, seed, churnReplace)
		head := func() *node { return inst.Head }
		var s *series
		switch i {
		case sRef:
			s = refSeries(func() int64 { return sumRef(inst.Head) })
		default:
			var closeFn func()
			var err error
			if s, closeFn, err = sessionSeries(native.Loop(), head, seriesWidth(i), true, nil); err != nil {
				return nil, err
			}
			release = append(release, closeFn)
		}
		s.churn = inst.Mutate
		t.s[i] = s
	}
	t.finish = closers(release)
	return t, nil
}

// cellsLoop is the accumulate recurrence written against the public
// CellView API: cells[Dst] = cells[Src] + W, one load and one store per
// node.
func cellsLoop() spice.Loop[*node, int64] {
	return spice.Loop[*node, int64]{
		Done: func(n *node) bool { return n == nil },
		Next: func(n *node) *node { return n.Next },
		SpecBody: func(n *node, a int64, v *spice.CellView) int64 {
			x := v.Load(int(n.Src)) + n.W
			v.Store(int(n.Dst), x)
			return a + x
		},
		Init:  func() int64 { return 0 },
		Merge: func(a, b int64) int64 { return a + b },
	}
}

// cellsRef is the same recurrence on a plain array.
func cellsRef(head *node, cells []int64) int64 {
	var a int64
	for n := head; n != nil; n = n.Next {
		x := cells[n.Src] + n.W
		cells[n.Dst] = x
		a += x
	}
	return a
}

// buildCells builds doacross_cells. finish compares the final cell
// contents of all three copies.
func buildCells(seed int64) (*trio, error) {
	t := &trio{}
	var release []func()
	plain := make([]int64, cellsNodes)
	var stores []*spice.Cells
	for i := 0; i < nSeries; i++ {
		rng := rand.New(rand.NewSource(seed))
		head, slab := slabList(rng, cellsNodes, nil)
		for j := range slab {
			slab[j].Dst = int32(j)
			slab[j].Src = int32(j)
			if j > 0 && j%cellsDepStride == 0 {
				slab[j].Src = int32(j - 1)
			}
		}
		var s *series
		switch i {
		case sRef:
			s = refSeries(func() int64 { return cellsRef(head, plain) })
		default:
			store := spice.NewCells(cellsNodes)
			stores = append(stores, store)
			var closeFn func()
			var err error
			if s, closeFn, err = sessionSeries(cellsLoop(), func() *node { return head }, seriesWidth(i), false, store); err != nil {
				return nil, err
			}
			release = append(release, closeFn)
		}
		s.churn = func() { churnValues(rng, slab, valueChurn) }
		t.s[i] = s
	}
	done := closers(release)
	t.finish = func() error {
		_ = done()
		for si, store := range stores {
			for j, want := range plain {
				if got := store.At(j); got != want {
					return fmt.Errorf("doacross_cells: %s cell %d = %d, plain array has %d", seriesNames[si+1], j, got, want)
				}
			}
		}
		return nil
	}
	return t, nil
}
