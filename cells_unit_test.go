package spice

// White-box unit coverage for the cell store's edge paths: reduction
// operator algebra, re-arm hygiene of a view, and the binding guards on
// Runner and Session. The end-to-end DOACROSS semantics live in
// doacross_test.go and the view's model test in cellmodel_test.go.
// TestCellAccessorsInline holds the three per-access methods and the
// per-block one inside the compiler's inlining budget.

import (
	"math/rand"
	"os/exec"
	"strings"
	"testing"
)

// TestCellAccessorsInline is the inlining gate: Load, Store and Reduce
// run two to eight times per iteration of a DOACROSS body, and each is
// written to fit the compiler's inlining budget with little to spare
// (Reduce sits within a few nodes of it). An edit that pushes one over
// turns every access into a call without failing any other test, so
// this one asks the compiler. Accumulators, which a block form asks once
// per block for the slice Reduce folds into, is held with them so that
// it stays the field read it is.
func TestCellAccessorsInline(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, m := range []string{"Load", "Store", "Reduce", "Accumulators"} {
		if want := "can inline (*CellView)." + m + "\n"; !strings.Contains(string(out), want) {
			t.Errorf("the compiler no longer inlines (*CellView).%s", m)
		}
	}
}

// TestReductionKindFold exercises every fold operator in both orders
// plus the identity law (folding the identity on the left must return
// the right operand unchanged — the property the commit-merge relies
// on for chunks that never touched an accumulator), and the
// out-of-range String/Identity fallbacks.
func TestReductionKindFold(t *testing.T) {
	cases := []struct {
		k       ReductionKind
		a, b, w int64
	}{
		{ReduceSum, 3, 4, 7},
		{ReduceProduct, 3, 4, 12},
		{ReduceAnd, 6, 3, 2},
		{ReduceOr, 6, 3, 7},
		{ReduceXor, 6, 3, 5},
		{ReduceMin, 6, 3, 3},
		{ReduceMin, 3, 6, 3},
		{ReduceMax, 6, 3, 6},
		{ReduceMax, 3, 6, 6},
	}
	for _, c := range cases {
		if got := c.k.fold(c.a, c.b); got != c.w {
			t.Errorf("%v.fold(%d, %d) = %d, want %d", c.k, c.a, c.b, got, c.w)
		}
		if got := c.k.fold(c.k.Identity(), c.a); got != c.a {
			t.Errorf("%v.fold(identity, %d) = %d, want %d", c.k, c.a, got, c.a)
		}
	}
	if got := ReductionKind(99).String(); got != "kind(?)" {
		t.Errorf("out-of-range String = %q", got)
	}
	if got := ReductionKind(99).Identity(); got != 0 {
		t.Errorf("out-of-range Identity = %d", got)
	}
	if got := NewCells(-1).Size(); got != 0 {
		t.Errorf("NewCells(-1).Size() = %d, want 0", got)
	}
}

// TestCellsGenerationWrap keeps its name from the representation it
// used to test: the store's uint32 round tick and the view's uint32
// epoch, whose wraparounds it drove by hand. Both counters are gone —
// read- and write-sets are per-view bitmaps cleared at every arm, and
// conflicts are scoped to a round by probing only that round's views —
// so there is nothing left to wrap. What remains of "generations" is
// what those cases guarded: however many times a view is re-armed,
// nothing of an earlier arm may forward a value, report a read or
// reach the store, over a thousand arms held to the view model.
func TestCellsGenerationWrap(t *testing.T) {
	rounds := make([][]byte, 1000)
	for i := range rounds {
		// Chunk 1 reads cell 2 and reads and then writes cell 129 (squashed
		// every time); chunk 0 writes cell 64 and commits.
		rounds[i] = viewRound(2, 1, vop{vLoad, 1, 129}, vop{vLoad, 1, 2}, vop{vStore, 1, 129}, vop{vStore, 0, 64})
	}
	runViewScript(t, viewScript(rounds...))
}

// TestCellViewOutOfRange: an index outside the bound store panics in
// Load and in Store and leaves no trace in the view — below zero, just
// past the end inside the partial last block, and past the end but
// inside buffers a larger store once sized.
func TestCellViewOutOfRange(t *testing.T) {
	var v CellView
	v.begin(NewCells(1024), nil)
	v.begin(NewCells(130), nil)
	for _, i := range []int{-1, 130, 191, 192, 500, 1 << 20} {
		for _, op := range []func(){func() { v.Load(i) }, func() { v.Store(i, 1) }} {
			if panics(op) == nil {
				t.Fatalf("access to cell %d of a 130-cell store did not panic", i)
			}
		}
	}
	if r, w := readSet(&v), writeSet(&v); len(r)+len(w) != 0 {
		t.Fatalf("out-of-range accesses entered the sets: reads %v, writes %v", r, w)
	}
	// A block with no bit set is never copied: with every buffered value
	// poisoned, landing the view leaves the store as it was.
	poisonUnwritten(&v)
	retire(&v, nil)
	for i := 0; i < 130; i++ {
		if got := v.words[i]; got != 0 {
			t.Fatalf("out-of-range accesses made the copy-out move cell %d = %d", i, got)
		}
	}
}

// TestBindCellsGuards covers the binding guard rails: Runner.BindCells
// must refuse to swap the store under a live invocation, and
// Session.BindCells must bind while open and degrade to a no-op after
// Close (the session's runner is already recycled).
func TestBindCellsGuards(t *testing.T) {
	g := cellList(rand.New(rand.NewSource(7)), 64, "none")
	loop := g.loop(false)
	loop.Cells = nil
	r := newRunner(t, loop, Config{Threads: 1})
	r.running.Store(true)
	if panics(func() { r.BindCells(NewCells(1)) }) == nil {
		t.Fatal("BindCells during Run did not panic")
	}
	r.running.Store(false)

	s := openSession(t, newPool(t, loop, Config{Threads: 2}), 0)
	s.BindCells(g.cells)
	g.exact(t, s)
	s.Close()
	s.BindCells(g.cells) // must be a safe no-op on a closed session
}
