package spice

// White-box unit coverage for the cell store's edge paths: reduction
// operator algebra, the uint32 generation wraparounds (round tick and
// view epoch) that steady-state runs never reach, and the binding
// guards on Runner and Session. The end-to-end DOACROSS semantics live
// in doacross_test.go; these tests pin the branches that only fire
// after ~4 billion rounds or on misuse. TestCellAccessorsInline holds
// the three per-access methods inside the compiler's inlining budget.

import (
	"errors"
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
// this one asks the compiler.
func TestCellAccessorsInline(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, m := range []string{"Load", "Store", "Reduce"} {
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

// TestCellsGenerationWrap drives both uint32 generation counters over
// their wraparound: the store's round tick (stale write stamps must be
// cleared, not reinterpreted as future-round writes) and the view's
// epoch (stale mark entries must not forward values or report reads
// from a previous incarnation).
func TestCellsGenerationWrap(t *testing.T) {
	c := NewCells(4)
	c.Set(2, 9)
	c.tick = ^uint32(0)
	c.wunion[1] = 7 // stale stamp from the pre-wrap generation
	c.beginRound()
	if c.tick != 1 {
		t.Fatalf("tick after wrap = %d, want 1", c.tick)
	}
	if c.wunion[1] != 0 {
		t.Fatalf("wunion not cleared on wrap: %d", c.wunion[1])
	}
	var v CellView
	v.begin(c, nil, true)
	if got := v.Load(1); got != 0 {
		t.Fatalf("Load(1) after wrap = %d, want 0", got)
	}
	if v.conflicted() {
		t.Fatal("ghost conflict from a cleared generation")
	}
	v.release()

	// Epoch wrap: a buffered write and a read-set entry from the
	// wrapped-around epoch must not alias into the fresh one.
	var w CellView
	w.begin(c, nil, true)
	w.Store(3, 5)
	_ = w.Load(0)
	w.release()
	w.epoch = ^uint32(0)
	w.begin(c, nil, true)
	if w.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", w.epoch)
	}
	if got := w.Load(3); got != c.At(3) {
		t.Fatalf("stale buffered write forwarded across epoch wrap: %d", got)
	}
	if got := w.reads(); got != 1 {
		t.Fatalf("read-set after wrap = %d entries, want 1", got)
	}
	w.release()
}

// TestBindCellsGuards covers the binding guard rails: Runner.BindCells
// must refuse to swap the store under a live invocation, and
// Session.BindCells must bind while open and degrade to a no-op after
// Close (the session's runner is already recycled).
func TestBindCellsGuards(t *testing.T) {
	r, err := NewRunner(dcLoop(), Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.running.Store(true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("BindCells during Run did not panic")
			}
		}()
		r.BindCells(NewCells(1))
	}()
	r.running.Store(false)

	p, err := NewPool(dcLoop(), PoolConfig{Config: Config{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	head, _, cells, shadow := buildDoacross(rand.New(rand.NewSource(7)), 64, "none")
	s.BindCells(cells)
	if got, want := s.MustRun(head), dcReference(head, shadow); got != want {
		t.Fatalf("session DOACROSS run = %d, want %d", got, want)
	}
	s.Close()
	s.BindCells(cells) // must be a safe no-op on a closed session
}

// TestConfigValidateOptions covers the adaptive-option validation
// sentinels surfaced through the constructor.
func TestConfigValidateOptions(t *testing.T) {
	if _, err := NewRunner(dcLoop(), Config{
		Threads: 1, Options: Options{ProbeInterval: -1},
	}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("negative ProbeInterval: err = %v, want ErrBadOptions", err)
	}
	if _, err := NewRunner(dcLoop(), Config{
		Threads: 1, Options: Options{MinConfidence: 1.5},
	}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("MinConfidence 1.5: err = %v, want ErrBadOptions", err)
	}
}

// TestRunnerStringPositional covers the positional-validation label of
// the debug formatter.
func TestRunnerStringPositional(t *testing.T) {
	l := dcLoop()
	r, err := NewRunner(l, Config{Threads: 2, Positional: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if s := r.String(); !strings.Contains(s, "positional") {
		t.Fatalf("String() = %q, want positional mode", s)
	}
}
