package cfg

import (
	"testing"

	"spice/internal/ir"
	"spice/internal/irparse"
)

func mustGraph(t *testing.T, src, fn string) *Graph {
	t.Helper()
	p, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := New(p.Func(fn))
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g
}

const diamondSrc = `
func diamond(x) {
entry:
  cbr x, left, right
left:
  a = const 1
  br join
right:
  a = const 2
  br join
join:
  ret a
}
`

func TestDiamondStructure(t *testing.T) {
	g := mustGraph(t, diamondSrc, "diamond")
	idx := g.Index
	if len(g.Succs[idx["entry"]]) != 2 {
		t.Errorf("entry succs = %v", g.Succs[idx["entry"]])
	}
	if len(g.Preds[idx["join"]]) != 2 {
		t.Errorf("join preds = %v", g.Preds[idx["join"]])
	}
	// Dominators: entry dominates all; join's idom is entry.
	if g.IDom[idx["join"]] != idx["entry"] {
		t.Errorf("idom(join) = %d, want entry", g.IDom[idx["join"]])
	}
	if g.IDom[idx["left"]] != idx["entry"] || g.IDom[idx["right"]] != idx["entry"] {
		t.Error("idom(left/right) should be entry")
	}
	if !g.Dominates(idx["entry"], idx["join"]) {
		t.Error("entry should dominate join")
	}
	if g.Dominates(idx["left"], idx["join"]) {
		t.Error("left must not dominate join")
	}
	if !g.Dominates(idx["join"], idx["join"]) {
		t.Error("blocks dominate themselves")
	}
}

func TestRPOOrdering(t *testing.T) {
	g := mustGraph(t, diamondSrc, "diamond")
	idx := g.Index
	// Entry first; join last.
	if g.RPO[0] != idx["entry"] {
		t.Errorf("RPO[0] = %d", g.RPO[0])
	}
	if g.RPO[len(g.RPO)-1] != idx["join"] {
		t.Errorf("RPO last = %d, want join", g.RPO[len(g.RPO)-1])
	}
	for i, b := range g.RPO {
		if g.RPONum[b] != i {
			t.Errorf("RPONum[%d] = %d, want %d", b, g.RPONum[b], i)
		}
	}
}

func TestUnreachableBlock(t *testing.T) {
	src := `
func f() {
entry:
  ret
island:
  br island
}
`
	g := mustGraph(t, src, "f")
	if g.Reachable(g.Index["island"]) {
		t.Error("island should be unreachable")
	}
	if g.Dominates(g.Index["entry"], g.Index["island"]) {
		t.Error("Dominates must be false for unreachable blocks")
	}
}

func TestBranchToUnknownBlock(t *testing.T) {
	f := ir.NewFunction("f")
	b := &ir.Builder{F: f}
	b.Block("entry")
	b.Cur().Instrs = append(b.Cur().Instrs, &ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Then: "ghost"})
	if _, err := New(f); err == nil {
		t.Error("New accepted branch to unknown block")
	}
}

const simpleLoopSrc = `
func count(n) {
entry:
  i = const 0
  br header
header:
  c = cmplt i, n
  cbr c, body, exit
body:
  i = add i, 1
  br header
exit:
  ret i
}
`

func TestSimpleLoopDetection(t *testing.T) {
	g := mustGraph(t, simpleLoopSrc, "count")
	ls := FindLoops(g)
	if len(ls.All) != 1 {
		t.Fatalf("loops = %d, want 1", len(ls.All))
	}
	l := ls.All[0]
	idx := g.Index
	if l.Header != idx["header"] {
		t.Errorf("header = %d, want %d", l.Header, idx["header"])
	}
	if len(l.Latches) != 1 || l.Latches[0] != idx["body"] {
		t.Errorf("latches = %v", l.Latches)
	}
	if !l.InBody[idx["header"]] || !l.InBody[idx["body"]] || l.InBody[idx["exit"]] {
		t.Errorf("body membership wrong: %v", l.Body)
	}
	if len(l.Exits) != 1 || l.Exits[0] != [2]int{idx["header"], idx["exit"]} {
		t.Errorf("exits = %v", l.Exits)
	}
	if l.Depth != 1 || l.Parent != nil {
		t.Errorf("depth=%d parent=%v", l.Depth, l.Parent)
	}
	if got := l.HeaderName(g); got != "header" {
		t.Errorf("HeaderName = %q", got)
	}
}

const nestedLoopSrc = `
func nest(n, m) {
entry:
  i = const 0
  br oh
oh:
  ci = cmplt i, n
  cbr ci, ob, exit
ob:
  j = const 0
  br ih
ih:
  cj = cmplt j, m
  cbr cj, ib, olatch
ib:
  j = add j, 1
  br ih
olatch:
  i = add i, 1
  br oh
exit:
  ret i
}
`

func TestNestedLoops(t *testing.T) {
	g := mustGraph(t, nestedLoopSrc, "nest")
	ls := FindLoops(g)
	if len(ls.All) != 2 {
		t.Fatalf("loops = %d, want 2", len(ls.All))
	}
	if len(ls.Top) != 1 {
		t.Fatalf("top loops = %d, want 1", len(ls.Top))
	}
	outer := ls.Top[0]
	if len(outer.Children) != 1 {
		t.Fatalf("outer children = %d", len(outer.Children))
	}
	inner := outer.Children[0]
	idx := g.Index
	if outer.Header != idx["oh"] || inner.Header != idx["ih"] {
		t.Errorf("headers: outer=%d inner=%d", outer.Header, inner.Header)
	}
	if inner.Parent != outer || inner.Depth != 2 || outer.Depth != 1 {
		t.Error("nesting relationship wrong")
	}
	if !outer.InBody[idx["ih"]] || !outer.InBody[idx["ib"]] {
		t.Error("outer loop must contain inner blocks")
	}
	if inner.InBody[idx["olatch"]] {
		t.Error("inner loop must not contain outer latch")
	}
	if !outer.InBody[idx["olatch"]] || outer.InBody[idx["exit"]] {
		t.Error("outer loop body: olatch in, exit out")
	}
}

func TestMultiLatchLoopMerged(t *testing.T) {
	src := `
func f(x) {
entry:
  br header
header:
  cbr x, a, b
a:
  cbr x, header, exit
b:
  br header
exit:
  ret
}
`
	g := mustGraph(t, src, "f")
	ls := FindLoops(g)
	if len(ls.All) != 1 {
		t.Fatalf("loops = %d, want 1 (merged latches)", len(ls.All))
	}
	if len(ls.All[0].Latches) != 2 {
		t.Errorf("latches = %v, want 2", ls.All[0].Latches)
	}
}

func TestSelfLoop(t *testing.T) {
	src := `
func f(x) {
entry:
  br spin
spin:
  cbr x, spin, exit
exit:
  ret
}
`
	g := mustGraph(t, src, "f")
	ls := FindLoops(g)
	if len(ls.All) != 1 {
		t.Fatalf("loops = %d", len(ls.All))
	}
	l := ls.All[0]
	if len(l.Body) != 1 || l.Header != g.Index["spin"] {
		t.Errorf("self loop body = %v", l.Body)
	}
}

func TestIrreducibleLoopNotDetectedAsNatural(t *testing.T) {
	// Two blocks jumping into each other with two entries: no back edge
	// to a dominating header, so no natural loop.
	src := `
func f(x) {
entry:
  cbr x, a, b
a:
  cbr x, b, exit
b:
  cbr x, a, exit
exit:
  ret
}
`
	g := mustGraph(t, src, "f")
	ls := FindLoops(g)
	if len(ls.All) != 0 {
		t.Errorf("irreducible region reported as %d natural loops", len(ls.All))
	}
}
