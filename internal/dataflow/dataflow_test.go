package dataflow

import (
	"testing"

	"spice/internal/cfg"
	"spice/internal/ir"
	"spice/internal/irparse"
)

func analyze(t *testing.T, src, fn string) (*cfg.Graph, *Liveness) {
	t.Helper()
	p, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.New(p.Func(fn))
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g, ComputeLiveness(g)
}

func TestRegSetBasics(t *testing.T) {
	s := NewRegSet(130)
	if s.Has(0) || s.Has(129) {
		t.Error("fresh set non-empty")
	}
	if !s.Add(5) || s.Add(5) {
		t.Error("Add change reporting wrong")
	}
	s.Add(64)
	s.Add(129)
	if !s.Has(5) || !s.Has(64) || !s.Has(129) {
		t.Error("membership lost")
	}
	if got := s.Count(); got != 3 {
		t.Errorf("Count = %d", got)
	}
	m := s.Members()
	want := []ir.Reg{5, 64, 129}
	if len(m) != len(want) {
		t.Fatalf("Members = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("Members[%d] = %d, want %d", i, m[i], want[i])
		}
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	c := s.Clone()
	c.Add(70)
	if s.Has(70) {
		t.Error("Clone aliases original")
	}
	other := NewRegSet(130)
	other.Add(1)
	if !s.UnionInto(other) || !s.Has(1) {
		t.Error("UnionInto failed")
	}
	if s.UnionInto(other) {
		t.Error("UnionInto reported change on no-op")
	}
	// NoReg is ignored gracefully.
	if s.Add(ir.NoReg) || s.Has(ir.NoReg) {
		t.Error("NoReg should be inert")
	}
	s.Remove(ir.NoReg)
}

func TestLivenessStraightLine(t *testing.T) {
	src := `
func f(a, b) {
entry:
  c = add a, b
  d = add c, 1
  ret d
}
`
	g, lv := analyze(t, src, "f")
	f := g.Fn
	in := lv.In[g.Index["entry"]]
	if !in.Has(f.Reg("a")) || !in.Has(f.Reg("b")) {
		t.Error("params must be live at entry")
	}
	if in.Has(f.Reg("c")) || in.Has(f.Reg("d")) {
		t.Error("locals must not be live at entry")
	}
}

func TestLivenessLoop(t *testing.T) {
	// The otter-style loop: wm, cm, c are live around the loop; head
	// only at entry.
	src := `
func find_min(head, wm0) {
entry:
  wm = move wm0
  cm = const 0
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  lt = cmplt w, wm
  cbr lt, update, next
update:
  wm = move w
  cm = move c
  br next
next:
  c = load c, 1
  br loop
exit:
  ret wm, cm
}
`
	g, lv := analyze(t, src, "find_min")
	f := g.Fn
	loopIn := lv.In[g.Index["loop"]]
	for _, name := range []string{"c", "wm", "cm"} {
		if !loopIn.Has(f.Reg(name)) {
			t.Errorf("%s must be live at loop header", name)
		}
	}
	if loopIn.Has(f.Reg("head")) {
		t.Error("head must not be live at loop header")
	}
	if loopIn.Has(f.Reg("w")) || loopIn.Has(f.Reg("lt")) {
		t.Error("loop temporaries must not be live at header")
	}
	// At 'update', w must be live (it is read there).
	if !lv.In[g.Index["update"]].Has(f.Reg("w")) {
		t.Error("w must be live into update")
	}
}

func TestLivenessDiamondMerge(t *testing.T) {
	src := `
func f(x, a, b) {
entry:
  cbr x, l, r
l:
  v = move a
  br join
r:
  v = move b
  br join
join:
  ret v
}
`
	g, lv := analyze(t, src, "f")
	f := g.Fn
	if !lv.In[g.Index["l"]].Has(f.Reg("a")) {
		t.Error("a live into l")
	}
	if lv.In[g.Index["l"]].Has(f.Reg("b")) {
		t.Error("b must not be live into l")
	}
	if !lv.In[g.Index["entry"]].Has(f.Reg("a")) || !lv.In[g.Index["entry"]].Has(f.Reg("b")) {
		t.Error("both a and b live at entry")
	}
	if !lv.In[g.Index["join"]].Has(f.Reg("v")) {
		t.Error("v live at join")
	}
}

func TestUseBeforeDefWithinBlock(t *testing.T) {
	// x is read then written in the same block: it must appear in Use.
	src := `
func f(x) {
entry:
  y = add x, 1
  x = const 0
  ret x, y
}
`
	g, lv := analyze(t, src, "f")
	f := g.Fn
	e := g.Index["entry"]
	if !lv.Use[e].Has(f.Reg("x")) {
		t.Error("x read before write must be in Use")
	}
	if !lv.Def[e].Has(f.Reg("x")) || !lv.Def[e].Has(f.Reg("y")) {
		t.Error("defs missing")
	}
	// y is written before any read: not in Use.
	if lv.Use[e].Has(f.Reg("y")) {
		t.Error("y must not be in Use")
	}
}

func TestLivenessUnreachableBlockIncluded(t *testing.T) {
	src := `
func f(a) {
entry:
  ret a
island:
  b = add a, 1
  ret b
}
`
	g, lv := analyze(t, src, "f")
	f := g.Fn
	if !lv.In[g.Index["island"]].Has(f.Reg("a")) {
		t.Error("liveness should still compute for unreachable blocks")
	}
}
