package reduction

import (
	"testing"

	"spice/internal/cfg"
	"spice/internal/dataflow"
	"spice/internal/ir"
	"spice/internal/irparse"
	"spice/internal/loopinfo"
)

func findGroups(t *testing.T, src, fn string) ([]Group, *cfg.Graph) {
	t.Helper()
	p, err := irparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.New(p.Func(fn))
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	ls := cfg.FindLoops(g)
	if len(ls.Top) == 0 {
		t.Fatal("no loop")
	}
	lv := dataflow.ComputeLiveness(g)
	info := loopinfo.Analyze(g, lv, ls.Top[0])
	return Find(g, info), g
}

func TestKindStringsAndIdentities(t *testing.T) {
	cases := []struct {
		k    Kind
		name string
		id   int64
	}{
		{Sum, "sum", 0},
		{Product, "product", 1},
		{BitAnd, "and", -1},
		{BitOr, "or", 0},
		{BitXor, "xor", 0},
		{Min, "min", int64(^uint64(0) >> 1)},
		{Max, "max", -int64(^uint64(0)>>1) - 1},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v.String() = %q", c.k, c.k.String())
		}
		if c.k.Identity() != c.id {
			t.Errorf("%v.Identity() = %d, want %d", c.k, c.k.Identity(), c.id)
		}
	}
	if op, ok := Sum.MergeOp(); !ok || op != ir.OpAdd {
		t.Error("Sum merge op wrong")
	}
	if _, ok := Min.MergeOp(); ok {
		t.Error("Min must not have a direct merge op")
	}
	if _, ok := Max.MergeOp(); ok {
		t.Error("Max must not have a direct merge op")
	}
}

const sumLoop = `
func sum(head) {
entry:
  s = const 0
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  s = add s, w
  c = load c, 1
  br loop
exit:
  ret s
}
`

func TestSumReduction(t *testing.T) {
	groups, g := findGroups(t, sumLoop, "sum")
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	grp := groups[0]
	if grp.Kind != Sum {
		t.Errorf("kind = %v", grp.Kind)
	}
	if g.Fn.RegName(grp.Reg) != "s" {
		t.Errorf("reg = %s", g.Fn.RegName(grp.Reg))
	}
	if len(grp.Payload) != 0 {
		t.Errorf("payload = %v", grp.Payload)
	}
}

// The paper's Figure 1(a): wm is a MIN reduction and cm is its payload
// (argmin). Both are excluded from the speculative live-in set; only c
// needs prediction.
const otterLoop = `
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

func TestMinReductionWithArgminPayload(t *testing.T) {
	groups, g := findGroups(t, otterLoop, "find_min")
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1 (min group)", len(groups))
	}
	grp := groups[0]
	if grp.Kind != Min {
		t.Errorf("kind = %v, want min", grp.Kind)
	}
	if g.Fn.RegName(grp.Reg) != "wm" {
		t.Errorf("accumulator = %s, want wm", g.Fn.RegName(grp.Reg))
	}
	if len(grp.Payload) != 1 || g.Fn.RegName(grp.Payload[0]) != "cm" {
		t.Errorf("payload = %v, want [cm]", grp.Payload)
	}
	regs := grp.Regs()
	if len(regs) != 2 {
		t.Errorf("Regs() = %v", regs)
	}
}

func TestMaxReductionReversedCompare(t *testing.T) {
	// Guard written as r > w on the false edge: update when !(wm > w),
	// i.e. when w >= wm: a MAX reduction (cmpgt wm, w; cbr -> skip, update).
	src := `
func find_max(head) {
entry:
  wm = const -9223372036854775808
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  gt = cmpgt wm, w
  cbr gt, next, update
update:
  wm = move w
  br next
next:
  c = load c, 1
  br loop
exit:
  ret wm
}
`
	groups, g := findGroups(t, src, "find_max")
	if len(groups) != 1 || groups[0].Kind != Max {
		t.Fatalf("groups = %+v, want one max", groups)
	}
	if g.Fn.RegName(groups[0].Reg) != "wm" {
		t.Errorf("reg = %s", g.Fn.RegName(groups[0].Reg))
	}
}

func TestNonReductionUsesBlockRecognition(t *testing.T) {
	// s is both accumulated and stored: the store is an extra use, so s
	// is NOT a reduction (its intermediate values escape).
	src := `
func f(head) {
entry:
  s = const 0
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  s = add s, w
  store s, c, 0
  c = load c, 1
  br loop
exit:
  ret s
}
`
	groups, _ := findGroups(t, src, "f")
	if len(groups) != 0 {
		t.Errorf("groups = %+v, want none (escaping accumulator)", groups)
	}
}

func TestMixedOpsNotAReduction(t *testing.T) {
	src := `
func f(n) {
entry:
  s = const 0
  i = const 0
  br header
header:
  c = cmplt i, n
  cbr c, body, exit
body:
  s = add s, i
  s = mul s, 2
  i = add i, 1
  br header
exit:
  ret s
}
`
	groups, g := findGroups(t, src, "f")
	for _, grp := range groups {
		if g.Fn.RegName(grp.Reg) == "s" {
			t.Errorf("s recognized as %v despite mixed add/mul", grp.Kind)
		}
	}
}

func TestXorAndProductReductions(t *testing.T) {
	src := `
func f(head) {
entry:
  x = const 0
  p = const 1
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  x = xor x, w
  p = mul w, p
  c = load c, 1
  br loop
exit:
  ret x, p
}
`
	groups, g := findGroups(t, src, "f")
	kinds := map[string]Kind{}
	for _, grp := range groups {
		kinds[g.Fn.RegName(grp.Reg)] = grp.Kind
	}
	if kinds["x"] != BitXor {
		t.Errorf("x kind = %v", kinds["x"])
	}
	// p = mul w, p: accumulator on the right-hand side also matches.
	if kinds["p"] != Product {
		t.Errorf("p kind = %v", kinds["p"])
	}
}

func TestSelfMultiplyRejected(t *testing.T) {
	// s = add s, s is not a valid reduction shape (both operands are the
	// accumulator).
	src := `
func f(n) {
entry:
  s = const 1
  i = const 0
  br header
header:
  c = cmplt i, n
  cbr c, body, exit
body:
  s = add s, s
  i = add i, 1
  br header
exit:
  ret s
}
`
	groups, g := findGroups(t, src, "f")
	for _, grp := range groups {
		if g.Fn.RegName(grp.Reg) == "s" {
			t.Error("s = add s, s recognized as reduction")
		}
	}
}
