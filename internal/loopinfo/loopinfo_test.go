package loopinfo

import (
	"slices"
	"strings"
	"testing"

	"spice/internal/cfg"
	"spice/internal/dataflow"
	"spice/internal/irparse"
)

func analyzeFirstLoop(t *testing.T, src, fn string) *Info {
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
		t.Fatal("no loops found")
	}
	lv := dataflow.ComputeLiveness(g)
	return Analyze(g, lv, ls.Top[0])
}

const otterSrc = `
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

func TestOtterLoopLiveIns(t *testing.T) {
	info := analyzeFirstLoop(t, otterSrc, "find_min")
	f := info.G.Fn
	carried := map[string]bool{}
	for _, r := range info.Carried {
		carried[f.RegName(r)] = true
	}
	// c, wm, cm are all redefined inside the loop and live at its head.
	for _, want := range []string{"c", "wm", "cm"} {
		if !carried[want] {
			t.Errorf("%s should be a carried live-in; carried = %v", want, carried)
		}
	}
	if carried["w"] || carried["lt"] || carried["is_nil"] {
		t.Errorf("loop temporaries leaked into carried set: %v", carried)
	}
	if len(info.Invariant) != 0 {
		names := []string{}
		for _, r := range info.Invariant {
			names = append(names, f.RegName(r))
		}
		t.Errorf("unexpected invariant live-ins: %v", names)
	}
	outs := map[string]bool{}
	for _, r := range info.LiveOuts {
		outs[f.RegName(r)] = true
	}
	if !outs["wm"] || !outs["cm"] {
		t.Errorf("live-outs = %v, want wm and cm", outs)
	}
	if info.Preheader != info.G.Index["entry"] {
		t.Errorf("preheader = %d, want entry", info.Preheader)
	}
	if len(info.ExitBlocks) != 1 || info.ExitBlocks[0] != info.G.Index["exit"] {
		t.Errorf("exit blocks = %v", info.ExitBlocks)
	}
}

func TestInvariantLiveIn(t *testing.T) {
	src := `
func scale(head, k) {
entry:
  c = move head
  br loop
loop:
  is_nil = cmpeq c, 0
  cbr is_nil, exit, body
body:
  w = load c, 0
  w2 = mul w, k
  store w2, c, 0
  c = load c, 1
  br loop
exit:
  ret
}
`
	info := analyzeFirstLoop(t, src, "scale")
	f := info.G.Fn
	foundK := false
	for _, r := range info.Invariant {
		if f.RegName(r) == "k" {
			foundK = true
		}
	}
	if !foundK {
		t.Error("k should be an invariant live-in")
	}
	for _, r := range info.Carried {
		if f.RegName(r) == "k" {
			t.Error("k must not be carried")
		}
	}
	if len(info.LiveOuts) != 0 {
		t.Errorf("live-outs = %v, want none", info.LiveOuts)
	}
}

func TestInductionDetection(t *testing.T) {
	src := `
func count(n, step) {
entry:
  i = const 0
  s = const 0
  j = const 100
  br header
header:
  c = cmplt i, n
  cbr c, body, exit
body:
  s = add s, i
  i = add i, 1
  j = sub j, 2
  k = add i, step
  br header
exit:
  ret s, j, k
}
`
	info := analyzeFirstLoop(t, src, "count")
	f := info.G.Fn
	byName := map[string]Induction{}
	for _, ind := range info.Inductions {
		byName[f.RegName(ind.Reg)] = ind
	}
	i, ok := byName["i"]
	if !ok || !i.StepIsConst || i.Step != 1 {
		t.Errorf("i induction = %+v, ok=%v", i, ok)
	}
	j, ok := byName["j"]
	if !ok || !j.StepIsConst || j.Step != -2 {
		t.Errorf("j induction = %+v (sub should negate step)", j)
	}
	// s = s + i has a non-invariant addend but still matches the basic
	// IV shape r = r + x only when x is invariant; i varies, so s is not
	// an induction.
	if _, ok := byName["s"]; ok {
		t.Error("s must not be an induction (variant step)")
	}
}

func TestInductionWithRegisterStep(t *testing.T) {
	src := `
func f(n, step) {
entry:
  i = const 0
  br header
header:
  c = cmplt i, n
  cbr c, body, exit
body:
  i = add i, step
  br header
exit:
  ret i
}
`
	info := analyzeFirstLoop(t, src, "f")
	if len(info.Inductions) != 1 {
		t.Fatalf("inductions = %d", len(info.Inductions))
	}
	ind := info.Inductions[0]
	if ind.StepIsConst {
		t.Error("step should be a register")
	}
	if info.G.Fn.RegName(ind.StepReg) != "step" {
		t.Errorf("step reg = %s", info.G.Fn.RegName(ind.StepReg))
	}
}

func TestMultiplePreheaderPredecessors(t *testing.T) {
	src := `
func f(x, n) {
entry:
  i = const 0
  cbr x, pre1, pre2
pre1:
  br header
pre2:
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
	info := analyzeFirstLoop(t, src, "f")
	if info.Preheader != -1 {
		t.Errorf("preheader = %d, want -1 (two out-of-loop preds)", info.Preheader)
	}
}

func TestIsCarriedAndString(t *testing.T) {
	info := analyzeFirstLoop(t, otterSrc, "find_min")
	f := info.G.Fn
	if !slices.Contains(info.Carried, f.Reg("c")) {
		t.Error("c not carried")
	}
	if slices.Contains(info.Carried, f.Reg("head")) {
		t.Error("head carried")
	}
	s := info.String()
	for _, want := range []string{"header=loop", "carried", "live-outs"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
