package ir

import (
	"strings"
	"testing"
)

func TestOpNamesRoundTrip(t *testing.T) {
	for op := OpConst; op <= OpRet; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Fatalf("opcode %d has no name", int(op))
		}
		got, ok := OpByName(name)
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", name, got, ok, op)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName(bogus) succeeded")
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		op                 Op
		bin, cmp, terminal bool
	}{
		{OpAdd, true, false, false},
		{OpShr, true, false, false},
		{OpCmpEQ, false, true, false},
		{OpCmpGE, false, true, false},
		{OpBr, false, false, true},
		{OpCBr, false, false, true},
		{OpRet, false, false, true},
		{OpLoad, false, false, false},
		{OpConst, false, false, false},
	}
	for _, c := range cases {
		if got := c.op.IsBinOp(); got != c.bin {
			t.Errorf("%v.IsBinOp() = %v, want %v", c.op, got, c.bin)
		}
		if got := c.op.IsCmp(); got != c.cmp {
			t.Errorf("%v.IsCmp() = %v, want %v", c.op, got, c.cmp)
		}
		if got := c.op.IsTerminator(); got != c.terminal {
			t.Errorf("%v.IsTerminator() = %v, want %v", c.op, got, c.terminal)
		}
	}
}

func TestFunctionRegisters(t *testing.T) {
	f := NewFunction("f", "a", "b")
	if len(f.Params) != 2 {
		t.Fatalf("params = %d, want 2", len(f.Params))
	}
	a := f.Reg("a")
	if a != f.Params[0] {
		t.Errorf("Reg(a) = %d, want param register %d", a, f.Params[0])
	}
	c := f.Reg("c")
	if c == a || f.RegName(c) != "c" {
		t.Errorf("new register c: got %d name %q", c, f.RegName(c))
	}
	if f.NumRegs() != 3 {
		t.Errorf("NumRegs = %d, want 3", f.NumRegs())
	}
	fresh := f.FreshReg("c")
	if f.RegName(fresh) == "c" {
		t.Error("FreshReg returned an existing name")
	}
	if f.RegName(NoReg) != "_" {
		t.Errorf("RegName(NoReg) = %q", f.RegName(NoReg))
	}
}

func TestBlockOperations(t *testing.T) {
	f := NewFunction("f")
	e := f.AddBlock("entry")
	if f.Entry() != e {
		t.Fatal("Entry() is not the first block")
	}
	if f.FindBlock("entry") != e || f.FindBlock("nope") != nil {
		t.Error("FindBlock misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddBlock did not panic")
		}
	}()
	f.AddBlock("entry")
}

func TestBlockSuccsAndTerminator(t *testing.T) {
	f := NewFunction("f", "x")
	b := NewBuilder("unused")
	_ = b
	bld := &Builder{F: f}
	entry := bld.Block("entry")
	bld.CBr("x", "a", "b")
	bld.Block("a")
	bld.Br("b")
	bld.Block("b")
	bld.Ret()

	if got := entry.Succs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("entry succs = %v", got)
	}
	if got := f.FindBlock("a").Succs(); len(got) != 1 || got[0] != "b" {
		t.Errorf("a succs = %v", got)
	}
	if got := f.FindBlock("b").Succs(); got != nil {
		t.Errorf("ret succs = %v, want nil", got)
	}
	empty := &Block{Name: "e"}
	if empty.Terminator() != nil {
		t.Error("empty block has terminator")
	}
}

func TestCBrSameTargetSuccs(t *testing.T) {
	f := NewFunction("f", "x")
	bld := &Builder{F: f}
	bld.Block("entry")
	bld.CBr("x", "done", "done")
	bld.Block("done")
	bld.Ret()
	if got := f.Entry().Succs(); len(got) != 1 || got[0] != "done" {
		t.Errorf("succs = %v, want [done]", got)
	}
}

func TestProgramFunctionsAndGlobals(t *testing.T) {
	p := NewProgram()
	p.AddGlobal("sva", 16)
	f := NewFunction("main")
	p.AddFunc(f)
	if p.Func("main") != f || p.Func("nope") != nil {
		t.Error("Func lookup broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddFunc did not panic")
		}
	}()
	p.AddFunc(NewFunction("main"))
}

func TestDuplicateGlobalPanics(t *testing.T) {
	p := NewProgram()
	p.AddGlobal("g", 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddGlobal did not panic")
		}
	}()
	p.AddGlobal("g", 2)
}

func TestClonePreservesStructureAndIsDeep(t *testing.T) {
	b := NewBuilder("orig", "n")
	b.Block("entry")
	b.Const("i", 0)
	b.Br("loop")
	b.Block("loop")
	b.Add("i", "i", 1)
	b.CmpLT("c", "i", "n")
	b.CBr("c", "loop", "done")
	b.Block("done")
	b.Ret("i")

	c := b.F.Clone("copy")
	if c.Name != "copy" || c.NumRegs() != b.F.NumRegs() || len(c.Blocks) != len(b.F.Blocks) {
		t.Fatalf("clone mismatch: %s regs=%d blocks=%d", c.Name, c.NumRegs(), len(c.Blocks))
	}
	// Mutating the clone must not affect the original.
	c.Blocks[1].Instrs[0].Imm = 999
	c.Blocks[1].Instrs[0].Args[0].Imm = 777
	if b.F.Blocks[1].Instrs[0].Imm == 999 || b.F.Blocks[1].Instrs[0].Args[0].Imm == 777 {
		t.Error("clone shares instruction storage with original")
	}
	if c.Reg("n") != b.F.Reg("n") {
		t.Error("clone renumbered registers")
	}
}

func TestUsedRegs(t *testing.T) {
	f := NewFunction("f", "a", "b")
	in := &Instr{Op: OpAdd, Dst: f.Reg("c"),
		Args: []Operand{R(f.Reg("a")), Imm(5)}}
	used := in.UsedRegs()
	if len(used) != 1 || used[0] != f.Reg("a") {
		t.Errorf("UsedRegs = %v", used)
	}
}

func TestIntrinsicRegistry(t *testing.T) {
	sig, ok := IntrinsicSig("send")
	if !ok || sig.NArgs != 3 || sig.HasResult {
		t.Errorf("send sig = %+v, %v", sig, ok)
	}
	sig, ok = IntrinsicSig("recv")
	if !ok || sig.NArgs != 1 || !sig.HasResult {
		t.Errorf("recv sig = %+v, %v", sig, ok)
	}
	sig, ok = IntrinsicSig("prof_record")
	if !ok || sig.NArgs >= 0 {
		t.Errorf("prof_record should be variadic, got %+v", sig)
	}
	if _, ok := IntrinsicSig("no_such"); ok {
		t.Error("unknown intrinsic resolved")
	}
}

func TestVerifyAcceptsWellFormed(t *testing.T) {
	b := NewBuilder("ok", "n")
	b.Block("entry")
	b.Const("i", 0)
	b.Br("loop")
	b.Block("loop")
	b.Add("i", "i", 1)
	b.CmpLT("c", "i", "n")
	b.CBr("c", "loop", "done")
	b.Block("done")
	b.Call(nil, "print", "i")
	b.Ret("i")
	p := NewProgram()
	p.AddGlobal("g", 4)
	p.AddFunc(b.F)
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	build := func(mod func(b *Builder)) error {
		b := NewBuilder("bad", "n")
		mod(b)
		p := NewProgram()
		p.AddFunc(b.F)
		return Verify(p)
	}
	cases := []struct {
		name string
		mod  func(b *Builder)
		want string
	}{
		{"no blocks", func(b *Builder) {}, "no blocks"},
		{"missing terminator", func(b *Builder) {
			b.Block("entry")
			b.Const("x", 1)
		}, "missing terminator"},
		{"terminator mid-block", func(b *Builder) {
			b.Block("entry")
			b.Ret()
			b.Const("x", 1)
			// The const after ret makes ret non-final and the block
			// unterminated.
		}, "not at block end"},
		{"bad branch target", func(b *Builder) {
			b.Block("entry")
			b.Br("nowhere")
		}, "does not exist"},
		{"undefined register", func(b *Builder) {
			b.Block("entry")
			b.Add("x", "y", 1)
			b.Ret()
		}, "never defined"},
		{"call arity", func(b *Builder) {
			b.Block("entry")
			b.Call(nil, "send", 1)
			b.Ret()
		}, "expects 3 args"},
		{"call result on void intrinsic", func(b *Builder) {
			b.Block("entry")
			b.Call("x", "halt")
			b.Ret()
		}, "has no result"},
		{"label outside call", func(b *Builder) {
			b.Block("entry")
			blk := b.Cur()
			blk.Instrs = append(blk.Instrs, &Instr{
				Op: OpMove, Dst: b.F.Reg("x"), Args: []Operand{Label("entry")}})
			b.Ret()
		}, "label operand outside call"},
		{"label to missing block", func(b *Builder) {
			b.Block("entry")
			b.Call(nil, "set_recovery", Label("ghost"))
			b.Ret()
		}, "names no block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := build(c.mod)
			if err == nil {
				t.Fatal("Verify accepted malformed function")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestVerifyProgramGlobals(t *testing.T) {
	p := NewProgram()
	p.Globals = append(p.Globals, Global{Name: "g", Size: 0})
	p.Globals = append(p.Globals, Global{Name: "g", Size: 4})
	err := Verify(p)
	if err == nil {
		t.Fatal("Verify accepted bad globals")
	}
	for _, want := range []string{"non-positive size", "duplicate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder("f")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("emit without block", func() { b.Const("x", 1) })
	b.Block("entry")
	mustPanic("bad operand type", func() { b.Move("x", 3.14) })
	mustPanic("bad dst type", func() { b.Move(12, "x") })
	mustPanic("non-binary op", func() { b.Bin(OpLoad, "x", "y", "z") })
}

func TestInstrString(t *testing.T) {
	f := NewFunction("f", "a")
	in := &Instr{Op: OpAdd, Dst: f.Reg("b"), Args: []Operand{R(f.Reg("a")), Imm(3)}}
	if got := in.String(f); got != "b = add a, 3" {
		t.Errorf("String = %q", got)
	}
}
