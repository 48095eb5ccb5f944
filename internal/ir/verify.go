package ir

import (
	"fmt"
	"sort"
)

// Verify checks structural well-formedness of a program:
//
//   - every block ends in exactly one terminator and terminators appear
//     only at block ends;
//   - branch targets name existing blocks;
//   - operand shapes match opcodes (arity, label operands only in calls);
//   - intrinsic calls match the registered signature when the intrinsic
//     is known (unknown callees are allowed: the interpreter rejects them
//     at run time, and tests exercise custom test-only intrinsics);
//   - every register read is reachable by some definition (a conservative
//     whole-function check, not a per-path dataflow).
//
// Verify returns all problems found, not just the first.
func Verify(p *Program) error {
	var errs []string
	seen := map[string]bool{}
	for _, g := range p.Globals {
		if g.Size <= 0 {
			errs = append(errs, fmt.Sprintf("global %s: non-positive size %d", g.Name, g.Size))
		}
		if seen[g.Name] {
			errs = append(errs, fmt.Sprintf("global %s: duplicate", g.Name))
		}
		seen[g.Name] = true
	}
	for _, f := range p.Funcs {
		verifyFunc(f, &errs)
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("ir verify: %d problem(s):\n  %s", len(errs), joinLines(errs))
}

func joinLines(errs []string) string {
	s := ""
	for i, e := range errs {
		if i > 0 {
			s += "\n  "
		}
		s += e
	}
	return s
}

func verifyFunc(f *Function, errs *[]string) {
	bad := func(format string, args ...any) {
		*errs = append(*errs, fmt.Sprintf("%s: ", f.Name)+fmt.Sprintf(format, args...))
	}
	if len(f.Blocks) == 0 {
		bad("no blocks")
		return
	}
	blocks := map[string]bool{}
	for _, b := range f.Blocks {
		if blocks[b.Name] {
			bad("block %s: duplicate name", b.Name)
		}
		blocks[b.Name] = true
	}

	defined := map[Reg]bool{}
	for _, r := range f.Params {
		defined[r] = true
	}
	// First pass: collect all definitions anywhere in the function.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != NoReg {
				defined[in.Dst] = true
			}
		}
	}

	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			bad("block %s: missing terminator", b.Name)
		}
		for i, in := range b.Instrs {
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				bad("block %s: terminator %s not at block end", b.Name, in.Op)
			}
			verifyInstr(f, b, in, blocks, defined, bad)
		}
	}
}

func verifyInstr(f *Function, b *Block, in *Instr, blocks map[string]bool,
	defined map[Reg]bool, bad func(string, ...any)) {

	arity := func(n int) {
		if len(in.Args) != n {
			bad("block %s: %s expects %d operands, has %d", b.Name, in.Op, n, len(in.Args))
		}
	}
	needDst := func(want bool) {
		if want && in.Dst == NoReg {
			bad("block %s: %s requires a destination", b.Name, in.Op)
		}
		if !want && in.Dst != NoReg {
			bad("block %s: %s cannot have a destination", b.Name, in.Op)
		}
	}
	for _, a := range in.Args {
		switch a.Kind {
		case KindReg:
			if int(a.Reg) < 0 || int(a.Reg) >= f.NumRegs() {
				bad("block %s: operand register %d out of range", b.Name, a.Reg)
			} else if !defined[a.Reg] {
				bad("block %s: register %s read but never defined", b.Name, f.RegName(a.Reg))
			}
		case KindLabel:
			if in.Op != OpCall {
				bad("block %s: label operand outside call", b.Name)
			} else if !blocks[a.Label] {
				bad("block %s: call label @%s names no block", b.Name, a.Label)
			}
		}
	}

	switch {
	case in.Op == OpConst:
		arity(0)
		needDst(true)
	case in.Op == OpMove:
		arity(1)
		needDst(true)
	case in.Op.IsBinOp() || in.Op.IsCmp():
		arity(2)
		needDst(true)
	case in.Op == OpLoad:
		arity(2)
		needDst(true)
		if len(in.Args) == 2 && in.Args[1].Kind != KindImm {
			bad("block %s: load offset must be immediate", b.Name)
		}
	case in.Op == OpStore:
		arity(3)
		needDst(false)
		if len(in.Args) == 3 && in.Args[2].Kind != KindImm {
			bad("block %s: store offset must be immediate", b.Name)
		}
	case in.Op == OpBr:
		arity(0)
		needDst(false)
		if !blocks[in.Then] {
			bad("block %s: br target %s does not exist", b.Name, in.Then)
		}
	case in.Op == OpCBr:
		arity(1)
		needDst(false)
		if !blocks[in.Then] {
			bad("block %s: cbr target %s does not exist", b.Name, in.Then)
		}
		if !blocks[in.Else] {
			bad("block %s: cbr target %s does not exist", b.Name, in.Else)
		}
	case in.Op == OpCall:
		if in.Callee == "" {
			bad("block %s: call with empty callee", b.Name)
		}
		if sig, ok := IntrinsicSig(in.Callee); ok {
			if sig.NArgs >= 0 && len(in.Args) != sig.NArgs {
				bad("block %s: call %s expects %d args, has %d",
					b.Name, in.Callee, sig.NArgs, len(in.Args))
			}
			if !sig.HasResult && in.Dst != NoReg {
				bad("block %s: call %s has no result", b.Name, in.Callee)
			}
		}
	case in.Op == OpRet:
		needDst(false)
	default:
		bad("block %s: invalid opcode %d", b.Name, int(in.Op))
	}
}
