package ir

import "fmt"

// Builder provides a fluent API for constructing a Function block by
// block. The Spice transformation (core.Transform) builds the worker
// functions with it; the workload kernels are written as IR text and
// parsed by irparse.
//
// All emit methods append to the current block, set with SetBlock or the
// Block helper. Operands are given as Go values: a string names a
// register, an int/int64 is an immediate, and an Operand passes through.
type Builder struct {
	F   *Function
	cur *Block
}

// NewBuilder creates a function and a builder positioned at no block.
func NewBuilder(name string, params ...string) *Builder {
	return &Builder{F: NewFunction(name, params...)}
}

// Block creates a new block with the given name and makes it current.
func (b *Builder) Block(name string) *Block {
	blk := b.F.AddBlock(name)
	b.cur = blk
	return blk
}

// SetBlock repositions the builder at an existing block.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Cur returns the block instructions are currently appended to.
func (b *Builder) Cur() *Block { return b.cur }

// operand coerces a Go value into an Operand.
func (b *Builder) operand(v any) Operand {
	switch x := v.(type) {
	case Operand:
		return x
	case Reg:
		return R(x)
	case string:
		return R(b.F.Reg(x))
	case int:
		return Imm(int64(x))
	case int64:
		return Imm(x)
	default:
		panic(fmt.Sprintf("ir: bad operand %T", v))
	}
}

// dst coerces a Go value into a destination register.
func (b *Builder) dst(v any) Reg {
	switch x := v.(type) {
	case Reg:
		return x
	case string:
		return b.F.Reg(x)
	default:
		panic(fmt.Sprintf("ir: bad destination %T", v))
	}
}

func (b *Builder) emit(in *Instr) *Instr {
	if b.cur == nil {
		panic("ir: builder has no current block")
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

// Const emits dst = const imm and returns the destination register.
func (b *Builder) Const(dst any, imm int64) Reg {
	d := b.dst(dst)
	b.emit(&Instr{Op: OpConst, Dst: d, Imm: imm})
	return d
}

// Move emits dst = move src.
func (b *Builder) Move(dst, src any) Reg {
	d := b.dst(dst)
	b.emit(&Instr{Op: OpMove, Dst: d, Args: []Operand{b.operand(src)}})
	return d
}

// Bin emits a binary operation dst = op a, b.
func (b *Builder) Bin(op Op, dst, a, c any) Reg {
	if !op.IsBinOp() && !op.IsCmp() {
		panic(fmt.Sprintf("ir: %v is not a binary op", op))
	}
	d := b.dst(dst)
	b.emit(&Instr{Op: op, Dst: d, Args: []Operand{b.operand(a), b.operand(c)}})
	return d
}

// Add emits dst = a + b. The remaining arithmetic helpers are analogous.
func (b *Builder) Add(dst, a, c any) Reg { return b.Bin(OpAdd, dst, a, c) }

// Sub emits dst = a - b.
func (b *Builder) Sub(dst, a, c any) Reg { return b.Bin(OpSub, dst, a, c) }

// And emits dst = a & b.
func (b *Builder) And(dst, a, c any) Reg { return b.Bin(OpAnd, dst, a, c) }

// Or emits dst = a | b.
func (b *Builder) Or(dst, a, c any) Reg { return b.Bin(OpOr, dst, a, c) }

// CmpEQ emits dst = (a == b). The remaining compare helpers are analogous.
func (b *Builder) CmpEQ(dst, a, c any) Reg { return b.Bin(OpCmpEQ, dst, a, c) }

// CmpLT emits dst = (a < b), signed.
func (b *Builder) CmpLT(dst, a, c any) Reg { return b.Bin(OpCmpLT, dst, a, c) }

// CmpGT emits dst = (a > b), signed.
func (b *Builder) CmpGT(dst, a, c any) Reg { return b.Bin(OpCmpGT, dst, a, c) }

// Load emits dst = load base, off (memory word at base+off).
func (b *Builder) Load(dst, base any, off int64) Reg {
	d := b.dst(dst)
	b.emit(&Instr{Op: OpLoad, Dst: d, Args: []Operand{b.operand(base), Imm(off)}})
	return d
}

// Store emits store val, base, off.
func (b *Builder) Store(val, base any, off int64) {
	b.emit(&Instr{Op: OpStore, Dst: NoReg,
		Args: []Operand{b.operand(val), b.operand(base), Imm(off)}})
}

// Br emits an unconditional branch to the named block.
func (b *Builder) Br(target string) {
	b.emit(&Instr{Op: OpBr, Dst: NoReg, Then: target})
}

// CBr emits a conditional branch: if cond != 0 goto then else goto els.
func (b *Builder) CBr(cond any, then, els string) {
	b.emit(&Instr{Op: OpCBr, Dst: NoReg, Args: []Operand{b.operand(cond)}, Then: then, Else: els})
}

// Call emits [dst =] call name(args...). Pass nil dst for a void call.
func (b *Builder) Call(dst any, name string, args ...any) Reg {
	d := NoReg
	if dst != nil {
		d = b.dst(dst)
	}
	ops := make([]Operand, len(args))
	for i, a := range args {
		ops[i] = b.operand(a)
	}
	b.emit(&Instr{Op: OpCall, Dst: d, Callee: name, Args: ops})
	return d
}

// Ret emits a return with the given operands.
func (b *Builder) Ret(args ...any) {
	ops := make([]Operand, len(args))
	for i, a := range args {
		ops[i] = b.operand(a)
	}
	b.emit(&Instr{Op: OpRet, Dst: NoReg, Args: ops})
}
