// Package ir defines the intermediate representation used by the Spice
// research compiler.
//
// The IR is a low-level, word-oriented register language: all values are
// 64-bit integers, memory is an array of 64-bit words addressed by word
// index, and control flow is explicit between named basic blocks. It is
// deliberately close to the "low level intermediate representation" the
// paper applies the Spice transformation to (Section 5): registers, loads
// and stores, compares, branches, and calls to runtime intrinsics such as
// send/recv, SVA access, speculation control and resteer.
//
// A Program holds named global memory regions and a set of Functions.
// Functions hold parameters, named virtual registers and basic Blocks.
// Every Block must end in exactly one terminator (br, cbr or ret).
package ir

import (
	"fmt"
	"strings"
)

// Reg identifies a virtual register within a Function. Registers are
// function-scoped; Reg values index into the function's register table.
type Reg int

// NoReg marks "no destination register".
const NoReg Reg = -1

// Op enumerates IR instruction opcodes.
type Op int

// Instruction opcodes. Binary operations take two operands; compares
// produce 0 or 1. Load/Store address memory at base+offset words.
const (
	OpInvalid Op = iota

	OpConst // dst = const imm
	OpMove  // dst = move a

	OpAdd // dst = add a, b
	OpSub // dst = sub a, b
	OpMul // dst = mul a, b
	OpDiv // dst = div a, b  (quotient; div by zero traps)
	OpRem // dst = rem a, b
	OpAnd // dst = and a, b
	OpOr  // dst = or a, b
	OpXor // dst = xor a, b
	OpShl // dst = shl a, b
	OpShr // dst = shr a, b  (arithmetic)

	OpCmpEQ // dst = cmpeq a, b
	OpCmpNE // dst = cmpne a, b
	OpCmpLT // dst = cmplt a, b  (signed)
	OpCmpLE // dst = cmple a, b
	OpCmpGT // dst = cmpgt a, b
	OpCmpGE // dst = cmpge a, b

	OpLoad  // dst = load base, off
	OpStore // store val, base, off

	OpBr   // br target
	OpCBr  // cbr cond, then, else
	OpCall // [dst =] call name(args...)
	OpRet  // ret [operands...]
)

var opNames = map[Op]string{
	OpConst: "const", OpMove: "move",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne", OpCmpLT: "cmplt",
	OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpLoad: "load", OpStore: "store",
	OpBr: "br", OpCBr: "cbr", OpCall: "call", OpRet: "ret",
}

// String returns the textual mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpByName maps a mnemonic back to its opcode; ok is false for unknown
// mnemonics.
func OpByName(name string) (Op, bool) {
	for op, s := range opNames {
		if s == name {
			return op, true
		}
	}
	return OpInvalid, false
}

// IsBinOp reports whether the opcode is a two-operand arithmetic or
// logical operation (excluding compares).
func (o Op) IsBinOp() bool { return o >= OpAdd && o <= OpShr }

// IsCmp reports whether the opcode is a comparison producing 0 or 1.
func (o Op) IsCmp() bool { return o >= OpCmpEQ && o <= OpCmpGE }

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCBr || o == OpRet }

// OperandKind distinguishes the three operand forms.
type OperandKind int

// Operand kinds.
const (
	KindReg   OperandKind = iota // a virtual register
	KindImm                      // an integer immediate
	KindLabel                    // a block label (call arguments only)
)

// Operand is a register, an immediate, or (in call arguments only) a block
// label used to hand a code location to the runtime (e.g. set_recovery).
type Operand struct {
	Kind  OperandKind
	Reg   Reg
	Imm   int64
	Label string
}

// R constructs a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// Imm constructs an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// Label constructs a label operand for call arguments.
func Label(name string) Operand { return Operand{Kind: KindLabel, Label: name} }

// Instr is a single IR instruction. Fields are used depending on Op:
//
//   - Dst: destination register (NoReg when none)
//   - Args: operands (register/immediate; labels only under OpCall)
//   - Imm: constant payload for OpConst
//   - Callee: intrinsic name for OpCall
//   - Then, Else: branch target block names (OpBr uses Then only)
type Instr struct {
	Op     Op
	Dst    Reg
	Args   []Operand
	Imm    int64
	Callee string
	Then   string
	Else   string
}

// Block is a basic block: a named straight-line instruction sequence
// ending in a single terminator.
type Block struct {
	Name   string
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil when the block
// is empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the names of the blocks this block can branch to.
func (b *Block) Succs() []string {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []string{t.Then}
	case OpCBr:
		if t.Then == t.Else {
			return []string{t.Then}
		}
		return []string{t.Then, t.Else}
	default:
		return nil
	}
}

// Function is a procedure: parameters, a register table, and basic blocks.
// Blocks[0] is the entry block.
type Function struct {
	Name     string
	Params   []Reg
	Blocks   []*Block
	regNames []string
	regIndex map[string]Reg
}

// NewFunction creates an empty function with the given parameter names.
func NewFunction(name string, params ...string) *Function {
	f := &Function{Name: name, regIndex: make(map[string]Reg)}
	for _, p := range params {
		f.Params = append(f.Params, f.Reg(p))
	}
	return f
}

// Reg returns the register named s, creating it if needed.
func (f *Function) Reg(s string) Reg {
	if r, ok := f.regIndex[s]; ok {
		return r
	}
	r := Reg(len(f.regNames))
	f.regNames = append(f.regNames, s)
	f.regIndex[s] = r
	return r
}

// RegName returns the name of register r.
func (f *Function) RegName(r Reg) string {
	if r == NoReg {
		return "_"
	}
	return f.regNames[r]
}

// NumRegs returns the number of registers in the function's table.
func (f *Function) NumRegs() int { return len(f.regNames) }

// FreshReg creates a new register with a unique name derived from prefix.
func (f *Function) FreshReg(prefix string) Reg {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s.%d", prefix, i)
		if _, ok := f.regIndex[name]; !ok {
			return f.Reg(name)
		}
	}
}

// AddBlock appends a new empty block with the given name. Names must be
// unique within the function; AddBlock panics on duplicates since that is
// a programming error in IR construction.
func (f *Function) AddBlock(name string) *Block {
	if f.FindBlock(name) != nil {
		panic(fmt.Sprintf("ir: duplicate block %q in %s", name, f.Name))
	}
	b := &Block{Name: name}
	f.Blocks = append(f.Blocks, b)
	return b
}

// FindBlock returns the block with the given name, or nil.
func (f *Function) FindBlock(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Entry returns the entry block (the first block), or nil for an empty
// function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Global is a named global memory region of Size words, zero-initialized
// at load time. The loader assigns each global a base address.
type Global struct {
	Name string
	Size int64
}

// Program is a compilation unit: globals plus functions. Functions appear
// in declaration order; Funcs maps names for lookup.
type Program struct {
	Globals []Global
	Funcs   []*Function
	byName  map[string]*Function
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{byName: make(map[string]*Function)}
}

// AddGlobal declares a global region; it panics on duplicate names.
func (p *Program) AddGlobal(name string, size int64) {
	for _, g := range p.Globals {
		if g.Name == name {
			panic(fmt.Sprintf("ir: duplicate global %q", name))
		}
	}
	p.Globals = append(p.Globals, Global{Name: name, Size: size})
}

// AddFunc adds a function to the program; it panics on duplicate names.
func (p *Program) AddFunc(f *Function) {
	if p.byName == nil {
		p.byName = make(map[string]*Function)
	}
	if _, ok := p.byName[f.Name]; ok {
		panic(fmt.Sprintf("ir: duplicate function %q", f.Name))
	}
	p.Funcs = append(p.Funcs, f)
	p.byName[f.Name] = f
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	if p.byName == nil {
		return nil
	}
	return p.byName[name]
}

// Clone returns a deep copy of the function under a new name. Register
// numbering and block order are preserved.
func (f *Function) Clone(newName string) *Function {
	g := &Function{
		Name:     newName,
		Params:   append([]Reg(nil), f.Params...),
		regNames: append([]string(nil), f.regNames...),
		regIndex: make(map[string]Reg, len(f.regIndex)),
	}
	for name, r := range f.regIndex {
		g.regIndex[name] = r
	}
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name}
		for _, in := range b.Instrs {
			ci := *in
			ci.Args = append([]Operand(nil), in.Args...)
			nb.Instrs = append(nb.Instrs, &ci)
		}
		g.Blocks = append(g.Blocks, nb)
	}
	return g
}

// UsedRegs returns the registers read by the instruction.
func (in *Instr) UsedRegs() []Reg {
	var out []Reg
	for _, a := range in.Args {
		if a.Kind == KindReg {
			out = append(out, a.Reg)
		}
	}
	return out
}

// String renders a single instruction (without trailing newline) for
// debugging; names are resolved against f.
func (in *Instr) String(f *Function) string {
	var sb strings.Builder
	writeInstr(&sb, f, in)
	return sb.String()
}
