// Package reduction recognizes reduction patterns on loop-carried
// registers. Algorithm 1 in the paper removes reduction candidates from
// the set of live-ins that need value prediction: the parallel threads
// compute private partial results, initialized to the reduction identity,
// and the main thread merges them at invocation end (Figure 4 merges wm
// and cm after receiving thread 2's values).
//
// Two pattern families are recognized:
//
//   - arithmetic reductions: every in-loop definition of r has the form
//     r = op r, x (or r = op x, r) for a single associative op in
//     {add, mul, and, or, xor}, and r has no other in-loop use;
//   - min/max reductions with optional payload ("argmin"): every
//     definition of r is r = move x inside a block guarded by a compare
//     of x against r, and satellite registers updated only in the same
//     guarded blocks (cm in the paper's example) join the group.
package reduction

import (
	"fmt"

	"spice/internal/cfg"
	"spice/internal/ir"
	"spice/internal/loopinfo"
)

// Kind enumerates recognized reduction kinds.
type Kind int

// Reduction kinds.
const (
	Sum Kind = iota
	Product
	BitAnd
	BitOr
	BitXor
	Min
	Max
)

var kindNames = [...]string{"sum", "product", "and", "or", "xor", "min", "max"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Identity returns the identity element used to initialize private
// accumulators in speculative threads.
func (k Kind) Identity() int64 {
	switch k {
	case Sum, BitOr, BitXor:
		return 0
	case Product:
		return 1
	case BitAnd:
		return -1
	case Min:
		return int64(^uint64(0) >> 1) // MaxInt64
	case Max:
		return -int64(^uint64(0)>>1) - 1 // MinInt64
	default:
		return 0
	}
}

// MergeOp returns the IR opcode that merges two partial accumulators for
// arithmetic reductions; ok is false for min/max, which merge via a
// guarded move.
func (k Kind) MergeOp() (ir.Op, bool) {
	switch k {
	case Sum:
		return ir.OpAdd, true
	case Product:
		return ir.OpMul, true
	case BitAnd:
		return ir.OpAnd, true
	case BitOr:
		return ir.OpOr, true
	case BitXor:
		return ir.OpXor, true
	default:
		return ir.OpInvalid, false
	}
}

// Group is one recognized reduction: an accumulator register plus, for
// min/max, satellite payload registers that must be merged together with
// it (the paper's cm travels with wm).
type Group struct {
	Kind    Kind
	Reg     ir.Reg
	Payload []ir.Reg
}

// Regs returns the accumulator and payload registers.
func (g Group) Regs() []ir.Reg {
	out := []ir.Reg{g.Reg}
	return append(out, g.Payload...)
}

// Find recognizes reduction groups among the loop's carried live-ins.
// Registers claimed by a group are excluded from later groups.
func Find(g *cfg.Graph, info *loopinfo.Info) []Group {
	var groups []Group
	claimed := map[ir.Reg]bool{}
	for _, r := range info.Carried {
		if claimed[r] {
			continue
		}
		if grp, ok := arithReduction(g, info, r); ok {
			groups = append(groups, grp)
			claimed[r] = true
			continue
		}
		if grp, ok := minMaxReduction(g, info, r, claimed); ok {
			groups = append(groups, grp)
			for _, pr := range grp.Regs() {
				claimed[pr] = true
			}
		}
	}
	return groups
}

// arithOpKind maps an associative opcode to its reduction kind.
func arithOpKind(op ir.Op) (Kind, bool) {
	switch op {
	case ir.OpAdd:
		return Sum, true
	case ir.OpMul:
		return Product, true
	case ir.OpAnd:
		return BitAnd, true
	case ir.OpOr:
		return BitOr, true
	case ir.OpXor:
		return BitXor, true
	default:
		return 0, false
	}
}

// inLoopSites returns the (block, instr) positions of r's in-loop defs
// and the operand positions of r's in-loop uses.
func inLoopSites(g *cfg.Graph, info *loopinfo.Info, r ir.Reg) (defs []*ir.Instr, uses []*ir.Instr) {
	for _, bi := range info.Loop.Body {
		for _, in := range g.Blocks[bi].Instrs {
			if in.Dst == r {
				defs = append(defs, in)
			}
			for _, u := range in.UsedRegs() {
				if u == r {
					uses = append(uses, in)
					break
				}
			}
		}
	}
	return defs, uses
}

func arithReduction(g *cfg.Graph, info *loopinfo.Info, r ir.Reg) (Group, bool) {
	defs, uses := inLoopSites(g, info, r)
	if len(defs) == 0 {
		return Group{}, false
	}
	var kind Kind
	for i, in := range defs {
		k, ok := arithOpKind(in.Op)
		if !ok || len(in.Args) != 2 {
			return Group{}, false
		}
		// r must be one operand; the other must not be r itself.
		a, b := in.Args[0], in.Args[1]
		aIsR := a.Kind == ir.KindReg && a.Reg == r
		bIsR := b.Kind == ir.KindReg && b.Reg == r
		if aIsR == bIsR { // neither or both
			return Group{}, false
		}
		if i == 0 {
			kind = k
		} else if kind != k {
			return Group{}, false
		}
	}
	// Every in-loop use of r must be one of the accumulating defs.
	for _, u := range uses {
		found := false
		for _, d := range defs {
			if u == d {
				found = true
				break
			}
		}
		if !found {
			return Group{}, false
		}
	}
	return Group{Kind: kind, Reg: r}, true
}

// minMaxReduction matches the guarded-move pattern:
//
//	P:  c = cmplt x, r      (or cmple / cmpgt / cmpge, either arg order)
//	    cbr c, D, E
//	D:  r = move x
//	    [payload = move y]...
//	    br ...
//
// where D's only in-loop predecessor is P and all in-loop uses of r are
// the guard compares.
func minMaxReduction(g *cfg.Graph, info *loopinfo.Info, r ir.Reg, claimed map[ir.Reg]bool) (Group, bool) {
	defs, uses := inLoopSites(g, info, r)
	if len(defs) == 0 {
		return Group{}, false
	}
	var kind Kind
	guardCompares := map[*ir.Instr]bool{}
	updateBlocks := map[int]bool{}

	for di, def := range defs {
		if def.Op != ir.OpMove || def.Args[0].Kind != ir.KindReg {
			return Group{}, false
		}
		x := def.Args[0].Reg
		// Find the block holding this def.
		dbi := -1
		for _, bi := range info.Loop.Body {
			for _, in := range g.Blocks[bi].Instrs {
				if in == def {
					dbi = bi
				}
			}
		}
		if dbi == -1 {
			return Group{}, false
		}
		// Unique in-loop predecessor ending in cbr into this block.
		var preds []int
		for _, p := range g.Preds[dbi] {
			if info.Loop.InBody[p] {
				preds = append(preds, p)
			}
		}
		if len(preds) != 1 {
			return Group{}, false
		}
		pb := g.Blocks[preds[0]]
		term := pb.Terminator()
		if term == nil || term.Op != ir.OpCBr || term.Args[0].Kind != ir.KindReg {
			return Group{}, false
		}
		onTrue := term.Then == g.Blocks[dbi].Name
		if !onTrue && term.Else != g.Blocks[dbi].Name {
			return Group{}, false
		}
		// The guard condition must be a compare of x against r defined
		// in the predecessor block.
		var cmp *ir.Instr
		for _, in := range pb.Instrs {
			if in.Dst == term.Args[0].Reg {
				cmp = in
			}
		}
		if cmp == nil || !cmp.Op.IsCmp() || len(cmp.Args) != 2 {
			return Group{}, false
		}
		k, ok := classifyGuard(cmp, x, r, onTrue)
		if !ok {
			return Group{}, false
		}
		if di == 0 {
			kind = k
		} else if kind != k {
			return Group{}, false
		}
		guardCompares[cmp] = true
		updateBlocks[dbi] = true
	}

	// All in-loop uses of r must be guard compares.
	for _, u := range uses {
		if !guardCompares[u] {
			return Group{}, false
		}
	}

	grp := Group{Kind: kind, Reg: r}
	// Payload: other carried registers defined only by moves inside the
	// update blocks and never read inside the loop.
	for _, p := range info.Carried {
		if p == r || claimed[p] {
			continue
		}
		pdefs, puses := inLoopSites(g, info, p)
		if len(pdefs) == 0 || len(puses) != 0 {
			continue
		}
		allInUpdate := true
		for _, pd := range pdefs {
			if pd.Op != ir.OpMove {
				allInUpdate = false
				break
			}
			in := false
			for bi := range updateBlocks {
				for _, candidate := range g.Blocks[bi].Instrs {
					if candidate == pd {
						in = true
					}
				}
			}
			if !in {
				allInUpdate = false
				break
			}
		}
		if allInUpdate {
			grp.Payload = append(grp.Payload, p)
		}
	}
	return grp, true
}

// classifyGuard decides Min vs Max for guard compare cmp controlling an
// update "r = move x" taken on branch truth onTrue.
func classifyGuard(cmp *ir.Instr, x, r ir.Reg, onTrue bool) (Kind, bool) {
	a, b := cmp.Args[0], cmp.Args[1]
	if a.Kind != ir.KindReg || b.Kind != ir.KindReg {
		return 0, false
	}
	var op ir.Op
	switch {
	case a.Reg == x && b.Reg == r:
		op = cmp.Op
	case a.Reg == r && b.Reg == x:
		op = swapCmp(cmp.Op)
	default:
		return 0, false
	}
	if !onTrue {
		op = negateCmp(op)
	}
	// Update happens when (x op r) is true.
	switch op {
	case ir.OpCmpLT, ir.OpCmpLE:
		return Min, true
	case ir.OpCmpGT, ir.OpCmpGE:
		return Max, true
	default:
		return 0, false
	}
}

func swapCmp(op ir.Op) ir.Op {
	switch op {
	case ir.OpCmpLT:
		return ir.OpCmpGT
	case ir.OpCmpLE:
		return ir.OpCmpGE
	case ir.OpCmpGT:
		return ir.OpCmpLT
	case ir.OpCmpGE:
		return ir.OpCmpLE
	default:
		return op
	}
}

func negateCmp(op ir.Op) ir.Op {
	switch op {
	case ir.OpCmpLT:
		return ir.OpCmpGE
	case ir.OpCmpLE:
		return ir.OpCmpGT
	case ir.OpCmpGT:
		return ir.OpCmpLE
	case ir.OpCmpGE:
		return ir.OpCmpLT
	case ir.OpCmpEQ:
		return ir.OpCmpNE
	case ir.OpCmpNE:
		return ir.OpCmpEQ
	default:
		return op
	}
}
