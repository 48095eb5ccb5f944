// Package loopinfo analyzes individual loops: loop live-ins partitioned
// into invariant and inter-iteration (loop-carried) sets, loop live-outs,
// induction variables and exit structure. This is the analysis side of
// Algorithm 1 in the paper ("Compute inter-iteration live-ins Liveins").
package loopinfo

import (
	"fmt"

	"spice/internal/cfg"
	"spice/internal/dataflow"
	"spice/internal/ir"
)

// Info summarizes one loop of one function.
type Info struct {
	G    *cfg.Graph
	Loop *cfg.Loop

	// HeaderLiveIns: registers live at the loop header.
	HeaderLiveIns []ir.Reg
	// Carried: registers live at the header that are (re)defined inside
	// the loop — the inter-iteration live-ins that create loop-carried
	// register dependences. These are the prediction candidates.
	Carried []ir.Reg
	// Invariant: registers live into the loop but never defined inside
	// it. They are communicated to the speculative threads once per
	// invocation (no prediction needed).
	Invariant []ir.Reg
	// LiveOuts: registers defined inside the loop that are live at some
	// loop exit target.
	LiveOuts []ir.Reg
	// Inductions: carried registers whose only in-loop definitions have
	// the shape r = r + c with loop-invariant c.
	Inductions []Induction
	// ExitBlocks: blocks outside the loop that loop exits branch to.
	ExitBlocks []int
	// Preheader: the unique out-of-loop predecessor of the header, or -1
	// when the header has zero or multiple out-of-loop predecessors.
	Preheader int
}

// Induction describes one detected basic induction variable.
type Induction struct {
	Reg  ir.Reg
	Step int64 // valid when StepIsConst
	// StepIsConst distinguishes r += 4 from r += invariantReg.
	StepIsConst bool
	StepReg     ir.Reg
}

// Analyze computes loop information for the given loop.
func Analyze(g *cfg.Graph, lv *dataflow.Liveness, loop *cfg.Loop) *Info {
	info := &Info{G: g, Loop: loop, Preheader: -1}

	liveAtHeader := lv.In[loop.Header]
	definedInLoop := dataflow.NewRegSet(g.Fn.NumRegs())
	for _, bi := range loop.Body {
		for _, in := range g.Blocks[bi].Instrs {
			if in.Dst != ir.NoReg {
				definedInLoop.Add(in.Dst)
			}
		}
	}
	usedInLoop := dataflow.NewRegSet(g.Fn.NumRegs())
	for _, bi := range loop.Body {
		for _, in := range g.Blocks[bi].Instrs {
			for _, r := range in.UsedRegs() {
				usedInLoop.Add(r)
			}
		}
	}

	for _, r := range liveAtHeader.Members() {
		info.HeaderLiveIns = append(info.HeaderLiveIns, r)
		if definedInLoop.Has(r) {
			info.Carried = append(info.Carried, r)
		} else {
			info.Invariant = append(info.Invariant, r)
		}
	}
	// Registers used in the loop but not live at the header and not
	// defined inside are also invariant inputs (used only after a
	// redefinition-free path from outside — conservative union).
	for _, r := range usedInLoop.Members() {
		if !definedInLoop.Has(r) && !liveAtHeader.Has(r) {
			info.Invariant = append(info.Invariant, r)
		}
	}

	// Live-outs: defined in loop, live at an exit target's entry.
	seenExit := map[int]bool{}
	liveOut := dataflow.NewRegSet(g.Fn.NumRegs())
	for _, e := range loop.Exits {
		to := e[1]
		if !seenExit[to] {
			seenExit[to] = true
			info.ExitBlocks = append(info.ExitBlocks, to)
		}
		for _, r := range lv.In[to].Members() {
			if definedInLoop.Has(r) {
				liveOut.Add(r)
			}
		}
	}
	info.LiveOuts = liveOut.Members()

	info.findInductions(definedInLoop)
	info.findPreheader()
	return info
}

// findInductions detects carried registers whose only in-loop defs are
// r = add r, step (or r = sub r, step) with an invariant step.
func (info *Info) findInductions(definedInLoop dataflow.RegSet) {
	g := info.G
	for _, r := range info.Carried {
		var defs []*ir.Instr
		for _, bi := range info.Loop.Body {
			for _, in := range g.Blocks[bi].Instrs {
				if in.Dst == r {
					defs = append(defs, in)
				}
			}
		}
		if len(defs) != 1 {
			continue
		}
		in := defs[0]
		if in.Op != ir.OpAdd && in.Op != ir.OpSub {
			continue
		}
		if len(in.Args) != 2 || in.Args[0].Kind != ir.KindReg || in.Args[0].Reg != r {
			continue
		}
		step := in.Args[1]
		ind := Induction{Reg: r}
		switch step.Kind {
		case ir.KindImm:
			ind.StepIsConst = true
			ind.Step = step.Imm
			if in.Op == ir.OpSub {
				ind.Step = -ind.Step
			}
		case ir.KindReg:
			if definedInLoop.Has(step.Reg) {
				continue // step changes inside the loop: not a basic IV
			}
			ind.StepReg = step.Reg
		default:
			continue
		}
		info.Inductions = append(info.Inductions, ind)
	}
}

// findPreheader locates the unique out-of-loop predecessor of the header.
func (info *Info) findPreheader() {
	g, loop := info.G, info.Loop
	cands := []int{}
	for _, p := range g.Preds[loop.Header] {
		if !loop.InBody[p] {
			cands = append(cands, p)
		}
	}
	if len(cands) == 1 {
		info.Preheader = cands[0]
	}
}

// String renders a human-readable analysis report, used by cmd/spicec.
func (info *Info) String() string {
	f := info.G.Fn
	names := func(rs []ir.Reg) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = f.RegName(r)
		}
		return out
	}
	return fmt.Sprintf(
		"loop header=%s depth=%d blocks=%d\n  carried live-ins: %v\n  invariant live-ins: %v\n  live-outs: %v\n  inductions: %d\n",
		info.Loop.HeaderName(info.G), info.Loop.Depth, len(info.Loop.Body),
		names(info.Carried), names(info.Invariant), names(info.LiveOuts),
		len(info.Inductions))
}
