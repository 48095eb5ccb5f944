// Package dataflow implements register liveness over the IR, a classic
// backward dataflow analysis. The Spice transformation uses it to
// compute loop live-ins and live-outs (Algorithm 1 steps 2 and 6).
package dataflow

import (
	"spice/internal/cfg"
	"spice/internal/ir"
)

// RegSet is a bitset over a function's registers.
type RegSet []uint64

// NewRegSet returns an empty set sized for n registers.
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports membership of r.
func (s RegSet) Has(r ir.Reg) bool {
	if r < 0 {
		return false
	}
	return s[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r and reports whether the set changed.
func (s RegSet) Add(r ir.Reg) bool {
	if r < 0 {
		return false
	}
	w, b := int(r)/64, uint(r)%64
	old := s[w]
	s[w] = old | 1<<b
	return s[w] != old
}

// Remove deletes r from the set.
func (s RegSet) Remove(r ir.Reg) {
	if r < 0 {
		return
	}
	s[int(r)/64] &^= 1 << (uint(r) % 64)
}

// UnionInto ors other into s and reports whether s changed.
func (s RegSet) UnionInto(other RegSet) bool {
	changed := false
	for i := range s {
		old := s[i]
		s[i] = old | other[i]
		if s[i] != old {
			changed = true
		}
	}
	return changed
}

// Clone returns a copy of the set.
func (s RegSet) Clone() RegSet {
	c := make(RegSet, len(s))
	copy(c, s)
	return c
}

// Members returns the registers in the set in ascending order.
func (s RegSet) Members() []ir.Reg {
	var out []ir.Reg
	for w, bits := range s {
		for bits != 0 {
			b := bits & -bits
			idx := 0
			for bb := b; bb != 1; bb >>= 1 {
				idx++
			}
			out = append(out, ir.Reg(w*64+idx))
			bits &^= b
		}
	}
	return out
}

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Liveness holds per-block live-in and live-out register sets.
type Liveness struct {
	G *cfg.Graph
	// In[i] and Out[i] are live registers at entry/exit of block i.
	In  []RegSet
	Out []RegSet
	// Use[i] holds registers read before any write in block i; Def[i]
	// holds registers written in block i.
	Use []RegSet
	Def []RegSet
}

// ComputeLiveness runs backward iterative liveness to a fixed point.
func ComputeLiveness(g *cfg.Graph) *Liveness {
	n := len(g.Blocks)
	nr := g.Fn.NumRegs()
	lv := &Liveness{
		G:   g,
		In:  make([]RegSet, n),
		Out: make([]RegSet, n),
		Use: make([]RegSet, n),
		Def: make([]RegSet, n),
	}
	for i, b := range g.Blocks {
		lv.In[i] = NewRegSet(nr)
		lv.Out[i] = NewRegSet(nr)
		use, def := NewRegSet(nr), NewRegSet(nr)
		for _, in := range b.Instrs {
			for _, r := range in.UsedRegs() {
				if !def.Has(r) {
					use.Add(r)
				}
			}
			if in.Dst != ir.NoReg {
				def.Add(in.Dst)
			}
		}
		lv.Use[i], lv.Def[i] = use, def
	}
	// Iterate to fixed point, processing blocks in reverse RPO for
	// fast convergence on reducible graphs.
	order := make([]int, 0, n)
	for i := len(g.RPO) - 1; i >= 0; i-- {
		order = append(order, g.RPO[i])
	}
	for i := 0; i < n; i++ {
		if g.RPONum[i] == -1 {
			order = append(order, i) // include unreachable blocks
		}
	}
	for changed := true; changed; {
		changed = false
		for _, i := range order {
			out := lv.Out[i]
			for _, s := range g.Succs[i] {
				if out.UnionInto(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			newIn := out.Clone()
			for _, r := range lv.Def[i].Members() {
				newIn.Remove(r)
			}
			newIn.UnionInto(lv.Use[i])
			if lv.In[i].UnionInto(newIn) {
				changed = true
			}
		}
	}
	return lv
}
