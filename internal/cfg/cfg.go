// Package cfg computes control-flow graph structure over IR functions:
// predecessors and successors, reverse postorder, dominator trees
// (Cooper-Harvey-Kennedy iterative algorithm), natural loops and the
// loop-nest tree. These analyses feed the loop live-in analysis and the
// Spice transformation.
package cfg

import (
	"fmt"

	"spice/internal/ir"
)

// Graph is the CFG of one function with derived orderings.
type Graph struct {
	Fn *ir.Function
	// Blocks in function order; Index maps block name to position.
	Blocks []*ir.Block
	Index  map[string]int
	// Succs and Preds are adjacency lists by block index.
	Succs [][]int
	Preds [][]int
	// RPO is a reverse postorder over blocks reachable from entry;
	// RPONum[i] is block i's position in RPO (-1 when unreachable).
	RPO    []int
	RPONum []int
	// IDom[i] is the immediate dominator of block i (-1 for entry and
	// unreachable blocks).
	IDom []int
}

// New builds the CFG and dominator tree for f.
func New(f *ir.Function) (*Graph, error) {
	g := &Graph{
		Fn:     f,
		Blocks: f.Blocks,
		Index:  make(map[string]int, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		g.Index[b.Name] = i
	}
	g.Succs = make([][]int, len(f.Blocks))
	g.Preds = make([][]int, len(f.Blocks))
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			j, ok := g.Index[s]
			if !ok {
				return nil, fmt.Errorf("cfg: %s: branch to unknown block %q", f.Name, s)
			}
			g.Succs[i] = append(g.Succs[i], j)
			g.Preds[j] = append(g.Preds[j], i)
		}
	}
	g.computeRPO()
	g.computeDominators()
	return g, nil
}

// computeRPO fills RPO and RPONum via iterative DFS from the entry.
func (g *Graph) computeRPO() {
	n := len(g.Blocks)
	g.RPONum = make([]int, n)
	for i := range g.RPONum {
		g.RPONum[i] = -1
	}
	if n == 0 {
		return
	}
	visited := make([]bool, n)
	var post []int
	// Iterative DFS with an explicit stack of (node, nextSuccIdx).
	type frame struct{ node, next int }
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(g.Succs[top.node]) {
			s := g.Succs[top.node][top.next]
			top.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, top.node)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, len(post))
	for i := range post {
		g.RPO[i] = post[len(post)-1-i]
	}
	for i, b := range g.RPO {
		g.RPONum[b] = i
	}
}

// computeDominators runs the Cooper-Harvey-Kennedy iterative dominator
// algorithm over the reverse postorder.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.IDom = make([]int, n)
	for i := range g.IDom {
		g.IDom[i] = -1
	}
	if n == 0 {
		return
	}
	g.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range g.RPO {
			if b == 0 {
				continue
			}
			newIDom := -1
			for _, p := range g.Preds[b] {
				if g.IDom[p] == -1 && p != 0 {
					continue // not yet processed or unreachable
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = g.intersect(p, newIDom)
				}
			}
			if newIDom != -1 && g.IDom[b] != newIDom {
				g.IDom[b] = newIDom
				changed = true
			}
		}
	}
	g.IDom[0] = -1 // entry has no immediate dominator
}

func (g *Graph) intersect(a, b int) int {
	for a != b {
		for g.RPONum[a] > g.RPONum[b] {
			a = g.IDom[a]
		}
		for g.RPONum[b] > g.RPONum[a] {
			b = g.IDom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (both by index).
// Every block dominates itself.
func (g *Graph) Dominates(a, b int) bool {
	if g.RPONum[a] == -1 || g.RPONum[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return a == 0
		}
		b = g.IDom[b]
		if b == -1 {
			return false
		}
	}
}

// Reachable reports whether the block with the given index is reachable
// from the entry block.
func (g *Graph) Reachable(i int) bool { return g.RPONum[i] != -1 }

// Loop is a natural loop: a back edge (Latch -> Header) whose body is the
// set of blocks that can reach the latch without passing through the
// header.
type Loop struct {
	// Header and Latches are block indices. A loop may have several
	// latches (several back edges to the same header); they are merged
	// into one Loop.
	Header  int
	Latches []int
	// Body holds the indices of all blocks in the loop, including the
	// header, in ascending order. InBody is the membership set.
	Body   []int
	InBody map[int]bool
	// Exits are (from, to) pairs of block indices where from is in the
	// loop and to is not.
	Exits [][2]int
	// Parent is the innermost enclosing loop (nil for top level);
	// Children are directly nested loops.
	Parent   *Loop
	Children []*Loop
	// Depth is the nesting depth (1 for outermost loops).
	Depth int
}

// Loops finds all natural loops in g and links them into a loop-nest
// forest, returned as the list of outermost loops. All discovered loops
// (at any depth) are returned by AllLoops.
type Loops struct {
	G   *Graph
	All []*Loop
	Top []*Loop
	// ByHeader maps header block index to its loop.
	ByHeader map[int]*Loop
}

// FindLoops discovers natural loops using dominator-based back-edge
// detection and builds the loop-nest tree.
func FindLoops(g *Graph) *Loops {
	ls := &Loops{G: g, ByHeader: make(map[int]*Loop)}
	// A back edge is an edge u->h where h dominates u.
	for u := range g.Blocks {
		if !g.Reachable(u) {
			continue
		}
		for _, h := range g.Succs[u] {
			if !g.Dominates(h, u) {
				continue
			}
			loop := ls.ByHeader[h]
			if loop == nil {
				loop = &Loop{Header: h, InBody: map[int]bool{h: true}}
				ls.ByHeader[h] = loop
				ls.All = append(ls.All, loop)
			}
			loop.Latches = append(loop.Latches, u)
			// Collect body: reverse reachability from the latch,
			// stopping at the header.
			stack := []int{u}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if loop.InBody[b] {
					continue
				}
				loop.InBody[b] = true
				for _, p := range g.Preds[b] {
					if g.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, loop := range ls.All {
		for b := range loop.InBody {
			loop.Body = append(loop.Body, b)
		}
		sortInts(loop.Body)
		for _, b := range loop.Body {
			for _, s := range g.Succs[b] {
				if !loop.InBody[s] {
					loop.Exits = append(loop.Exits, [2]int{b, s})
				}
			}
		}
	}
	ls.buildNest()
	return ls
}

// buildNest links loops into parent/child relationships: loop A is the
// parent of loop B when A strictly contains B's header and no smaller
// loop does.
func (ls *Loops) buildNest() {
	for _, inner := range ls.All {
		var best *Loop
		for _, outer := range ls.All {
			if outer == inner || !outer.InBody[inner.Header] {
				continue
			}
			if len(outer.Body) == len(inner.Body) {
				continue // identical body cannot happen with distinct headers
			}
			if best == nil || len(outer.Body) < len(best.Body) {
				best = outer
			}
		}
		inner.Parent = best
		if best != nil {
			best.Children = append(best.Children, inner)
		} else {
			ls.Top = append(ls.Top, inner)
		}
	}
	var setDepth func(l *Loop, d int)
	setDepth = func(l *Loop, d int) {
		l.Depth = d
		for _, c := range l.Children {
			setDepth(c, d+1)
		}
	}
	for _, l := range ls.Top {
		setDepth(l, 1)
	}
}

// HeaderName returns the loop header's block name.
func (l *Loop) HeaderName(g *Graph) string { return g.Blocks[l.Header].Name }

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
