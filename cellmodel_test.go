package spice

// Model-based test of CellView: byte scripts of Load/Store/Reduce (and
// folds through the Accumulators slice) over the views of one dispatch
// round, replayed against a map-based model of the same round —
// forwarding, read-set, write-set, accumulators, which view each commit
// finds in conflict first, and the store after committing a prefix and
// squashing the rest. The store sizes put cells on both sides of every
// block edge (a partial last block, whole blocks, the whole-block copy of
// the commit), and the views are re-armed round after round — after a
// commit, after a squash, and after re-binding to a smaller and then a
// larger store — so anything an arm leaves behind shows up as a
// divergence from the model.

import (
	"math/rand"
	"slices"
	"testing"
)

// modelSizes are the store sizes a script chooses from.
var modelSizes = [...]int{0, 1, 63, 64, 65, 127, 4096 + 5}

// modelView is the reference for one buffered view.
type modelView struct {
	writes map[int]int64
	reads  map[int]bool
	racc   []int64
}

// script hands out a fuzz input byte by byte; an exhausted script reads
// as zeros and reports done.
type script struct {
	data []byte
	off  int
}

func (s *script) done() bool { return s.off >= len(s.data) }

func (s *script) next() int {
	if s.done() {
		return 0
	}
	s.off++
	return int(s.data[s.off-1])
}

// modelStore is one bound store, its model, and its reduction
// declarations: stores of at least eight cells reserve cells 0 and 1
// for a Sum and a Max (or a second Sum, which takes Reduce's inline
// path), smaller ones declare none.
type modelStore struct {
	cells *Cells
	model []int64
	reds  []Reduction
	data0 int // first cell Load and Store may touch
}

func newModelStore(size int, allSum bool, rng *rand.Rand) *modelStore {
	m := &modelStore{cells: NewCells(size), model: make([]int64, size)}
	if size >= 8 {
		second := ReduceMax
		if allSum {
			second = ReduceSum
		}
		m.reds = []Reduction{{Cell: 0, Kind: ReduceSum}, {Cell: 1, Kind: second}}
		m.data0 = 2
	}
	for i := range m.model {
		x := rng.Int63n(1000)
		m.model[i] = x
		m.cells.Set(i, x)
	}
	return m
}

// runViewScript interprets data against views and model at once and
// fails on the first divergence.
func runViewScript(t *testing.T, data []byte) {
	t.Helper()
	s := &script{data: data}
	rng := rand.New(rand.NewSource(int64(len(data))))
	size := modelSizes[s.next()%len(modelSizes)]
	allSum := s.next()%2 == 0
	st := newModelStore(size, allSum, rng)
	views := make([]CellView, 8)
	var stamp int64
	for round := 0; round == 0 || !s.done(); round++ {
		// Re-bind now and then: the views keep their buffers, so a smaller
		// store leaves set bits and values beyond its size in their
		// capacity, and a larger one within that capacity brings them back
		// into range.
		if h := s.next(); round > 0 && h%4 == 0 {
			st = newModelStore(modelSizes[(h/4)%len(modelSizes)], allSum, rng)
		}
		size = st.cells.Size()
		ndata := size - st.data0
		nv := 1 + s.next()%len(views)
		model := make([]modelView, nv)
		for i := 0; i < nv; i++ {
			v := &views[i]
			v.begin(st.cells, st.reds)
			// Over the whole capacity: what a smaller store hides now, a
			// larger one shows again.
			for b, blk := range v.bits[:cap(v.bits)] {
				if blk != (cellBits{}) {
					t.Fatalf("round %d: view %d armed with block %d still set", round, i, b)
				}
			}
			if len(v.wval) != size || len(v.bits) != cellBlocks(size) {
				t.Fatalf("round %d: view %d buffers not sliced to the %d-cell store", round, i, size)
			}
			model[i] = modelView{writes: map[int]int64{}, reads: map[int]bool{}}
			for _, rd := range st.reds {
				model[i].racc = append(model[i].racc, rd.Kind.Identity())
			}
		}

		for ops := s.next(); ops > 0; ops-- {
			op := s.next()
			vi := s.next() % nv
			v, m := &views[vi], &model[vi]
			cell := s.next()<<8 | s.next()
			stamp++
			switch kind := op % 8; {
			case kind == 6:
				// A reduction update: through Reduce, or the way a block form
				// makes it, folding into the Accumulators slice with the
				// declared kind. The two mix freely on one view.
				a := v.Accumulators()
				if len(a) != len(st.reds) {
					t.Fatalf("round %d: view %d hands out %d accumulators for %d reductions", round, vi, len(a), len(st.reds))
				}
				if len(a) == 0 {
					continue
				}
				r := cell % len(a)
				if op&16 != 0 {
					a[r] = st.reds[r].Kind.fold(a[r], stamp)
				} else {
					v.Reduce(r, stamp)
				}
				m.racc[r] = st.reds[r].Kind.fold(m.racc[r], stamp)
				continue
			case ndata <= 0:
				continue
			case kind == 7:
				// A whole block of stores (clipped to the store): the
				// commit's block copy when the block is full.
				base := (st.data0 + cell%ndata) &^ 63
				for i := max(base, st.data0); i < min(base+64, size); i++ {
					v.Store(i, stamp+int64(i))
					m.writes[i] = stamp + int64(i)
				}
				continue
			}
			if op&8 != 0 {
				cell %= 70 // a hot range across the first block edge, so views collide
			}
			cell = st.data0 + cell%ndata
			if op%8 < 3 {
				want, forwarded := m.writes[cell]
				if !forwarded {
					want = st.model[cell]
					m.reads[cell] = true
				}
				if got := v.Load(cell); got != want {
					t.Fatalf("round %d: view %d Load(%d) = %d, want %d (forwarded=%v)", round, vi, cell, got, want, forwarded)
				}
			} else {
				v.Store(cell, stamp)
				m.writes[cell] = stamp
			}
		}

		for i := 0; i < nv; i++ {
			v, m := &views[i], &model[i]
			reads, writes := readSet(v), writeSet(v)
			if len(reads) != len(m.reads) || len(writes) != len(m.writes) {
				t.Fatalf("round %d: view %d has %d reads and %d writes, model %d and %d", round, i, len(reads), len(writes), len(m.reads), len(m.writes))
			}
			for _, c := range reads {
				if !m.reads[c] {
					t.Fatalf("round %d: view %d read-set names cell %d, model does not", round, i, c)
				}
			}
			for _, c := range writes {
				if x, ok := m.writes[c]; !ok || v.wval[c] != x {
					t.Fatalf("round %d: view %d write-set cell %d = %d, model %d (present=%v)", round, i, c, v.wval[c], x, ok)
				}
			}
			// Every view, the ones about to be squashed included: identity
			// where nothing folded, whatever the previous arm left.
			for r, x := range v.Accumulators() {
				if x != m.racc[r] {
					t.Fatalf("round %d: view %d accumulator %d = %d, model %d", round, i, r, x, m.racc[r])
				}
			}
			// A block with no bit set is never copied, nor a cell without
			// its write bit: poisoned, either would reach the store and
			// diverge from the model below.
			poisonUnwritten(v)
		}

		// The scheduler's walk: commit the prefix in order, each commit
		// probing the views behind it up to the first one already found in
		// conflict; stop there or after the scripted prefix.
		prefix := s.next() % (nv + 1)
		probeEnd, wantEnd := nv, nv
		for i := 0; i < prefix && i != probeEnd; i++ {
			for k := i + 1; k < wantEnd; k++ {
				for c := range model[i].writes {
					if model[k].reads[c] {
						wantEnd = k
					}
				}
			}
			for c, x := range model[i].writes {
				st.model[c] = x
			}
			for j, rd := range st.reds {
				st.model[rd.Cell] = rd.Kind.fold(st.model[rd.Cell], model[i].racc[j])
			}
			probeEnd = i + 1 + retire(&views[i], views[i+1:probeEnd])
			if probeEnd != wantEnd {
				t.Fatalf("round %d: commit of view %d found view %d in conflict first, model %d (of %d)", round, i, probeEnd, wantEnd, nv)
			}
		}
		for i, want := range st.model {
			if got := st.cells.At(i); got != want {
				t.Fatalf("round %d: cell %d = %d after committing %d of %d views, want %d", round, i, got, prefix, nv, want)
			}
		}
	}
	for i := range views {
		views[i].release()
	}
}

// The scripted accesses of vop.
const (
	vLoad   = 0  // Load of cell c
	vStore  = 3  // Store to cell c
	vReduce = 6  // Reduce into reduction c
	vAccum  = 22 // a fold into reduction c through Accumulators
)

// vop is one scripted access: view v loads or stores cell c of the
// 4101-cell store (c ≥ 2: cells 0 and 1 hold the reductions), or folds
// into reduction c.
type vop struct{ kind, v, c int }

// viewRound encodes a round of runViewScript: nv views, ops over them,
// then the prefix of views committed.
func viewRound(nv, prefix int, ops ...vop) []byte {
	b := []byte{1, byte(nv - 1), byte(len(ops))} // 1: no re-bind
	for _, o := range ops {
		if c := o.c; o.kind == vLoad || o.kind == vStore {
			o.c = c - 2
		}
		b = append(b, byte(o.kind), byte(o.v), byte(o.c>>8), byte(o.c))
	}
	return append(b, byte(prefix))
}

// viewScript is the script of rounds over the 4101-cell store whose
// cells 0 and 1 hold a Sum and a Max.
func viewScript(rounds ...[]byte) []byte {
	return slices.Concat(append([][]byte{{6, 1}}, rounds...)...)
}

// modelSeeds are scripts of n random bytes, one per store size so every
// size opens at least one script.
func modelSeeds(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	seeds := make([][]byte, len(modelSizes))
	for i := range seeds {
		seeds[i] = make([]byte, n)
		rng.Read(seeds[i])
		seeds[i][0] = byte(i)
	}
	return seeds
}

func TestCellViewModel(t *testing.T) {
	for _, data := range modelSeeds(1 << 14) {
		runViewScript(t, data)
	}
}

func FuzzCellViewModel(f *testing.F) {
	for _, data := range modelSeeds(1 << 9) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runViewScript(t, data) })
}
