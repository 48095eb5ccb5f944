package spice

import "math/bits"

// This file is the native runtime's speculative memory: the DOACROSS
// counterpart of the simulator's internal/specmem. A Loop whose body
// reads and writes loop-carried state declares a Cells store; each
// chunk then executes against a CellView — a buffered view that
// forwards the chunk's own stores to its own loads (store-to-load
// forwarding), records every fall-through read in a read-set, and
// holds every store in a write buffer until the scheduler commits the
// chunk. Validation runs from the writer's side (Section 3's conflict
// detection, turned around): as the scheduler commits a chunk it checks
// that chunk's write-set against the read-set of every logically-later
// chunk of the same round. A chunk that read a cell an earlier chunk
// of its round wrote consumed a stale value, so it is squashed together
// with everything after it and the region re-executes in the next
// round. What earlier rounds committed was in the store before the
// chunk started and cannot conflict, which is why only the round's own
// views are ever compared. Only flow dependences conflict. Anti-
// dependences are satisfied by buffering alone, and output dependences
// by the order in which the buffers land: the copies of two chunks
// that stored to the same cell land in chain order, so the logically
// last writer's value stays.
//
// Unlike specmem.Buffer (maps, per-run allocation), a CellView is
// allocation-free in steady state. The store is cut into blocks of 64
// cells; a view keeps one bitmap — per block a read-set word and a
// write-set word side by side (a bit per cell, 16 bytes per block, one
// slice header) — and the buffered values. Load and Store are a bit
// test and, the first time a cell is touched, a bit set. Arming is one
// clear over the bitmap; there is no per-block "touched" flag to keep,
// a block nothing named has two zero words. Retiring a chunk is three
// steps the scheduler orders (Runner.run and landCells): validate
// ANDs each written block against the same block of every later chunk
// and never touches a value; copyOut moves the written cells into the
// store, a fully written block by one 64-cell copy, and skips every
// block whose write word is zero; fold merges the reduction
// accumulators. None of them walks a list of cells or the store. The
// walk validates the whole chain first, so by the time values move it
// knows which views commit and whether any two of them stored to one
// cell: when none did, each view's copy runs on the core that filled
// its buffer. A view costs 8 bytes and 2 bits per cell.
//
// Reductions (the paper's Section 4) ride the same store: a Loop
// declares reduction cells with their kinds, the body updates them only
// through CellView.Reduce (or, in a block form, by folding into the
// slice CellView.Accumulators hands it once per block), and every view —
// the direct view of a round of one included — privatizes the
// accumulator starting from the kind's identity. The scheduler folds a
// chunk's private accumulators into the store cells in sequential chunk
// order once the round's copies have landed, a failing chunk's partial
// ones behind the prefix. Reduce is therefore
// one operation in both modes, small enough to inline into the body
// (TestCellAccessorsInline holds it there). Every supported kind is
// associative and commutative on int64 under wraparound, so folding
// identity-seeded partial results in chunk order equals folding every
// update in iteration order.
// Reduction cells are exempt from conflict tracking — that exemption
// is the entire point of recognizing them.

// ReductionKind enumerates the reduction operators supported on cells.
type ReductionKind int

// Reduction kinds.
const (
	ReduceSum ReductionKind = iota
	ReduceProduct
	ReduceAnd
	ReduceOr
	ReduceXor
	ReduceMin
	ReduceMax
)

var reductionNames = [...]string{"sum", "product", "and", "or", "xor", "min", "max"}

// String returns the kind name.
func (k ReductionKind) String() string {
	if int(k) >= 0 && int(k) < len(reductionNames) {
		return reductionNames[k]
	}
	return "kind(?)"
}

// Identity returns the kind's identity element — the value a chunk's
// private accumulator starts from, chosen so folding it into any cell
// value is a no-op.
func (k ReductionKind) Identity() int64 {
	switch k {
	case ReduceSum, ReduceOr, ReduceXor:
		return 0
	case ReduceProduct:
		return 1
	case ReduceAnd:
		return -1
	case ReduceMin:
		return int64(^uint64(0) >> 1) // MaxInt64
	case ReduceMax:
		return -int64(^uint64(0)>>1) - 1 // MinInt64
	default:
		return 0
	}
}

// fold combines a cell (or accumulator) value with an update.
func (k ReductionKind) fold(a, b int64) int64 {
	switch k {
	case ReduceSum:
		return a + b
	case ReduceProduct:
		return a * b
	case ReduceAnd:
		return a & b
	case ReduceOr:
		return a | b
	case ReduceXor:
		return a ^ b
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	default: // ReduceMax
		if b > a {
			return b
		}
		return a
	}
}

// Reduction declares one reduction accumulator living in a store cell.
// During Run the body must touch the cell only through CellView.Reduce
// or the slice of CellView.Accumulators (never Load/Store): reduction
// cells are privatized per chunk and merged in sequential chunk order at
// commit, and are exempt from conflict tracking.
type Reduction struct {
	// Cell is the store cell holding the running accumulator.
	Cell int
	// Kind is the fold operator.
	Kind ReductionKind
}

// Cells is a fixed-size store of int64 words that a speculative loop
// body may read and write through its chunk's CellView. The store is
// the loop-carried state that survives across invocations: between
// invocations the caller reads and writes it freely with At/Set; during
// an invocation the runtime owns it (chunks buffer their writes and the
// scheduler commits them in chunk order), so the caller must not touch
// it and at most one invocation may run against a store at a time. A
// Pool caller binds a store per session (Session.BindCells) — sessions
// already serialize invocations per structure, which is exactly the
// discipline Cells needs. The store carries no speculation state of its
// own: read- and write-sets live in the views.
type Cells struct {
	words []int64
}

// NewCells creates a store of n zeroed cells.
func NewCells(n int) *Cells {
	if n < 0 {
		n = 0
	}
	return &Cells{words: make([]int64, n)}
}

// Size returns the number of cells.
func (c *Cells) Size() int { return len(c.words) }

// At reads cell i non-speculatively (between invocations).
func (c *Cells) At(i int) int64 { return c.words[i] }

// Set writes cell i non-speculatively (between invocations).
func (c *Cells) Set(i int, v int64) { c.words[i] = v }

// CellView is one chunk's window onto a Cells store. The runtime hands
// a view to every SpecBody/SpecBodyErr call; the body uses Load, Store
// and Reduce and never sees buffering, validation or squash — a
// squashed chunk's buffered writes simply never reach the store. A block
// form (Loop.Scan) may ask the view once per block for what Reduce
// reaches once per update: Accumulators is the private reduction
// accumulators as a plain slice, one slot per declared Reduction, seeded
// with the kind's identity at every arm; the block folds into slot r with
// reduction r's declared operator, the slice is good for that Scan call,
// and it is empty when the loop declares no reductions. Nothing else
// about a reduction changes with it: the accumulators reach the store at
// commit in chain order, or are discarded with a squashed chunk's view.
//
// A view is confined to its chunk's goroutine during execution, to the
// invoking goroutine while it is armed, validated and folded, and to
// whoever claimed its copy-out (Runner.landCells) while that runs;
// the round's latch and claim words order the three, so it needs (and
// has) no internal locking. Out-of-range cell indices panic in the
// body, before the view records anything about them, and the runtime
// contains that like any body panic: in a committed-prefix chunk it
// surfaces as *PanicError exactly as sequential execution would, and in
// a squashed chunk it is discarded — the deferred-fault semantics of a
// TLS memory system.
type CellView struct {
	// The field order is measured, not incidental. The direct mode reads
	// words, direct and the reduction fields on every access and never the
	// buffers, and which of them sit before the buffers and which behind
	// moved both direct-view readings of the benchmark, repeatably: with
	// racc behind the buffers the dense-conflict histogram (a mixed-kind
	// Reduce per node, mostly on the direct view) ran 13.4 ns/iter
	// against 12.3 before the bitmaps and 11.4 in this order; with sums
	// in front of them w1_overhead on circuit_transient (an all-Sum
	// Reduce, 2–6 per device) read 1.50 against 1.48 before and 1.44 in
	// this order (CHANGES.md, PR 14).
	//
	// words is the bound store's cells, cached at every arm: an access
	// reads the slice header here instead of chasing the store pointer.
	words []int64
	// direct marks the view of a round of one (Runner.dispatch:
	// the only chunk running): loads and stores pass straight through to
	// the store — the reference semantics the buffered mode must
	// reproduce exactly. Reductions are privatized in this mode too.
	direct bool
	red    []Reduction
	// racc holds the view's private reduction accumulators, one per
	// declared Reduction, starting at the kind's identity.
	racc []int64

	// The buffered mode's read- and write-set, one bit per cell, the two
	// words of a 64-cell block side by side: bit i&63 of bits[i>>6].r
	// says the chunk read cell i by fall-through, the same bit of .w that
	// it stored to it, with the latest stored value in wval[i]. One slice
	// header serves both sets, and that is most of what an access costs:
	// after every store the compiler must assume the header was aliased
	// and reload it, so with three bitmaps a Load+Store pair issued about
	// 21 loads before it touched a cell and issues about 14 with one. A
	// block no access named has both words zero and is skipped by
	// validation and copy-out on its write word alone. Both slices are
	// cut to the bound store at every arm (cellBlocks(size) blocks, size
	// values) and keep their capacity across arms; each lives on cache
	// lines of its own (paddedSlice) because neighbouring views are
	// written by different cores.
	bits []cellBits
	wval []int64

	// sums aliases racc when every declared reduction is ReduceSum and is
	// nil otherwise: Reduce's inline fast path, chosen once per arm.
	sums []int64
}

// cellBits is one 64-cell block of a view's read- and write-set.
type cellBits struct{ r, w uint64 }

// cellBlocks is the number of 64-cell blocks covering n cells.
func cellBlocks(n int) int { return (n + 63) >> 6 }

// paddedSlice allocates n zeroed elements with 64 unused ones — a cache
// line at least — on either side, so no line the slice occupies holds
// anything another core writes, whatever alignment the allocator
// picked. The capacity stops at n.
func paddedSlice[T any](n int) []T {
	const pad = 64
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

// begin arms the view for one buffered chunk execution against c: empty
// read- and write-set, buffers sliced to c's size. Whatever the previous
// arm left behind — a squashed chunk's sets, or a committed one's — goes
// in one clear over that arm's extent (25 KB for 100 000 cells, 32 bytes
// for the circuit's 72), which may be larger than this one's when the
// runner was re-bound to a smaller store.
func (v *CellView) begin(c *Cells, red []Reduction) {
	v.words = c.words
	v.red = red
	v.direct = false
	n := len(c.words)
	nb := cellBlocks(n)
	if cap(v.wval) < n {
		v.bits = paddedSlice[cellBits](nb)
		v.wval = paddedSlice[int64](n)
	} else {
		clear(v.bits)
		v.bits, v.wval = v.bits[:nb], v.wval[:n]
	}
	v.armReductions()
}

// beginDirect arms the view for a round of one: loads and stores go
// straight to the store; reductions accumulate privately until the
// scheduler's fold. The bitmap is left as the last buffered arm set it
// (the next begin clears it), which is why validate and copyOut must
// skip a direct view: read as this arm's write-set it would land that
// arm's stale values over what the chunk just stored.
func (v *CellView) beginDirect(c *Cells, red []Reduction) {
	v.words = c.words
	v.red = red
	v.direct = true
	v.armReductions()
}

// armReductions seeds the private accumulators with their identities
// and selects Reduce's path for this arm.
func (v *CellView) armReductions() {
	if cap(v.racc) < len(v.red) {
		v.racc = make([]int64, 0, len(v.red))
	}
	v.racc = v.racc[:0]
	allSum := true
	for _, rd := range v.red {
		v.racc = append(v.racc, rd.Kind.Identity())
		allSum = allSum && rd.Kind == ReduceSum
	}
	v.sums = nil
	if allSum {
		v.sums = v.racc
	}
}

// release drops the store and reduction references so a parked runner
// does not pin a finished caller's cell store. The buffers stay as they
// are — they hold no pointers, they are the steady state's
// allocation-free working set, and the next begin clears what is set in
// them.
func (v *CellView) release() {
	v.words = nil
	v.red = nil
	v.racc = v.racc[:0]
	v.sums = nil
}

// Load reads cell i: the chunk's own buffered store if it has one
// (store-to-load forwarding), else the store's value, with the
// fall-through read entered in the read-set for the earlier chunks'
// commits to probe. Bits are written only when clear, so a cell every
// chunk keeps loading dirties its bitmap line once, not per access.
func (v *CellView) Load(i int) int64 {
	if v.direct {
		return v.words[i]
	}
	b, m := &v.bits[i>>6], uint64(1)<<(i&63)
	if b.w&m != 0 {
		return v.wval[i]
	}
	x := v.words[i]
	if b.r&m == 0 {
		b.r |= m
	}
	return x
}

// Store writes cell i into the chunk's buffer; the store becomes
// visible to later chunks only if this chunk commits. The value goes
// first: its bounds check (the buffers are exactly the store's size)
// rejects an out-of-range i before the write-set can name it.
func (v *CellView) Store(i int, x int64) {
	if v.direct {
		v.words[i] = x
		return
	}
	v.wval[i] = x
	b, m := &v.bits[i>>6], uint64(1)<<(i&63)
	if b.w&m == 0 {
		b.w |= m
	}
}

// Reduce folds x into declared reduction r (an index into
// Loop.Reductions). The fold lands in the view's private accumulator
// and reaches the store cell only at commit, in sequential chunk order.
// An all-ReduceSum declaration adds in line; the range check doubles as
// the mode check (sums is empty otherwise), so any other declaration —
// and an out-of-range r, which panics there — takes one call.
func (v *CellView) Reduce(r int, x int64) {
	if uint(r) < uint(len(v.sums)) {
		v.sums[r] += x
		return
	}
	v.reduceKind(r, x)
}

// Accumulators returns the view's private reduction accumulators, one
// per declared Reduction in declaration order (empty when the loop
// declares none): the slice Reduce folds into, handed out once so that a
// block form (Loop.Scan) can keep it in a local across its loop instead
// of reaching through the view at every update. The caller folds into
// slot r with reduction r's declared operator, where it would have
// called Reduce(r, x): a[r] += x for ReduceSum, if x > a[r] { a[r] = x }
// for ReduceMax, and so on; the runtime cannot check the operator, and a
// different one breaks the equality with sequential execution. Slot r
// starts at the kind's identity, not at the cell's value, and reaches
// the cell at commit like any Reduce. The slice is valid for the Scan
// call that asked (the next arm re-seeds it, and a re-bound loop may
// replace it); asking again, or mixing in Reduce, is fine. An index
// outside it panics in the body and is contained like any body panic.
func (v *CellView) Accumulators() []int64 { return v.racc }

// reduceKind is Reduce for declarations that mix kinds. Kept out of
// line: inlined into Reduce it would push Reduce itself over the
// compiler's inlining budget.
//
//go:noinline
func (v *CellView) reduceKind(r int, x int64) {
	v.racc[r] = v.red[r].Kind.fold(v.racc[r], x)
}

// A buffered chunk retires in three steps, which the scheduler orders
// (Runner.run validates during the chain walk; landCells copies out
// and folds once the walk knows the committed prefix). All three run
// after the round has joined. A direct view has nothing buffered and
// nobody to conflict with: validate and copyOut return at once (see
// beginDirect), only fold applies to it.

// validate checks the chunks behind this one: the write word of every
// block the chunk wrote is ANDed against the same block's read word in
// later — the views of the round's logically-later chunks, in chain
// order. A later chunk that read, by fall-through, a cell this one
// wrote consumed a stale value: a violated flow dependence. validate
// returns the index in later of the first such chunk, len(later) if
// there is none; everything behind a conflicting chunk is squashed with
// it, so probing narrows to the chunks before it as soon as one is
// found. It reads bitmaps only — no value, no store cell — so the walk
// can validate the whole chain before anything is copied.
//
// wrote reports whether the chunk stored to any cell, and shared
// reports an output dependence: a later view (one not yet ruled out when its
// block was probed) stored to a cell this one stored to. Copies of
// views that share no written cell land in disjoint cells and may run
// in any order, on any core; shared ones must land in chain order.
//
// Only views armed in the same round are passed, which is all the
// scoping conflicts need: what an earlier round committed was in the
// store before these chunks started.
func (v *CellView) validate(later []CellView) (end int, wrote, shared bool) {
	if v.direct {
		return len(later), false, false
	}
	for b := range v.bits {
		w := v.bits[b].w
		if w == 0 {
			continue // a block the chunk only read, or never named
		}
		wrote = true
		for k := range later {
			l := later[k].bits[b]
			if l.r&w != 0 {
				later = later[:k]
				break
			}
			shared = shared || l.w&w != 0
		}
	}
	return len(later), wrote, shared
}

// copyOut lands the chunk's buffered stores in the store: each written
// block's cells, a fully written block by one 64-cell copy. It touches
// no cell the chunk did not store to, which is what lets the copies of
// views that share no written cell run side by side.
func (v *CellView) copyOut() {
	if v.direct {
		return
	}
	words := v.words
	for b := range v.bits {
		w := v.bits[b].w
		if w == 0 {
			continue
		}
		base := b << 6
		if w == ^uint64(0) {
			copy(words[base:base+64], v.wval[base:base+64])
			continue
		}
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			words[i] = v.wval[i]
		}
	}
}

// fold merges the private reduction accumulators into their cells. The
// scheduler folds the committed views in chain order — the
// sequential-chunk-order merge — and a failing chunk's view behind them.
func (v *CellView) fold() {
	for j, rd := range v.red {
		v.words[rd.Cell] = rd.Kind.fold(v.words[rd.Cell], v.racc[j])
	}
}
