package spice

// This file is the native runtime's speculative memory: the DOACROSS
// counterpart of the simulator's internal/specmem. A Loop whose body
// reads and writes loop-carried state declares a Cells store; each
// chunk then executes against a CellView — a buffered view that
// forwards the chunk's own stores to its own loads (store-to-load
// forwarding), records every fall-through read in a read-set, and
// holds every store in a write buffer until the scheduler commits the
// chunk. At commit time the scheduler validates each speculative
// chunk's read-set against the union of all logically-earlier chunks'
// committed writes (Section 3's conflict detection): a chunk that read
// a cell an earlier chunk wrote consumed a stale value, so it is
// squashed together with everything after it and the region re-executes
// through the ordinary recovery rounds. Only flow dependences conflict;
// anti- and output dependences are satisfied for free by the in-order
// drain of buffered writes.
//
// Unlike specmem.Buffer (maps, per-run allocation), a CellView is
// allocation-free in steady state: the read/write sets are
// epoch-stamped direct-mapped arrays sized to the store, reset by a
// single epoch bump per chunk, with side index lists making conflict
// checks and commit drains proportional to the chunk's actual access
// footprint, not the store size.
//
// Reductions (the paper's Section 4 / internal/reduction) ride the same
// store: a Loop declares reduction cells with their kinds, the body
// updates them only through CellView.Reduce, and every view — the
// sequential path's direct view included — privatizes the accumulator
// starting from the kind's identity. The scheduler folds a chunk's
// private accumulators into the store cells in sequential chunk order
// at commit; runSequential folds the direct view's when it exits, on
// every exit path. Reduce is therefore one operation in both modes,
// small enough to inline into the body (TestCellAccessorsInline holds
// it there). Every supported kind is associative and commutative on
// int64 under wraparound, so folding identity-seeded partial results
// in chunk order equals folding every update in iteration order.
// Reduction cells are exempt from conflict tracking — that exemption
// is the entire point of recognizing them.

// ReductionKind enumerates the reduction operators supported on cells.
// The constants and their identities mirror internal/reduction.Kind
// (the simulator-side recognizer), so a loop the compiler pipeline
// classifies as, say, a Sum reduction maps 1:1 onto the native
// runtime's declaration.
type ReductionKind int

// Reduction kinds, in internal/reduction.Kind order.
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
// value is a no-op (matches internal/reduction.Kind.Identity).
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
// (never Load/Store): reduction cells are privatized per chunk and
// merged in sequential chunk order at commit, and are exempt from
// conflict tracking.
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
// scheduler drains committed chunks in order), so the caller must not
// touch it and at most one invocation may run against a store at a
// time. A Pool caller binds a store per session (Session.BindCells) —
// sessions already serialize invocations per structure, which is
// exactly the discipline Cells needs.
type Cells struct {
	words []int64
	// wunion stamps each cell with the tick of the dispatch round whose
	// commit last wrote it. A chunk's fall-through read conflicts only
	// with writes committed at or after the round the chunk ran in
	// (wunion[i] >= view.startTick): writes drained by *earlier* rounds
	// were in the store before the chunk started, so the chunk read the
	// committed value and is correct. The monotone tick makes previous
	// invocations' stamps vanish by comparison alone (cleared only on
	// uint32 wrap).
	wunion []uint32
	tick   uint32
}

// NewCells creates a store of n zeroed cells.
func NewCells(n int) *Cells {
	if n < 0 {
		n = 0
	}
	return &Cells{words: make([]int64, n), wunion: make([]uint32, n)}
}

// Size returns the number of cells.
func (c *Cells) Size() int { return len(c.words) }

// At reads cell i non-speculatively (between invocations).
func (c *Cells) At(i int) int64 { return c.words[i] }

// Set writes cell i non-speculatively (between invocations).
func (c *Cells) Set(i int, v int64) { c.words[i] = v }

// beginRound opens a new dispatch-round generation, called before every
// round of an invocation (dispatchRound). Chunks armed after the
// bump validate only against writes this or a later round commits.
func (c *Cells) beginRound() {
	c.tick++
	if c.tick == 0 {
		clear(c.wunion)
		c.tick = 1
	}
}

// CellView is one chunk's window onto a Cells store. The runtime hands
// a view to every SpecBody/SpecBodyErr call; the body uses Load, Store
// and Reduce and never sees buffering, validation or squash — a
// squashed chunk's buffered writes simply never reach the store.
//
// A view is confined to its chunk's goroutine during execution and to
// the invoking goroutine during validation/commit; it needs (and has)
// no internal locking. Out-of-range cell indices panic, which the
// runtime contains like any body panic: in a committed-prefix chunk it
// surfaces as *PanicError exactly as sequential execution would, and in
// a squashed chunk it is discarded — the deferred-fault semantics of a
// TLS memory system.
type CellView struct {
	c   *Cells
	red []Reduction

	// direct marks the sequential execution mode (Runner.runSequential
	// and width-1 fallbacks): loads and stores pass straight through to
	// the store — the reference semantics the speculative mode must
	// reproduce exactly. Reductions are privatized in this mode too.
	direct bool
	// record marks speculative chunks whose fall-through reads need
	// read-set tracking. Chunk 0 of a round buffers (its writes must
	// stay invisible to concurrently running chunks) but never
	// conflicts — no logically-earlier chunk exists — so it skips the
	// tracking.
	record bool

	// Epoch-stamped direct-mapped write buffer and read-set: mark[i] ==
	// epoch means cell i is in this chunk's set. One epoch bump resets
	// both sets in O(1); worder/rorder list the members so commit and
	// conflict checks walk only the chunk's footprint.
	epoch  uint32
	wmark  []uint32
	wval   []int64
	rmark  []uint32
	worder []int
	rorder []int
	// startTick is the store's round tick when this chunk was armed:
	// conflicted() flags only union writes stamped at or after it.
	startTick uint32

	// racc holds the view's private reduction accumulators, one per
	// declared Reduction, starting at the kind's identity. sums aliases
	// racc when every declared reduction is ReduceSum and is nil
	// otherwise: Reduce's inline fast path, chosen once per arm.
	racc []int64
	sums []int64
}

// begin arms the view for one chunk execution. record selects read-set
// tracking (speculative chunks only; see the field docs).
func (v *CellView) begin(c *Cells, red []Reduction, record bool) {
	v.c = c
	v.red = red
	v.direct = false
	v.record = record
	v.startTick = c.tick
	if len(v.wmark) < len(c.words) {
		v.wmark = make([]uint32, len(c.words))
		v.wval = make([]int64, len(c.words))
		v.rmark = make([]uint32, len(c.words))
	}
	v.epoch++
	if v.epoch == 0 {
		clear(v.wmark)
		clear(v.rmark)
		v.epoch = 1
	}
	v.worder = v.worder[:0]
	v.rorder = v.rorder[:0]
	v.armReductions()
}

// beginDirect arms the view for sequential (non-speculative) execution:
// loads and stores go straight to the store; reductions accumulate
// privately until the caller's drain.
func (v *CellView) beginDirect(c *Cells, red []Reduction) {
	v.c = c
	v.red = red
	v.direct = true
	v.worder = v.worder[:0]
	v.rorder = v.rorder[:0]
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

// release drops the store reference so a parked runner does not pin a
// finished caller's cell store. The mark arrays are kept: they hold no
// pointers and are the steady state's allocation-free working set.
func (v *CellView) release() {
	v.c = nil
	v.red = nil
	v.racc = v.racc[:0]
	v.sums = nil
	v.worder = v.worder[:0]
	v.rorder = v.rorder[:0]
}

// Load reads cell i: the chunk's own buffered store if it has one
// (store-to-load forwarding), else the pre-invocation store value, with
// the fall-through read recorded for commit-time conflict validation.
func (v *CellView) Load(i int) int64 {
	if v.direct {
		return v.c.words[i]
	}
	if v.wmark[i] == v.epoch {
		return v.wval[i]
	}
	if v.record && v.rmark[i] != v.epoch {
		v.rmark[i] = v.epoch
		v.rorder = append(v.rorder, i)
	}
	return v.c.words[i]
}

// Store writes cell i into the chunk's buffer; the store becomes
// visible to later chunks only if this chunk commits.
func (v *CellView) Store(i int, x int64) {
	if v.direct {
		v.c.words[i] = x
		return
	}
	if v.wmark[i] != v.epoch {
		v.wmark[i] = v.epoch
		v.worder = append(v.worder, i)
	}
	v.wval[i] = x
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

// reduceKind is Reduce for declarations that mix kinds. Kept out of
// line: inlined into Reduce it would push Reduce itself over the
// compiler's inlining budget.
//
//go:noinline
func (v *CellView) reduceKind(r int, x int64) {
	v.racc[r] = v.red[r].Kind.fold(v.racc[r], x)
}

// conflicted reports whether any of the chunk's fall-through reads hit
// a cell written by a logically-earlier chunk the chunk could not have
// seen — one whose write committed in the chunk's own round (or later):
// a violated flow dependence. Writes committed by earlier rounds were
// already in the store when this chunk started, so reading them is
// correct, not a conflict. Called by the scheduler on the invoking
// goroutine, after all earlier chunks drained, before this chunk may
// commit.
func (v *CellView) conflicted() bool {
	c := v.c
	for _, i := range v.rorder {
		if c.wunion[i] >= v.startTick {
			return true
		}
	}
	return false
}

// drain commits the view: buffered writes land in the store in
// first-write order and join the union write-set at the current round's
// tick, then the private reduction accumulators fold into their cells —
// the sequential-chunk-order merge, because the scheduler drains chunks
// in exactly that order. A direct view has no buffered writes; its
// drain is the reduction fold alone.
func (v *CellView) drain() {
	c := v.c
	for _, i := range v.worder {
		c.words[i] = v.wval[i]
		c.wunion[i] = c.tick
	}
	for j, rd := range v.red {
		c.words[rd.Cell] = rd.Kind.fold(c.words[rd.Cell], v.racc[j])
	}
}

// reads returns the number of recorded fall-through reads (tests).
func (v *CellView) reads() int { return len(v.rorder) }
