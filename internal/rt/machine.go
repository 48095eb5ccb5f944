// Package rt implements the Spice runtime machine: simulated threads'
// shared state. It provides the inter-core synchronized message queues,
// the speculated values array (SVA) with generation double-buffering,
// the work array and the dynamic load-balancing value predictor
// (Section 4, Algorithm 2 and the central planning component), the
// speculative-state bookkeeping (commit/discard of per-thread buffers,
// conflict accounting), recovery registration for the remote resteer
// mechanism, region-based instruction accounting (for the Table 2
// hotness measurement) and value-profiler hooks (Section 6).
//
// The interpreter (package interp) drives a Machine: it executes IR
// instructions and delegates every runtime intrinsic here. The Machine
// performs the functional effects and reports latencies; the interpreter
// charges them to the executing thread's clock.
package rt

import (
	"fmt"
	"math"
	"slices"

	"spice/internal/sim"
	"spice/internal/specmem"
)

// Message tags used by the generated Spice protocol code. Tags namespace
// the per-receiver FIFO queues; each (receiver, tag) queue has a single
// sender, so FIFO order is well defined.
const (
	// TagInvoke carries the new_invocation token from the main thread to
	// each worker; value 0 means "run one invocation", 1 means "exit".
	TagInvoke int64 = 1
	// TagLiveIn carries invariant loop live-ins, one message per value.
	TagLiveIn int64 = 2
	// TagVerdict tells a validated worker its buffer was committed.
	TagVerdict int64 = 3
	// TagAck carries recovery acknowledgments from squashed workers.
	TagAck int64 = 4
	// TagExitBase+i carries worker i's exit record (matched flag, work
	// count, reduction partials, live-outs), one message per value.
	TagExitBase int64 = 16
)

// InfThreshold is the svat sentinel meaning "never memoize again this
// invocation" (the paper's ∞).
const InfThreshold int64 = math.MaxInt64

// maxCandidates bounds the bootstrap memoization slots (thresholds are
// powers of two, so 48 slots cover any practical trip count).
const maxCandidates = 48

// message is one in-flight queue entry.
type message struct {
	val     int64
	availAt int64
}

type mailKey struct {
	to  int
	tag int64
}

// ProfSink receives value-profiler events (Section 6). The instrumented
// program reports invocation boundaries and per-iteration live-in value
// tuples; the analyzer in package profiler implements this interface.
type ProfSink interface {
	NewInvocation(loop int64)
	RecordValues(loop int64, vals []int64)
}

// RegionStat accumulates instruction and cycle counts for one region id.
type RegionStat struct {
	Instrs  int64
	Cycles  int64
	Entries int64
	// enteredAt tracks the clock at region entry (one active entry per
	// thread; nested entries of the same id are not supported).
	enteredAt int64
}

// Stats aggregates runtime events across a whole simulation.
type Stats struct {
	Invocations        int64 // lb_plan calls (one per invocation end)
	Resteers           int64
	Commits            int64
	CommittedWords     int64
	Discards           int64
	DiscardedWords     int64
	Conflicts          int64
	MisspecInvocations int64 // invocations with at least one resteer
	Sends, Recvs       int64
	SpecEnters         int64
	Faults             int64
}

// Machine is the shared runtime state for one simulation.
type Machine struct {
	Cfg      sim.Config
	Mem      *specmem.Memory
	Hier     *sim.Hierarchy
	NThreads int
	Bufs     []*specmem.Buffer

	// SVA layout in simulated memory. Each row is SVAWidth value words
	// plus one valid word. Two generations alternate: reads target the
	// current generation, memoization writes target the next.
	SVAWidth int
	svaRows  int
	svaBase  [2]int64
	svaGen   int
	candBase int64
	workBase int64

	lb *balancer

	mail     map[mailKey][]message
	recovery []string // per-thread recovery block name ("" = unset)

	// Hooks are native callbacks invoked by the hook(id) intrinsic; the
	// workload harness uses them to mutate data structures between loop
	// invocations (the "rest of the application").
	Hooks map[int64]func(*Machine)

	// Prof, when non-nil, receives value-profiler events.
	Prof ProfSink

	Regions map[int64]*RegionStat
	// inRegions lists the regions entered and not yet exited: every
	// executed instruction counts toward each of them.
	inRegions []*RegionStat

	// invocationWrites accumulates addresses written non-speculatively
	// by the main thread plus addresses committed by earlier threads in
	// the current invocation; used for conflict detection (Section 3
	// "Conflict Detection").
	invocationWrites map[int64]bool

	Stats             Stats
	resteeredThisInvo bool

	// WorkHistory records the per-thread work array at each plan point
	// (one row per invocation); used for load-imbalance analysis.
	WorkHistory [][]int64
}

// New creates a machine for nThreads threads with svaWidth speculated
// live-ins per row. nThreads must be at least 1; svaWidth at least 1
// when nThreads > 1.
func New(cfg sim.Config, nThreads, svaWidth int) (*Machine, error) {
	if nThreads < 1 {
		return nil, fmt.Errorf("rt: need at least 1 thread")
	}
	if svaWidth < 1 {
		svaWidth = 1
	}
	hier, err := sim.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	mem := specmem.NewMemory(1 << 16)
	m := &Machine{
		Cfg:      cfg,
		Mem:      mem,
		Hier:     hier,
		NThreads: nThreads,
		SVAWidth: svaWidth,
		svaRows:  nThreads - 1,
		mail:     make(map[mailKey][]message),
		recovery: make([]string, nThreads),
		Hooks:    make(map[int64]func(*Machine)),
		Regions:  make(map[int64]*RegionStat),

		invocationWrites: make(map[int64]bool),
	}
	for i := 0; i < nThreads; i++ {
		m.Bufs = append(m.Bufs, specmem.NewBuffer(mem))
	}
	rowWords := m.rowWords()
	rows := int64(m.svaRows)
	if rows < 1 {
		rows = 1 // keep layout valid for single-threaded machines
	}
	m.svaBase[0] = mem.Alloc(rows * rowWords)
	m.svaBase[1] = mem.Alloc(rows * rowWords)
	m.candBase = mem.Alloc(maxCandidates * rowWords)
	m.workBase = mem.Alloc(int64(nThreads))
	m.lb = newBalancer(nThreads, m.svaRows)
	return m, nil
}

// Core returns the core a thread runs on (threads are pinned 1:1 up to
// the core count, then wrap).
func (m *Machine) Core(tid int) int { return tid % m.Cfg.Cores }

// --- Message queues -------------------------------------------------

// Send enqueues a value for (to, tag); it becomes visible to the
// receiver at availAt (sender clock + communication latency, computed by
// the interpreter).
func (m *Machine) Send(to int, tag, val, availAt int64) {
	m.Stats.Sends++
	k := mailKey{to, tag}
	m.mail[k] = append(m.mail[k], message{val, availAt})
}

// TryRecv pops the oldest message for (to, tag). ok is false when the
// queue is empty.
func (m *Machine) TryRecv(to int, tag int64) (val, availAt int64, ok bool) {
	k := mailKey{to, tag}
	q := m.mail[k]
	if len(q) == 0 {
		return 0, 0, false
	}
	msg := q[0]
	m.mail[k] = q[1:]
	m.Stats.Recvs++
	return msg.val, msg.availAt, true
}

// HasMessage reports whether a message is queued for (to, tag).
func (m *Machine) HasMessage(to int, tag int64) bool {
	return len(m.mail[mailKey{to, tag}]) > 0
}

// Flush drops all queued messages for (to, tag) and returns the count.
// The main thread flushes stale exit records of squashed workers after
// their recovery acknowledgment.
func (m *Machine) Flush(to int, tag int64) int {
	k := mailKey{to, tag}
	n := len(m.mail[k])
	delete(m.mail, k)
	return n
}

// --- Recovery / resteer ----------------------------------------------

// SetRecovery registers the recovery block for a thread.
func (m *Machine) SetRecovery(tid int, block string) { m.recovery[tid] = block }

// Recovery returns the registered recovery block name for a thread.
func (m *Machine) Recovery(tid int) string { return m.recovery[tid] }

// NoteResteer records a resteer for statistics. Resteers alone do not
// mark the invocation mis-speculated: idle workers (whose SVA row was
// invalid) are also recovered by resteer but never speculated.
func (m *Machine) NoteResteer() {
	m.Stats.Resteers++
}

// --- SVA --------------------------------------------------------------

// Row layout: SVAWidth value words, then the local-work position of the
// memoization, the writer thread id, and the valid flag.
const (
	rowPosOff    = 0 // + SVAWidth
	rowWriterOff = 1
	rowValidOff  = 2
	rowExtra     = 3
)

// rowWords is the stride of one SVA row.
func (m *Machine) rowWords() int64 { return int64(m.SVAWidth + rowExtra) }

// SVAReadAddr returns the address of value idx in current-generation
// row. Reads always target the current generation: the predictions made
// during the previous invocation.
func (m *Machine) SVAReadAddr(row, idx int64) (int64, error) {
	if err := m.checkRow(row, idx); err != nil {
		return 0, err
	}
	return m.svaBase[m.svaGen] + row*m.rowWords() + idx, nil
}

// SVAValidAddr returns the address of the current-generation valid flag.
func (m *Machine) SVAValidAddr(row int64) (int64, error) {
	if err := m.checkRow(row, 0); err != nil {
		return 0, err
	}
	return m.svaBase[m.svaGen] + row*m.rowWords() + int64(m.SVAWidth) + rowValidOff, nil
}

// SVAWriteAddr returns the address of value idx in next-generation row.
// Rows at or beyond the SVA row count address the bootstrap candidate
// slots handed out by the balancer.
func (m *Machine) SVAWriteAddr(row, idx int64) (int64, error) {
	if idx < 0 || idx >= int64(m.SVAWidth) {
		return 0, fmt.Errorf("rt: sva index %d out of range (width=%d)", idx, m.SVAWidth)
	}
	base, err := m.writeRowBase(row)
	if err != nil {
		return 0, err
	}
	return base + idx, nil
}

// SVASetValidAddr returns the next-generation (or candidate) valid-flag
// address for row.
func (m *Machine) SVASetValidAddr(row int64) (int64, error) {
	base, err := m.writeRowBase(row)
	if err != nil {
		return 0, err
	}
	return base + int64(m.SVAWidth) + rowValidOff, nil
}

// SVANoteAddrs returns the next-generation (or candidate) position and
// writer word addresses for row: the memoizing thread records where in
// its own iteration stream the row was captured, letting the planner
// reconstruct next-invocation chunk starts in global work coordinates.
func (m *Machine) SVANoteAddrs(row int64) (posAddr, writerAddr int64, err error) {
	base, err := m.writeRowBase(row)
	if err != nil {
		return 0, 0, err
	}
	return base + int64(m.SVAWidth) + rowPosOff, base + int64(m.SVAWidth) + rowWriterOff, nil
}

// writeRowBase resolves a write-side row (next generation or candidate
// slot) to its base address.
func (m *Machine) writeRowBase(row int64) (int64, error) {
	if row >= int64(m.svaRows) {
		cand := row - int64(m.svaRows)
		if cand >= maxCandidates {
			return 0, fmt.Errorf("rt: candidate slot %d out of range", cand)
		}
		return m.candBase + cand*m.rowWords(), nil
	}
	if err := m.checkRow(row, 0); err != nil {
		return 0, err
	}
	return m.svaBase[1-m.svaGen] + row*m.rowWords(), nil
}

func (m *Machine) checkRow(row, idx int64) error {
	if row < 0 || (m.svaRows > 0 && row >= int64(m.svaRows)) || (m.svaRows == 0 && row > 0) {
		return fmt.Errorf("rt: sva row %d out of range (rows=%d)", row, m.svaRows)
	}
	if idx < 0 || idx >= int64(m.SVAWidth) {
		return fmt.Errorf("rt: sva index %d out of range (width=%d)", idx, m.SVAWidth)
	}
	return nil
}

// WorkAddr returns the address of work[tid].
func (m *Machine) WorkAddr(tid int) int64 { return m.workBase + int64(tid) }

// --- Speculation bookkeeping ------------------------------------------

// SpecEnter activates thread tid's buffer.
func (m *Machine) SpecEnter(tid int) error {
	m.Stats.SpecEnters++
	return m.Bufs[tid].Enter()
}

// CommitThread validates and drains thread tid's speculative buffer into
// memory. It first counts read/write conflicts against everything the
// invocation has already made architectural (main-thread stores plus
// earlier commits), then publishes the buffer's writes. The returned
// word count prices the commit drain.
func (m *Machine) CommitThread(tid int) (int, error) {
	buf := m.Bufs[tid]
	if buf.Faulted() {
		m.Stats.Faults++
		return 0, fmt.Errorf("rt: thread %d committing faulted speculative state", tid)
	}
	conflicts := buf.ConflictsWith(m.invocationWrites)
	m.Stats.Conflicts += int64(conflicts)
	for _, a := range buf.WriteSet() {
		m.invocationWrites[a] = true
	}
	n, err := buf.Commit()
	if err != nil {
		return 0, err
	}
	m.Stats.Commits++
	m.Stats.CommittedWords += int64(n)
	return n, nil
}

// DiscardThread drops thread tid's speculative buffer. Discarding an
// *active* buffer means speculative work was thrown away: the invocation
// counts as mis-speculated (idle threads never enter speculation, so
// their recovery discard is a no-op and does not count).
func (m *Machine) DiscardThread(tid int) int {
	if m.Bufs[tid].Active() {
		m.resteeredThisInvo = true
	}
	if m.Bufs[tid].Faulted() {
		m.Stats.Faults++
	}
	n := m.Bufs[tid].Discard()
	m.Stats.Discards++
	m.Stats.DiscardedWords += int64(n)
	return n
}

// NoteDirectStore records a non-speculative store for conflict
// detection.
func (m *Machine) NoteDirectStore(addr int64) {
	m.invocationWrites[addr] = true
}

// ThreadConflicts returns the current conflict count of thread tid's
// buffer against the invocation's architectural writes.
func (m *Machine) ThreadConflicts(tid int) int {
	return m.Bufs[tid].ConflictsWith(m.invocationWrites)
}

// --- Regions ----------------------------------------------------------

// RegionEnter starts cycle/instruction attribution for a region id.
func (m *Machine) RegionEnter(id, clock int64) {
	r := m.Regions[id]
	if r == nil {
		r = &RegionStat{}
		m.Regions[id] = r
	}
	r.Entries++
	if !slices.Contains(m.inRegions, r) {
		m.inRegions = append(m.inRegions, r)
	}
	r.enteredAt = clock
}

// RegionExit stops attribution for a region id.
func (m *Machine) RegionExit(id, clock int64) error {
	r := m.Regions[id]
	i := slices.Index(m.inRegions, r)
	if i < 0 {
		return fmt.Errorf("rt: region_exit(%d) without matching enter", id)
	}
	m.inRegions = slices.Delete(m.inRegions, i, i+1)
	r.Cycles += clock - r.enteredAt
	return nil
}

// RegionInstr attributes one executed instruction to every active
// region. Region instruction counts are meaningful for single-threaded
// hotness profiling (Table 2); in parallel runs the cycle attribution of
// the entering thread is the relevant quantity.
func (m *Machine) RegionInstr() {
	for _, r := range m.inRegions {
		r.Instrs++
	}
}

// RunHook invokes a registered native hook.
func (m *Machine) RunHook(id int64) error {
	h := m.Hooks[id]
	if h == nil {
		return fmt.Errorf("rt: no hook registered for id %d", id)
	}
	h(m)
	return nil
}
