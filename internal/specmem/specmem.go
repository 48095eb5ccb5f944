// Package specmem provides the speculative memory subsystem: a flat
// word-addressed memory plus per-thread versioned write buffers with
// commit, discard and read/write-set conflict detection.
//
// This models the architectural support of Section 3 of the paper
// ("Speculative State" and "Conflict Detection"): speculative threads
// buffer their stores; on commit the buffer is drained into main memory,
// on mis-speculation it is discarded, undoing all changes. Loads by a
// speculative thread see their own buffered stores first (store-to-load
// forwarding), then main memory.
//
// Addresses are indices of 64-bit words. Speculative accesses outside the
// allocated range are suppressed and flag a fault (the paper's "cause
// memory faults by accessing some invalid memory location" case — a TLS
// memory system defers such faults until the thread would commit);
// non-speculative out-of-range accesses return an error, since the
// non-speculative thread executes the original program and must be
// memory safe.
package specmem

import "fmt"

// Memory is a flat, word-addressed simulated memory with a bump
// allocator. Address 0 is reserved as the null pointer: it is allocated
// and kept at zero so that accidental null dereferences are detectable.
type Memory struct {
	words []int64
	brk   int64
}

// NewMemory creates a memory with capacity for at least initialWords.
// One word is reserved at address 0 for null.
func NewMemory(initialWords int64) *Memory {
	if initialWords < 1 {
		initialWords = 1
	}
	return &Memory{words: make([]int64, initialWords), brk: 1}
}

// Alloc reserves n words and returns the base address of the region.
// Allocation grows the backing store as needed; memory is zeroed.
func (m *Memory) Alloc(n int64) int64 {
	if n < 0 {
		panic("specmem: negative allocation")
	}
	base := m.brk
	m.brk += n
	for int64(len(m.words)) < m.brk {
		m.words = append(m.words, make([]int64, len(m.words)+1)...)
	}
	return base
}

// Size returns the current allocated extent in words.
func (m *Memory) Size() int64 { return m.brk }

// InBounds reports whether addr is a currently-allocated word.
func (m *Memory) InBounds(addr int64) bool { return addr >= 0 && addr < m.brk }

// Load reads a word non-speculatively.
func (m *Memory) Load(addr int64) (int64, error) {
	if !m.InBounds(addr) {
		return 0, fmt.Errorf("specmem: load out of bounds at %d (brk %d)", addr, m.brk)
	}
	return m.words[addr], nil
}

// Store writes a word non-speculatively.
func (m *Memory) Store(addr, val int64) error {
	if !m.InBounds(addr) {
		return fmt.Errorf("specmem: store out of bounds at %d (brk %d)", addr, m.brk)
	}
	m.words[addr] = val
	return nil
}

// MustLoad is Load for callers that have validated the address.
func (m *Memory) MustLoad(addr int64) int64 {
	v, err := m.Load(addr)
	if err != nil {
		panic(err)
	}
	return v
}

// MustStore is Store for callers that have validated the address.
func (m *Memory) MustStore(addr, val int64) {
	if err := m.Store(addr, val); err != nil {
		panic(err)
	}
}

// Buffer is one thread's speculative state: an ordered write buffer
// layered over a Memory, plus read/write sets for conflict detection.
// The zero-ish state returned by NewBuffer is inactive: loads and stores
// pass through to memory directly.
type Buffer struct {
	mem    *Memory
	active bool
	// writes holds the current speculative value per address; order
	// preserves first-write order for deterministic commits.
	writes map[int64]int64
	order  []int64
	// readSet records addresses read from main memory (not forwarded
	// from the thread's own writes) while speculative.
	readSet map[int64]bool
	faulted bool
	// stats
	nLoads, nStores, nForwarded int64
}

// NewBuffer creates an inactive buffer over mem.
func NewBuffer(mem *Memory) *Buffer {
	return &Buffer{
		mem:     mem,
		writes:  make(map[int64]int64),
		readSet: make(map[int64]bool),
	}
}

// Enter begins speculation. Entering twice is an error (the transform
// emits exactly one spec_enter per invocation).
func (b *Buffer) Enter() error {
	if b.active {
		return fmt.Errorf("specmem: nested speculative enter")
	}
	b.active = true
	return nil
}

// Active reports whether the buffer is currently speculative.
func (b *Buffer) Active() bool { return b.active }

// Faulted reports whether a suppressed speculative memory fault occurred
// since the last Enter.
func (b *Buffer) Faulted() bool { return b.faulted }

// Load reads a word through the buffer: speculative threads see their
// own buffered writes first, then main memory. Out-of-bounds speculative
// loads return 0 and set the fault flag.
func (b *Buffer) Load(addr int64) (int64, error) {
	b.nLoads++
	if b.active {
		if v, ok := b.writes[addr]; ok {
			b.nForwarded++
			return v, nil
		}
		if !b.mem.InBounds(addr) {
			b.faulted = true
			return 0, nil
		}
		b.readSet[addr] = true
		return b.mem.words[addr], nil
	}
	return b.mem.Load(addr)
}

// Store writes a word through the buffer. Speculative stores are
// buffered; out-of-bounds speculative stores are suppressed with the
// fault flag set.
func (b *Buffer) Store(addr, val int64) error {
	b.nStores++
	if b.active {
		if !b.mem.InBounds(addr) {
			b.faulted = true
			return nil
		}
		if _, ok := b.writes[addr]; !ok {
			b.order = append(b.order, addr)
		}
		b.writes[addr] = val
		return nil
	}
	return b.mem.Store(addr, val)
}

// WriteSet returns buffered write addresses in first-write order.
func (b *Buffer) WriteSet() []int64 { return append([]int64(nil), b.order...) }

// ConflictsWith counts addresses in this buffer's read set that appear
// in the given earlier-thread write set: the inter-thread store-to-load
// conflicts a TLS memory system must detect. The caller supplies the
// union of write sets of all logically-earlier threads.
func (b *Buffer) ConflictsWith(earlierWrites map[int64]bool) int {
	n := 0
	for a := range b.readSet {
		if earlierWrites[a] {
			n++
		}
	}
	return n
}

// Commit drains the buffered writes into memory in first-write order and
// deactivates the buffer. It returns the number of words written.
// Committing a faulted buffer is an error: the underlying program would
// have trapped.
func (b *Buffer) Commit() (int, error) {
	if !b.active {
		return 0, fmt.Errorf("specmem: commit without enter")
	}
	if b.faulted {
		return 0, fmt.Errorf("specmem: commit of faulted speculative state")
	}
	n := len(b.order)
	for _, addr := range b.order {
		b.mem.words[addr] = b.writes[addr]
	}
	b.reset()
	return n, nil
}

// Discard drops all buffered state and deactivates the buffer, restoring
// the pre-speculation view of memory. Discarding an inactive buffer is a
// no-op so that squashed threads that never entered speculation (e.g.
// skipped an invocation) can run their recovery code unconditionally.
func (b *Buffer) Discard() int {
	n := len(b.order)
	b.reset()
	return n
}

func (b *Buffer) reset() {
	b.active = false
	b.faulted = false
	clear(b.writes)
	b.order = b.order[:0]
	clear(b.readSet)
}

// Stats reports load/store/forwarded counters since buffer creation.
func (b *Buffer) Stats() (loads, stores, forwarded int64) {
	return b.nLoads, b.nStores, b.nForwarded
}
