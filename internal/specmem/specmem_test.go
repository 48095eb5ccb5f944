package specmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryAllocAndAccess(t *testing.T) {
	m := NewMemory(4)
	a := m.Alloc(10)
	if a != 1 {
		t.Errorf("first alloc at %d, want 1 (0 is null)", a)
	}
	b := m.Alloc(5)
	if b != 11 {
		t.Errorf("second alloc at %d, want 11", b)
	}
	if m.Size() != 16 {
		t.Errorf("Size = %d", m.Size())
	}
	m.MustStore(a+3, 42)
	if got := m.MustLoad(a + 3); got != 42 {
		t.Errorf("load = %d", got)
	}
	// Growth beyond initial capacity.
	big := m.Alloc(1000)
	m.MustStore(big+999, 7)
	if got := m.MustLoad(big + 999); got != 7 {
		t.Errorf("grown load = %d", got)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(8)
	m.Alloc(4)
	if _, err := m.Load(100); err == nil {
		t.Error("load beyond brk must fail")
	}
	if _, err := m.Load(-1); err == nil {
		t.Error("negative load must fail")
	}
	if err := m.Store(100, 1); err == nil {
		t.Error("store beyond brk must fail")
	}
	if !m.InBounds(0) || m.InBounds(5) {
		t.Error("InBounds wrong")
	}
}

func TestMemoryNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative alloc did not panic")
		}
	}()
	NewMemory(1).Alloc(-1)
}

func TestBufferPassThroughWhenInactive(t *testing.T) {
	m := NewMemory(8)
	a := m.Alloc(4)
	b := NewBuffer(m)
	if err := b.Store(a, 9); err != nil {
		t.Fatal(err)
	}
	if got := m.MustLoad(a); got != 9 {
		t.Errorf("inactive store did not hit memory: %d", got)
	}
	v, err := b.Load(a)
	if err != nil || v != 9 {
		t.Errorf("inactive load = %d, %v", v, err)
	}
	if b.Active() {
		t.Error("buffer should be inactive")
	}
}

func TestSpeculativeBufferingAndForwarding(t *testing.T) {
	m := NewMemory(16)
	a := m.Alloc(4)
	m.MustStore(a, 100)
	b := NewBuffer(m)
	if err := b.Enter(); err != nil {
		t.Fatal(err)
	}
	if err := b.Enter(); err == nil {
		t.Error("nested enter must fail")
	}
	// Speculative store invisible to memory.
	if err := b.Store(a, 200); err != nil {
		t.Fatal(err)
	}
	if m.MustLoad(a) != 100 {
		t.Error("speculative store leaked to memory")
	}
	// Store-to-load forwarding.
	v, _ := b.Load(a)
	if v != 200 {
		t.Errorf("forwarded load = %d, want 200", v)
	}
	loads, stores, fwd := b.Stats()
	if loads != 1 || stores != 1 || fwd != 1 {
		t.Errorf("stats = %d %d %d", loads, stores, fwd)
	}
	if ws := b.WriteSet(); len(ws) != 1 {
		t.Errorf("write set = %v, want one pending write", ws)
	}
}

func TestCommitDrainsInOrder(t *testing.T) {
	m := NewMemory(16)
	a := m.Alloc(4)
	b := NewBuffer(m)
	_ = b.Enter()
	_ = b.Store(a, 1)
	_ = b.Store(a+1, 2)
	_ = b.Store(a, 3) // overwrite: single buffered slot
	ws := b.WriteSet()
	if len(ws) != 2 || ws[0] != a || ws[1] != a+1 {
		t.Errorf("write set = %v, want [a a+1] (coalesced)", ws)
	}
	n, err := b.Commit()
	if err != nil || n != 2 {
		t.Fatalf("commit = %d, %v", n, err)
	}
	if m.MustLoad(a) != 3 || m.MustLoad(a+1) != 2 {
		t.Error("commit did not apply latest values")
	}
	if b.Active() {
		t.Error("commit should deactivate")
	}
	if _, err := b.Commit(); err == nil {
		t.Error("commit without enter must fail")
	}
}

func TestDiscardRollsBack(t *testing.T) {
	m := NewMemory(16)
	a := m.Alloc(2)
	m.MustStore(a, 5)
	b := NewBuffer(m)
	_ = b.Enter()
	_ = b.Store(a, 99)
	n := b.Discard()
	if n != 1 {
		t.Errorf("discarded = %d", n)
	}
	if m.MustLoad(a) != 5 {
		t.Error("discard leaked speculative state")
	}
	// Discard when inactive is a harmless no-op.
	if n := b.Discard(); n != 0 {
		t.Errorf("double discard = %d", n)
	}
	// Buffer is reusable after discard.
	if err := b.Enter(); err != nil {
		t.Fatal(err)
	}
	_ = b.Store(a, 7)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if m.MustLoad(a) != 7 {
		t.Error("reuse after discard failed")
	}
}

func TestSpeculativeFaultSuppression(t *testing.T) {
	m := NewMemory(8)
	m.Alloc(2)
	b := NewBuffer(m)
	_ = b.Enter()
	v, err := b.Load(1 << 40)
	if err != nil || v != 0 {
		t.Errorf("speculative wild load = %d, %v; want 0, nil", v, err)
	}
	if !b.Faulted() {
		t.Error("fault flag not set")
	}
	if err := b.Store(1<<40, 3); err != nil {
		t.Errorf("speculative wild store errored: %v", err)
	}
	if _, err := b.Commit(); err == nil {
		t.Error("committing a faulted buffer must fail")
	}
	// Discard clears the fault; the buffer is reusable afterwards.
	b.Discard()
	if err := b.Enter(); err != nil {
		t.Fatalf("re-enter after discard: %v", err)
	}
	if b.Faulted() {
		t.Error("fault flag survived discard+enter")
	}
}

func TestReadSetAndConflicts(t *testing.T) {
	m := NewMemory(32)
	a := m.Alloc(8)
	b := NewBuffer(m)
	_ = b.Enter()
	_, _ = b.Load(a)
	_, _ = b.Load(a + 1)
	_ = b.Store(a+2, 1)
	_, _ = b.Load(a + 2) // forwarded: must NOT enter read set
	if n := b.ConflictsWith(map[int64]bool{a: true, a + 1: true, a + 2: true, a + 3: true}); n != 2 {
		t.Errorf("read set holds %d of a..a+3, want 2 (a, a+1)", n)
	}
	conflicts := b.ConflictsWith(map[int64]bool{a: true, a + 2: true})
	if conflicts != 1 {
		t.Errorf("conflicts = %d, want 1 (a only; a+2 was forwarded)", conflicts)
	}
}

// TestSpeculativeEquivalence: executing a random sequence of loads and
// stores speculatively and committing yields the same final memory as
// executing directly; discarding yields the original memory.
func TestSpeculativeEquivalence(t *testing.T) {
	f := func(seed int64, commit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int64(64)
		m1 := NewMemory(size)
		m2 := NewMemory(size)
		a1 := m1.Alloc(32)
		a2 := m2.Alloc(32)
		for i := int64(0); i < 32; i++ {
			v := rng.Int63n(100)
			m1.MustStore(a1+i, v)
			m2.MustStore(a2+i, v)
		}
		before := words(m1, a1, 32)

		b := NewBuffer(m1)
		_ = b.Enter()
		for op := 0; op < 50; op++ {
			off := rng.Int63n(32)
			if rng.Intn(2) == 0 {
				v1, _ := b.Load(a1 + off)
				v2 := m2.MustLoad(a2 + off)
				if commit && v1 != v2 {
					return false
				}
			} else {
				v := rng.Int63n(1000)
				_ = b.Store(a1+off, v)
				if commit {
					m2.MustStore(a2+off, v)
				}
			}
		}
		if commit {
			if _, err := b.Commit(); err != nil {
				return false
			}
			return words(m1, a1, 32) == words(m2, a2, 32)
		}
		b.Discard()
		return words(m1, a1, 32) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func words(m *Memory, base, n int64) [32]int64 {
	var s [32]int64
	for i := int64(0); i < n && i < 32; i++ {
		s[i] = m.MustLoad(base + i)
	}
	return s
}
