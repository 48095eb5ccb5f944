package faults

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	for s := Site(0); s < numSites; s++ {
		if op := p.Hit(s); op.Kind != KindNone {
			t.Fatalf("nil plane Hit(%s) = %+v", s, op)
		}
		if err := p.Check(s); err != nil {
			t.Fatalf("nil plane Check(%s) = %v", s, err)
		}
	}
	p.Release()
	p.Disarm()
	if p.Fired() != 0 || p.Hits(ChunkBody) != 0 {
		t.Fatal("nil plane counted something")
	}
	if got := p.String(); got != "faults: nil plane" {
		t.Fatalf("String = %q", got)
	}
}

func TestMatchCountFiresExactlyOnce(t *testing.T) {
	p := New(Point{Site: ChunkBody, Match: 3, Kind: KindErr})
	for i := 1; i <= 10; i++ {
		err := p.Check(ChunkBody)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: want ErrInjected, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected %v", i, err)
		}
	}
	if p.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", p.Fired())
	}
	if p.Hits(ChunkBody) != 10 {
		t.Fatalf("Hits = %d, want 10", p.Hits(ChunkBody))
	}
}

func TestKindInterpretations(t *testing.T) {
	p := New(
		Point{Site: PoolAcquire, Match: 1, Kind: KindCancel},
		Point{Site: PoolAcquire, Match: 2, Kind: KindErr},
		Point{Site: ChunkBody, Match: 1, Kind: KindPanic},
	)
	if err := p.Check(PoolAcquire); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: got %v", err)
	}
	if err := p.Check(PoolAcquire); !errors.Is(err, ErrInjected) {
		t.Fatalf("err: got %v", err)
	}
	func() {
		defer func() {
			v := recover()
			inj, ok := v.(Injected)
			if !ok || inj.Site != ChunkBody || inj.Match != 1 {
				t.Fatalf("panic value = %#v", v)
			}
			if !strings.Contains(inj.String(), "chunk-body") {
				t.Fatalf("Injected.String = %q", inj.String())
			}
		}()
		_ = p.Check(ChunkBody)
		t.Fatal("expected panic")
	}()
}

func TestSlowAndStallServeDelays(t *testing.T) {
	p := New(
		Point{Site: ExecWorker, Match: 1, Kind: KindSlow, Dur: 10 * time.Millisecond},
		Point{Site: ExecWorker, Match: 2, Kind: KindStall, Dur: 10 * time.Second},
	)
	start := time.Now()
	if op := p.Hit(ExecWorker); op.Kind != KindSlow {
		t.Fatalf("op = %+v", op)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("slow returned after %v", el)
	}
	// Release from another goroutine unblocks the long stall.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		p.Release()
		p.Release() // idempotent
	}()
	start = time.Now()
	if op := p.Hit(ExecWorker); op.Kind != KindStall {
		t.Fatalf("op.Kind = %v", op.Kind)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stall was not released early (%v)", el)
	}
	wg.Wait()
}

func TestDisarmStopsFiring(t *testing.T) {
	p := New(Point{Site: ServerAdmit, Match: 1, Kind: KindErr})
	p.Disarm()
	for i := 0; i < 5; i++ {
		if err := p.Check(ServerAdmit); err != nil {
			t.Fatalf("disarmed plane fired: %v", err)
		}
	}
	if p.Fired() != 0 || p.Hits(ServerAdmit) != 0 {
		t.Fatal("disarmed plane counted hits")
	}
}

func TestSeededDeterministic(t *testing.T) {
	a := Seeded(42, 8, 100, 20*time.Millisecond, ExecWorker, ChunkBody, ServerDispatch)
	b := Seeded(42, 8, 100, 20*time.Millisecond, ExecWorker, ChunkBody, ServerDispatch)
	if a.String() != b.String() {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a, b)
	}
	c := Seeded(43, 8, 100, 20*time.Millisecond, ExecWorker, ChunkBody, ServerDispatch)
	if a.String() == c.String() {
		t.Fatalf("different seeds, same schedule: %s", a)
	}
	// Seeded draws only site-safe kinds: PoolAcquire must never panic.
	for seed := int64(0); seed < 50; seed++ {
		p := Seeded(seed, 16, 4, time.Millisecond, PoolAcquire)
		for i := 0; i < 8; i++ {
			func() {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("seed %d: PoolAcquire panicked: %v", seed, v)
					}
				}()
				_ = p.Check(PoolAcquire)
			}()
		}
	}
}

func TestSeededEmptySites(t *testing.T) {
	p := Seeded(1, 4, 10, time.Millisecond)
	if got := p.String(); !strings.Contains(got, "empty") {
		t.Fatalf("String = %q", got)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("server-dispatch:3:stall:200ms, chunk-body:10:panic, pool-acquire:1:err")
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"server-dispatch:3:stall:200ms", "chunk-body:10:panic", "pool-acquire:1:err"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
	if p2, err := Parse("  "); err != nil || p2 != nil {
		t.Fatalf("empty spec: %v, %v", p2, err)
	}
	for _, bad := range []string{
		"nope:1:err", "chunk-body:0:err", "chunk-body:1:explode",
		"chunk-body:1", "chunk-body:1:slow:xyz", "chunk-body:x:err",
		"a:b:c:d:e",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

// FuzzParse: a spec Parse accepts renders (String, less its "faults:"
// prefix) to a spec that parses again, to the same rendering — so a
// schedule logged from a chaos run can be replayed as written.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"server-dispatch:3:stall:200ms, chunk-body:10:panic, pool-acquire:1:err",
		"exec-worker:1:slow", "recovery-round:2:cancel:1h2m", "server-build:7:err:0s",
		"chunk-body:1:panic,chunk-body:1:err", " ", "nope:1:err", "chunk-body:0:err",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil { // refused, or the empty spec
			return
		}
		rendered := strings.TrimPrefix(p.String(), "faults:")
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its rendering %q refused: %v", spec, rendered, err)
		}
		if again.String() != p.String() {
			t.Fatalf("Parse(%q) renders %q, its reparse %q", spec, p.String(), again.String())
		}
	})
}

func TestDefaultDurApplied(t *testing.T) {
	p := New(Point{Site: ExecWorker, Match: 1, Kind: KindSlow})
	if !strings.Contains(p.String(), DefaultDur.String()) {
		t.Fatalf("String = %q, want default dur", p.String())
	}
}

func TestConcurrentHitsFireEachPointOnce(t *testing.T) {
	const goroutines = 8
	const per = 50
	p := New(
		Point{Site: ExecWorker, Match: 10, Kind: KindErr},
		Point{Site: ExecWorker, Match: 200, Kind: KindErr},
		Point{Site: ExecWorker, Match: 399, Kind: KindErr},
	)
	var wg sync.WaitGroup
	var fired atomic64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := p.Check(ExecWorker); err != nil {
					fired.add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.load(); got != 3 {
		t.Fatalf("fired %d times, want 3", got)
	}
	if p.Hits(ExecWorker) != goroutines*per {
		t.Fatalf("Hits = %d", p.Hits(ExecWorker))
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
