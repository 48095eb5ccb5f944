package native

import (
	"context"
	"testing"

	"spice"
)

// seqSum is the oracle: the plain sequential traversal.
func seqSum(head *Node) (int64, int64) {
	var sum, n int64
	for nd := head; nd != nil; nd = nd.Next {
		sum += nd.W
		n++
	}
	return sum, n
}

// TestNativeRegistry checks the registry surface: the four shipped
// kernels resolve by name, enumerate sorted, and unknown names miss.
func TestNativeRegistry(t *testing.T) {
	for _, name := range []string{"sumlist", "drift", "shuffle", "hostile"} {
		if ByName(name) == nil {
			t.Fatalf("kernel %q not registered", name)
		}
	}
	if ByName("no-such-kernel") != nil {
		t.Fatal("unknown kernel resolved")
	}
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

// TestKernelsSequentialEquivalence runs every registered kernel
// through a spice.Runner across churned invocations and checks each
// invocation's result against the sequential oracle — whatever the
// kernel's churn profile does to the predictor, results must stay exact.
func TestKernelsSequentialEquivalence(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			inst := k.New(600, 42, 16)
			r, err := spice.NewRunner(Loop(), spice.Config{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for inv := 0; inv < 25; inv++ {
				want, wantN := seqSum(inst.Head)
				got, err := r.Run(context.Background(), inst.Head)
				if err != nil {
					t.Fatalf("inv %d: %v", inv, err)
				}
				if got != want {
					t.Fatalf("inv %d: got %d, sequential %d (%d nodes)", inv, got, want, wantN)
				}
				inst.Mutate()
			}
		})
	}
}

// TestNativeMutatorsKeepStructureConsistent checks the invariant every
// consumer leans on: after any number of Mutate calls, the node set and
// the reachable chain agree (same length, no cycle), and the instance
// stays non-empty.
func TestNativeMutatorsKeepStructureConsistent(t *testing.T) {
	for _, k := range All() {
		t.Run(k.Name, func(t *testing.T) {
			inst := k.New(200, 7, 32)
			for inv := 0; inv < 50; inv++ {
				inst.Mutate()
				var n int64
				for nd := inst.Head; nd != nil; nd = nd.Next {
					n++
					if n > int64(len(inst.Nodes))+1 {
						t.Fatalf("inv %d: cycle or leak: walked %d nodes, set has %d", inv, n, len(inst.Nodes))
					}
				}
				if n == 0 {
					t.Fatalf("inv %d: list emptied", inv)
				}
				if n != int64(len(inst.Nodes)) {
					t.Fatalf("inv %d: chain has %d nodes, set has %d", inv, n, len(inst.Nodes))
				}
			}
		})
	}
}

// TestNativeChurnZeroIsImmutable checks that churn 0 makes Mutate a
// no-op — the contract the serving layer's batched (RunBatch) path
// relies on.
func TestNativeChurnZeroIsImmutable(t *testing.T) {
	inst := ByName("hostile").New(100, 3, 0)
	before, beforeN := seqSum(inst.Head)
	inst.Mutate()
	after, afterN := seqSum(inst.Head)
	if before != after || beforeN != afterN {
		t.Fatalf("churn-0 Mutate changed the structure: %d/%d -> %d/%d", before, beforeN, after, afterN)
	}
}

// BenchmarkKernelScan is serve_light's instance, a 2 000-node sumlist,
// on a width-1 Runner over Loop and over SpecLoop: what a DOALL node
// costs in each loop's block form (ns/node). spiced serves every kernel
// through SpecLoop, so the two rows should read alike.
func BenchmarkKernelScan(b *testing.B) {
	const size = 2000
	for _, c := range []struct {
		name string
		spec bool
	}{{"sumlist_loop", false}, {"sumlist_spec", true}} {
		b.Run(c.name, func(b *testing.B) {
			inst := ByName("sumlist").New(size, 1, 0)
			loop := Loop()
			if c.spec {
				loop = SpecLoop()
				loop.Cells = inst.Cells
			}
			r, err := spice.NewRunner(loop, spice.Config{Threads: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			ctx := context.Background()
			if got, err := r.Run(ctx, inst.Head); err != nil {
				b.Fatal(err)
			} else if want, _ := seqSum(inst.Head); got != want {
				b.Fatalf("result %d, sequential %d", got, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(ctx, inst.Head); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/size, "ns/node")
		})
	}
}
