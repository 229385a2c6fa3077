package component

import (
	"sync"
	"testing"

	"repro/internal/tree"
)

// TestStepWireIsTotalModWidth checks the masked wire assignment against
// total mod width for every width of T_w from 2 to 4096, at totals around
// and far beyond a multiple of the width: Step's wire, and the base
// TryStepN returns, from which the batch engines derive (base+i) mod width.
func TestStepWireIsTotalModWidth(t *testing.T) {
	for w := uint64(2); w <= 4096; w *= 2 {
		c := tree.Component{Kind: tree.KindBitonic, Width: int(w)}
		for _, start := range []uint64{0, 1, w - 1, w, 3*w + 5, 1<<62 + 7} {
			s := NewWithTotal(c, start)
			for k := uint64(0); k < 3; k++ {
				if out := s.Step(); uint64(out) != (start+k)%w {
					t.Fatalf("width %d total %d: Step wire %d, want %d", w, start+k, out, (start+k)%w)
				}
			}
			if base, _ := s.TryStepN(w + 1); base != start+3 {
				t.Fatalf("width %d: TryStepN base %d, want %d", w, base, start+3)
			}
		}
	}
}

// BenchmarkStepContended is every goroutine stepping one State: each CAS
// moves the component's line between cores, so at -cpu 2 and above ns/op is
// the host's cache-line transfer cost, the floor a shared component word
// puts under a warm token (see DESIGN.md, "Warm-token write budget").
func BenchmarkStepContended(b *testing.B) {
	s := New(tree.MustRoot(64))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Step()
		}
	})
}

// BenchmarkStepPrivate is the same loop with one State per goroutine:
// the uncontended cost of a step, against which the contended one is read.
func BenchmarkStepPrivate(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		s := New(tree.MustRoot(64))
		for pb.Next() {
			s.Step()
		}
	})
}

// TestConcurrentSteps hammers one component from many goroutines and
// checks the lock-free fetch-add kept the count exact and the per-wire
// distribution a step sequence.
func TestConcurrentSteps(t *testing.T) {
	c := tree.MustRoot(8)
	s := New(c)
	const workers = 8
	const per = 10000
	counts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		counts[g] = make([]uint64, c.Width)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				counts[g][s.Step()]++
			}
		}()
	}
	wg.Wait()
	if got, want := s.Total(), uint64(workers*per); got != want {
		t.Fatalf("total %d, want %d", got, want)
	}
	perWire := make([]uint64, c.Width)
	for _, row := range counts {
		for w, n := range row {
			perWire[w] += n
		}
	}
	for w, n := range perWire {
		if want := s.EmittedOn(w); n != want {
			t.Fatalf("wire %d emitted %d, want %d (step sequence of %d)", w, n, want, s.Total())
		}
	}
}
