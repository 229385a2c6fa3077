package component

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tree"
)

func TestStepRoundRobin(t *testing.T) {
	c := tree.MustRoot(4)
	s := New(c)
	for i := 0; i < 10; i++ {
		if got := s.Step(); got != i%4 {
			t.Fatalf("step %d = %d, want %d", i, got, i%4)
		}
	}
	if s.Total() != 10 {
		t.Fatalf("total = %d, want 10", s.Total())
	}
	if s.Counter() != 10%4 {
		t.Fatalf("counter = %d, want 2", s.Counter())
	}
}

func TestNewWithTotalContinues(t *testing.T) {
	s := NewWithTotal(tree.MustRoot(8), 13)
	if got := s.Step(); got != 13%8 {
		t.Fatalf("first step = %d, want 5", got)
	}
}

func TestSetTotal(t *testing.T) {
	s := New(tree.MustRoot(4))
	s.SetTotal(7)
	if s.Total() != 7 || s.Counter() != 3 {
		t.Fatalf("total/counter = %d/%d", s.Total(), s.Counter())
	}
}

func TestEmittedOnIsStepSequence(t *testing.T) {
	s := NewWithTotal(tree.MustRoot(4), 6)
	want := []uint64{2, 2, 1, 1}
	for o, w := range want {
		if got := s.EmittedOn(o); got != w {
			t.Fatalf("EmittedOn(%d) = %d, want %d", o, got, w)
		}
	}
}

func TestEmittedOnSumsToTotal(t *testing.T) {
	f := func(total uint16) bool {
		s := NewWithTotal(tree.MustRoot(8), uint64(total))
		var sum uint64
		for o := 0; o < 8; o++ {
			sum += s.EmittedOn(o)
		}
		return sum == uint64(total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepConcurrentTotal(t *testing.T) {
	s := New(tree.MustRoot(16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Step()
			}
		}()
	}
	wg.Wait()
	if s.Total() != 8000 {
		t.Fatalf("total = %d, want 8000", s.Total())
	}
}

func TestSplitTotalsLeafFails(t *testing.T) {
	leaf, err := tree.ComponentAt(4, "0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitTotalsSequential(leaf, 1); err == nil {
		t.Fatal("splitting a leaf should fail")
	}
	if _, err := SplitTotalsFromInputs(leaf, []uint64{0, 0}); err == nil {
		t.Fatal("splitting a leaf should fail")
	}
}

// TestSplitTotalsConservation: the replayed tokens obey the assembly
// conservation invariant, and the entry children's totals sum to x.
func TestSplitTotalsConservation(t *testing.T) {
	for _, kind := range []tree.Kind{tree.KindBitonic, tree.KindMerger, tree.KindMix} {
		for _, width := range []int{4, 8, 32} {
			c := tree.Component{Kind: kind, Width: width}
			for total := uint64(0); total < uint64(3*width); total++ {
				totals, err := SplitTotalsSequential(c, total)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckConservation(c, totals); err != nil {
					t.Fatalf("%v total=%d: %v", c, total, err)
				}
				if got := totals[0] + totals[1]; got != total {
					t.Fatalf("%v total=%d: entry totals sum %d, want %d", c, total, got, total)
				}
			}
		}
	}
}

// TestSplitTotalsPeriodicity: replaying x and x+width tokens produces the
// same child counters modulo the child width, which is what makes the
// mod-k parent state sufficient for initialization.
func TestSplitTotalsPeriodicity(t *testing.T) {
	// rawReplay feeds n sequential tokens (input wire v mod width) through a
	// fresh child assembly without the mod-width reduction SplitTotals
	// applies, so the periodicity is tested for real.
	rawReplay := func(c tree.Component, n int) []uint64 {
		totals := make([]uint64, tree.Degree(c.Kind))
		h := uint64(c.Width / 2)
		for v := 0; v < n; v++ {
			ci, _ := tree.ChildInput(c.Kind, c.Width, v%c.Width)
			for {
				out := int(totals[ci] % h)
				totals[ci]++
				d := tree.ChildNext(c.Kind, c.Width, ci, out)
				if !d.ToChild {
					break
				}
				ci = d.Child
			}
		}
		return totals
	}
	for _, kind := range []tree.Kind{tree.KindBitonic, tree.KindMerger, tree.KindMix} {
		c := tree.Component{Kind: kind, Width: 16}
		h := uint64(8)
		for x := 0; x < 16; x++ {
			a := rawReplay(c, x)
			b := rawReplay(c, x+16)
			for i := range a {
				if a[i]%h != b[i]%h {
					t.Fatalf("%v x=%d child %d: %d vs %d (mod %d)", c, x, i, a[i], b[i], h)
				}
			}
			// And SplitTotalsSequential agrees with the raw replay for
			// x < width (zero full cycles).
			st, err := SplitTotalsSequential(c, uint64(x))
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if st[i] != a[i] {
					t.Fatalf("%v x=%d child %d: SplitTotals=%d raw=%d", c, x, i, st[i], a[i])
				}
			}
		}
	}
}

func TestMergeTotal(t *testing.T) {
	c := tree.Component{Kind: tree.KindMerger, Width: 8}
	total, err := MergeTotal(c, []uint64{3, 4, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 {
		t.Fatalf("merge total = %d, want 7", total)
	}
	if _, err := MergeTotal(c, []uint64{1, 2}); err == nil {
		t.Fatal("wrong child count should fail")
	}
}

// TestSplitMergeRoundTrip: merging immediately after splitting recovers the
// counter (mod width).
func TestSplitMergeRoundTrip(t *testing.T) {
	for _, kind := range []tree.Kind{tree.KindBitonic, tree.KindMerger, tree.KindMix} {
		c := tree.Component{Kind: kind, Width: 16}
		for total := uint64(0); total < 40; total++ {
			totals, err := SplitTotalsSequential(c, total)
			if err != nil {
				t.Fatal(err)
			}
			back, err := MergeTotal(c, totals)
			if err != nil {
				t.Fatal(err)
			}
			if back != total {
				t.Fatalf("%v: split(%d) -> merge = %d", c, total, back)
			}
		}
	}
}

func TestCheckConservationDetectsInFlight(t *testing.T) {
	c := tree.Component{Kind: tree.KindBitonic, Width: 8}
	// One token entered child 0 but never exited.
	if err := CheckConservation(c, []uint64{1, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("expected conservation violation")
	}
	if err := CheckConservation(c, []uint64{1, 0}); err == nil {
		t.Fatal("wrong arity should fail")
	}
	// A consistent state: one token through children 0, 2, 4.
	if err := CheckConservation(c, []uint64{1, 0, 1, 0, 1, 0}); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
}

// bruteForceFromInputs simulates tokens wire by wire through the child
// assembly, the reference for SplitTotalsFromInputs' staged aggregation.
func bruteForceFromInputs(c tree.Component, inputs []uint64) []uint64 {
	totals := make([]uint64, tree.Degree(c.Kind))
	h := uint64(c.Width / 2)
	for in, cnt := range inputs {
		for k := uint64(0); k < cnt; k++ {
			ci, _ := tree.ChildInput(c.Kind, c.Width, in)
			for {
				out := int(totals[ci] % h)
				totals[ci]++
				d := tree.ChildNext(c.Kind, c.Width, ci, out)
				if !d.ToChild {
					break
				}
				ci = d.Child
			}
		}
	}
	return totals
}

// TestSplitTotalsFromInputsMatchesBruteForce: staged aggregation equals the
// token-by-token simulation for arbitrary input distributions...
func TestSplitTotalsFromInputsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []tree.Kind{tree.KindBitonic, tree.KindMerger, tree.KindMix} {
		for _, width := range []int{4, 8, 16} {
			c := tree.Component{Kind: kind, Width: width}
			for trial := 0; trial < 25; trial++ {
				inputs := make([]uint64, width)
				for i := range inputs {
					inputs[i] = uint64(rng.Intn(9))
				}
				got, err := SplitTotalsFromInputs(c, inputs)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForceFromInputs(c, inputs)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v inputs=%v: child %d = %d, want %d", c, inputs, j, got[j], want[j])
					}
				}
				if err := CheckConservation(c, got); err != nil {
					t.Fatalf("%v inputs=%v: %v", c, inputs, err)
				}
			}
		}
	}
}

// ...but wait: token-by-token wire order is not the real temporal order.
// The quiescent state of a balancing network is order-independent given the
// per-wire counts; verify that by comparing against a randomized
// interleaving as well.
func TestSplitTotalsFromInputsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		c := tree.Component{Kind: tree.KindMerger, Width: 8}
		inputs := make([]uint64, 8)
		var feed []int
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(6))
			for k := uint64(0); k < inputs[i]; k++ {
				feed = append(feed, i)
			}
		}
		rng.Shuffle(len(feed), func(i, j int) { feed[i], feed[j] = feed[j], feed[i] })
		totals := make([]uint64, tree.Degree(c.Kind))
		h := uint64(c.Width / 2)
		for _, in := range feed {
			ci, _ := tree.ChildInput(c.Kind, c.Width, in)
			for {
				out := int(totals[ci] % h)
				totals[ci]++
				d := tree.ChildNext(c.Kind, c.Width, ci, out)
				if !d.ToChild {
					break
				}
				ci = d.Child
			}
		}
		got, err := SplitTotalsFromInputs(c, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != totals[j] {
				t.Fatalf("inputs=%v: child %d = %d, randomized sim = %d", inputs, j, got[j], totals[j])
			}
		}
	}
}

// TestSequentialInitIsWrongForSkewedInputs documents why the paper's
// state-only initialization is insufficient: a merger that received all its
// tokens on one wire has different child states than the sequential replay
// assumes, even though the component's own counter is identical.
func TestSequentialInitIsWrongForSkewedInputs(t *testing.T) {
	c := tree.Component{Kind: tree.KindMerger, Width: 4}
	// Three tokens, all on input wire 0 (valid: the halves (3,0) and (0,0)
	// both have the step property).
	skew, err := SplitTotalsFromInputs(c, []uint64{3, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SplitTotalsSequential(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range skew {
		if skew[j] != seq[j] {
			same = false
		}
	}
	if same {
		t.Fatalf("expected differing child states, got %v for both", skew)
	}
}

func TestSplitTotalsFromInputsArity(t *testing.T) {
	c := tree.Component{Kind: tree.KindMix, Width: 8}
	if _, err := SplitTotalsFromInputs(c, make([]uint64, 4)); err == nil {
		t.Fatal("wrong input arity should fail")
	}
}

// TestImbalance: a BITONIC's children replay any input history into exactly
// the parent's output history, a MERGER's do from step-shaped input halves,
// and a MIX's can misplace a token: one token on the bottom half of X8 leaves
// its bottom child on wire 4, where X8 itself emits it on wire 0.
func TestImbalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bitonic := tree.Component{Kind: tree.KindBitonic, Width: 16}
	merger := tree.Component{Kind: tree.KindMerger, Width: 16}
	for trial := 0; trial < 200; trial++ {
		inputs := make([]uint64, 16)
		for i := range inputs {
			inputs[i] = uint64(rng.Intn(5))
		}
		if e := imbalanceOf(t, bitonic, inputs); e != 0 {
			t.Fatalf("%v from %v: imbalance %d, want 0", bitonic, inputs, e)
		}
		top, bottom := rng.Intn(40), rng.Intn(40)
		for i := 0; i < 8; i++ {
			inputs[i] = uint64((top + 7 - i) / 8)
			inputs[8+i] = uint64((bottom + 7 - i) / 8)
		}
		if e := imbalanceOf(t, merger, inputs); e != 0 {
			t.Fatalf("%v from step halves %v: imbalance %d, want 0", merger, inputs, e)
		}
	}
	mix := tree.Component{Kind: tree.KindMix, Width: 8}
	if e := imbalanceOf(t, mix, []uint64{0, 0, 0, 0, 1, 0, 0, 0}); e != 1 {
		t.Fatalf("%v: imbalance %d, want 1", mix, e)
	}
	if _, err := Imbalance(mix, []uint64{1}); err == nil {
		t.Fatal("wrong child count should fail")
	}
}

func imbalanceOf(t *testing.T, c tree.Component, inputs []uint64) uint64 {
	t.Helper()
	totals, err := SplitTotalsFromInputs(c, inputs)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Imbalance(c, totals)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
