package cutnet

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitonic"
	"repro/internal/tree"
)

// mustNet builds a cut network or fails the test.
func mustNet(t *testing.T, w int, cut tree.Cut) *Net {
	t.Helper()
	n, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidatesCut(t *testing.T) {
	if _, err := New(8, tree.Cut{"0": true}); err == nil {
		t.Fatal("incomplete cut accepted")
	}
	if _, err := New(7, tree.RootCut()); err == nil {
		t.Fatal("non-power-of-two width accepted")
	}
}

func TestRootOnlyIsIdealCounter(t *testing.T) {
	n, err := NewRootOnly(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		out, hops, err := n.InjectTrace(rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		if out != i%16 {
			t.Fatalf("token %d exited %d, want %d", i, out, i%16)
		}
		if hops != 1 {
			t.Fatalf("token %d took %d hops, want 1", i, hops)
		}
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectRejectsBadWire(t *testing.T) {
	n, _ := NewRootOnly(4)
	if _, err := n.Inject(-1); err == nil {
		t.Fatal("negative wire accepted")
	}
	if _, err := n.Inject(4); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

// TestEveryCutCountsSequential: the fundamental Theorem 2.1 check under
// sequential feeding — token t must exit wire t mod w for any cut.
func TestEveryCutCountsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{4, 8, 16, 32} {
		cuts := []tree.Cut{tree.RootCut(), tree.LeafCut(w)}
		for l := 0; l <= tree.MaxLevel(w); l++ {
			uc, err := tree.UniformCut(w, l)
			if err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, uc)
		}
		for i := 0; i < 6; i++ {
			cuts = append(cuts, tree.RandomCut(w, rng.Float64(), rng))
		}
		for ci, cut := range cuts {
			n := mustNet(t, w, cut)
			for i := 0; i < 3*w; i++ {
				out, err := n.Inject(rng.Intn(w))
				if err != nil {
					t.Fatal(err)
				}
				if out != i%w {
					t.Fatalf("w=%d cut#%d (%d comps): token %d exited %d, want %d",
						w, ci, len(cut), i, out, i%w)
				}
			}
			if err := n.CheckStep(); err != nil {
				t.Fatalf("w=%d cut#%d: %v", w, ci, err)
			}
		}
	}
}

// TestLeafCutMatchesClassicBitonic: expanding T_w fully must reproduce the
// AHS94 balancer-level network exactly (experiment E1's core assertion).
func TestLeafCutMatchesClassicBitonic(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32} {
		n := mustNet(t, w, tree.LeafCut(w))
		ref, err := bitonic.New(w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 5*w; i++ {
			in := rng.Intn(w)
			got, err := n.Inject(in)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Traverse(in)
			if got != want {
				t.Fatalf("w=%d token %d on wire %d: cutnet %d, classic %d", w, i, in, got, want)
			}
		}
	}
}

// TestLeafCutHopsMatchBitonicDepth: a token through the fully expanded
// network passes exactly depth(w) balancers.
func TestLeafCutHopsMatchBitonicDepth(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		n := mustNet(t, w, tree.LeafCut(w))
		_, hops, err := n.InjectTrace(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := bitonic.LayerDepth(w); hops != want {
			t.Fatalf("w=%d hops = %d, want %d", w, hops, want)
		}
	}
}

// TestInjectAllocatesNothing: a warm token steps through the compiled table
// and the live states by index, so it allocates nothing, even through the
// 1024 balancers of the fully expanded width-256 network.
func TestInjectAllocatesNothing(t *testing.T) {
	n := mustNet(t, 256, tree.LeafCut(256))
	in := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Inject(in); err != nil {
			t.Fatal(err)
		}
		in = (in + 7) % 256
	}); allocs != 0 {
		t.Fatalf("Inject allocates %.1f times per token, want 0", allocs)
	}
}

// TestSplitPreservesBehavior: splitting components mid-stream must not
// disturb the emission sequence.
func TestSplitPreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{8, 16, 32} {
		n, err := NewRootOnly(w)
		if err != nil {
			t.Fatal(err)
		}
		token := 0
		inject := func(k int) {
			for j := 0; j < k; j++ {
				out, err := n.Inject(rng.Intn(w))
				if err != nil {
					t.Fatal(err)
				}
				if out != token%w {
					t.Fatalf("w=%d token %d exited %d, want %d (cut size %d)",
						w, token, out, token%w, n.Size())
				}
				token++
			}
		}
		// Interleave random injections and random splits until fully split.
		for {
			inject(rng.Intn(2*w + 1))
			comps := n.Components()
			splittable := comps[:0]
			for _, c := range comps {
				if !c.IsLeaf() {
					splittable = append(splittable, c)
				}
			}
			if len(splittable) == 0 {
				break
			}
			if err := n.Split(splittable[rng.Intn(len(splittable))].Path); err != nil {
				t.Fatal(err)
			}
		}
		inject(2 * w)
		if err := n.CheckStep(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergePreservesBehavior: merging back never disturbs the sequence.
func TestMergePreservesBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{8, 16, 32} {
		n := mustNet(t, w, tree.LeafCut(w))
		token := 0
		inject := func(k int) {
			for j := 0; j < k; j++ {
				out, err := n.Inject(rng.Intn(w))
				if err != nil {
					t.Fatal(err)
				}
				if out != token%w {
					t.Fatalf("w=%d token %d exited %d, want %d", w, token, out, token%w)
				}
				token++
			}
		}
		for n.Size() > 1 {
			inject(rng.Intn(2*w + 1))
			// Merge a random internal node all of whose children are live.
			cut := n.Cut()
			var candidates []tree.Path
			seen := map[tree.Path]bool{}
			for p := range cut {
				if pp, _, ok := p.Parent(); ok && !seen[pp] {
					seen[pp] = true
					candidates = append(candidates, pp)
				}
			}
			if len(candidates) == 0 {
				break
			}
			p := candidates[rng.Intn(len(candidates))]
			if err := n.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if n.Size() != 1 {
			t.Fatalf("w=%d: expected to merge back to the root, have %d comps", w, n.Size())
		}
		inject(2 * w)
		if err := n.CheckStep(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecursiveMerge: merging the root of a deeply split tree works in one
// call by recursively merging children first.
func TestRecursiveMerge(t *testing.T) {
	w := 16
	n := mustNet(t, w, tree.LeafCut(w))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		if _, err := n.Inject(rng.Intn(w)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Merge(""); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 1 {
		t.Fatalf("size = %d, want 1", n.Size())
	}
	// The merged root continues the count.
	out, err := n.Inject(0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 50%w {
		t.Fatalf("post-merge token exited %d, want %d", out, 50%w)
	}
}

func TestSplitErrors(t *testing.T) {
	n, _ := NewRootOnly(4)
	if err := n.Split("1"); err == nil {
		t.Fatal("splitting a non-live component should fail")
	}
	if err := n.Split(""); err != nil {
		t.Fatal(err)
	}
	// Children of B4 are width-2 leaves.
	if err := n.Split("0"); err == nil {
		t.Fatal("splitting a leaf should fail")
	}
}

func TestMergeErrors(t *testing.T) {
	n, _ := NewRootOnly(4)
	if err := n.Merge(""); err == nil {
		t.Fatal("merging a live component should fail")
	}
	if err := n.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := n.Merge("0"); err == nil {
		t.Fatal("merging a leaf path should fail")
	}
}

// TestConcurrentInjectionQuiescentStep: concurrent tokens, then quiescent
// check; repeated across reconfigurations.
func TestConcurrentInjectionQuiescentStep(t *testing.T) {
	w := 16
	n, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	phases := []func() error{
		func() error { return n.Split("") },
		func() error { return n.Split("0") },
		func() error { return n.Split("2") },
		func() error { return n.Merge("0") },
		func() error { return n.Merge("") },
	}
	for pi, reconfigure := range phases {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 250; i++ {
					if _, err := n.Inject(rng.Intn(w)); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(pi*10 + g))
		}
		wg.Wait()
		if err := n.CheckStep(); err != nil {
			t.Fatalf("phase %d: %v", pi, err)
		}
		if err := reconfigure(); err != nil {
			t.Fatalf("phase %d reconfigure: %v", pi, err)
		}
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsMergesCounters(t *testing.T) {
	n, _ := NewRootOnly(8)
	if err := n.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := n.Merge(""); err != nil {
		t.Fatal(err)
	}
	if n.Splits() != 1 || n.Merges() != 1 {
		t.Fatalf("splits/merges = %d/%d, want 1/1", n.Splits(), n.Merges())
	}
}

func TestStateAccessor(t *testing.T) {
	n, _ := NewRootOnly(4)
	if _, ok := n.State(""); !ok {
		t.Fatal("root state missing")
	}
	if _, ok := n.State("0"); ok {
		t.Fatal("non-live state present")
	}
}

// TestRandomizedSplitMergeInject is a fuzz-style schedule test: random
// interleavings of injections (on random wires), splits and merges, always
// checking that token t exits wire t mod w. This is the strongest
// single-process check of Theorem 2.1 plus the split/merge state transfer.
func TestRandomizedSplitMergeInject(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n, err := NewRootOnly(w)
			if err != nil {
				t.Fatal(err)
			}
			token := 0
			for step := 0; step < 40; step++ {
				switch rng.Intn(3) {
				case 0: // inject a batch
					k := rng.Intn(w + 1)
					for j := 0; j < k; j++ {
						out, err := n.Inject(rng.Intn(w))
						if err != nil {
							t.Fatal(err)
						}
						if out != token%w {
							t.Fatalf("w=%d seed=%d: token %d exited %d, want %d",
								w, seed, token, out, token%w)
						}
						token++
					}
				case 1: // split something
					var splittable []tree.Path
					for _, c := range n.Components() {
						if !c.IsLeaf() {
							splittable = append(splittable, c.Path)
						}
					}
					if len(splittable) > 0 {
						if err := n.Split(splittable[rng.Intn(len(splittable))]); err != nil {
							t.Fatal(err)
						}
					}
				case 2: // merge something
					cut := n.Cut()
					var candidates []tree.Path
					seen := map[tree.Path]bool{}
					for p := range cut {
						if pp, _, ok := p.Parent(); ok && !seen[pp] {
							seen[pp] = true
							candidates = append(candidates, pp)
						}
					}
					if len(candidates) > 0 {
						if err := n.Merge(candidates[rng.Intn(len(candidates))]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := n.CheckStep(); err != nil {
				t.Fatalf("w=%d seed=%d: %v", w, seed, err)
			}
		}
	}
}

func TestWidthAccessor(t *testing.T) {
	n, err := NewRootOnly(32)
	if err != nil {
		t.Fatal(err)
	}
	if n.Width() != 32 {
		t.Fatalf("width = %d", n.Width())
	}
}
