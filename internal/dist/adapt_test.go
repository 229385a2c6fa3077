package dist

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/adapt"
)

func TestSetGroupLimitRejectsNegative(t *testing.T) {
	cl, err := NewRootOnly(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{-1, -64} {
		err := cl.SetGroupLimit(bad)
		var se *adapt.SizeError
		if !errors.As(err, &se) || se.Size != bad {
			t.Fatalf("SetGroupLimit(%d) = %v, want *adapt.SizeError", bad, err)
		}
	}
	// 0 removes the cap and is not an error; positive values are accepted.
	if err := cl.SetGroupLimit(0); err != nil {
		t.Fatalf("SetGroupLimit(0) = %v", err)
	}
	if err := cl.SetGroupLimit(16); err != nil {
		t.Fatalf("SetGroupLimit(16) = %v", err)
	}
}

// TestGroupLimitChunksRPCs pins the cost accounting of the cap: a
// root-only cut visits one component once per batch, so a 64-token batch
// under a 16-token cap must issue exactly 4 group arrive RPCs (and 64
// under no cap exactly 1, as TestGroupBatchOneRPCPerComponentVisit pins).
func TestGroupLimitChunksRPCs(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetGroupLimit(16); err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 64)
	for i := range ins {
		ins[i] = i % w
	}
	_, before := cl.NetStats()
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after := cl.NetStats()
	if got := after.Sub(before).Calls; got != 4 {
		t.Fatalf("64 tokens under cap 16 issued %d RPCs, want 4", got)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveBatchMatchesSequential is the exact-equivalence oracle over
// the controller's reachable size set: for EVERY size an AIMD controller
// under a config can emit (adapt.Config.Sizes), routing a batch through
// InjectBatch with that size active produces per-output-wire counts
// identical to the sequential reference path. A controller pinned at the
// size (Min=Max=s) exercises the UseAdapt consultation itself, not just
// the explicit-limit plumbing. The cap counts tokens per message, not per
// component: the batch is ceil(tokens/s) RPCs on its one fabric, most of
// them visiting several of the entry components.
func TestAdaptiveBatchMatchesSequential(t *testing.T) {
	w := 8
	cfg := adapt.Config{Min: 1, Max: 48, Initial: 5, Step: 7, Backoff: 0.4}
	sizes := cfg.Sizes()
	if len(sizes) < 5 {
		t.Fatalf("degenerate size set %v; the oracle needs several adaptation points", sizes)
	}
	rng := rand.New(rand.NewSource(99))
	ins := make([]int, 300)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	cut := mustCut(t, w, 2)

	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InjectBatchSeq(ins); err != nil {
		t.Fatal(err)
	}
	want := ref.OutCounts()

	for _, s := range sizes {
		cl, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		ctrl := adapt.New(adapt.Config{Min: s, Max: s, Initial: s})
		cl.UseAdapt(ctrl)
		if got := ctrl.Size(); got != s {
			t.Fatalf("controller pinned at %d reports %d", s, got)
		}
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatalf("size %d: %v", s, err)
		}
		if _, cs := cl.NetStats(); cs.Calls != uint64((len(ins)+s-1)/s) {
			t.Fatalf("size %d: %d RPCs for %d tokens on one fabric", s, cs.Calls, len(ins))
		}
		got := cl.OutCounts()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d: output counts diverge: %v vs sequential %v", s, got, want)
			}
		}
		if err := cl.CheckStep(); err != nil {
			t.Fatalf("size %d: %v", s, err)
		}
	}
}

// TestExplicitLimitBeatsController pins the precedence rule: an explicit
// SetGroupLimit overrides an installed controller. With the controller
// recommending whole-batch groups but an explicit cap of 1, a root-only
// batch must cost one RPC per token.
func TestExplicitLimitBeatsController(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	cl.UseAdapt(adapt.New(adapt.Config{Min: 512, Max: 512, Initial: 512}))
	if err := cl.SetGroupLimit(1); err != nil {
		t.Fatal(err)
	}
	ins := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, before := cl.NetStats()
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after := cl.NetStats()
	if got := after.Sub(before).Calls; got != uint64(len(ins)) {
		t.Fatalf("explicit cap 1 issued %d RPCs for %d tokens, want one each", got, len(ins))
	}
	// Clearing the explicit cap restores the controller's recommendation:
	// the next batch collapses back to one RPC.
	if err := cl.SetGroupLimit(0); err != nil {
		t.Fatal(err)
	}
	_, before = cl.NetStats()
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after = cl.NetStats()
	if got := after.Sub(before).Calls; got != 1 {
		t.Fatalf("controller-sized batch issued %d RPCs, want 1", got)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveBatchDuringReconfig races controller-capped batches against
// split/merge cycles while the controller itself is being driven between
// sizes, so chunk boundaries interleave with freeze/store/resume.
func TestAdaptiveBatchDuringReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := adapt.New(adapt.Config{Min: 1, Max: 16, Initial: 4, Step: 4, Backoff: 0.5, Hysteresis: 1})
	cl.UseAdapt(ctrl)

	stop := startLoad(t, cl, 2, func(_ int, rng *rand.Rand) error {
		_, err := cl.InjectBatch(randomBatch(rng, 24, w))
		return err
	})
	quit, done := make(chan struct{}), make(chan struct{})
	go func() { // drives the controller between sizes while batches flow
		defer close(done)
		samples := []adapt.Sample{{}, {Latency: time.Second}, {Frames: 3, Writes: 1}}
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
				ctrl.Observe(samples[i%len(samples)])
			}
		}
	}()
	for cycle := 0; cycle < 3; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	close(quit)
	<-done
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}
