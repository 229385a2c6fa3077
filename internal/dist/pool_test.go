package dist

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/tree"
)

// TestInjectBatchCounts checks batched injection issues exactly the same
// step sequence as token-at-a-time injection and conserves every token.
func TestInjectBatchCounts(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ins := make([]int, 200)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	outs, err := cl.InjectBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(ins) {
		t.Fatalf("batch returned %d outputs for %d tokens", len(outs), len(ins))
	}
	for i, o := range outs {
		if o < 0 || o >= w {
			t.Fatalf("token %d exited on wire %d, width %d", i, o, w)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range cl.OutCounts() {
		total += n
	}
	if total != int64(len(ins)) {
		t.Fatalf("network emitted %d tokens, injected %d", total, len(ins))
	}
	if _, err := cl.InjectBatch(nil); err != nil {
		t.Fatal("empty batch must be a no-op, got", err)
	}
}

// TestInjectBatchDuringReconfig races batched and single-token injection
// against split/merge cycles: the endpoint-pooled resume path must never
// cross-deliver a resume meant for a previous token, and the quiescent
// network must still satisfy the step property.
func TestInjectBatchDuringReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	// Even injectors send batches, odd ones single tokens.
	var injected atomic.Int64
	stop := startLoad(t, cl, 4, func(g int, rng *rand.Rand) error {
		if g%2 == 1 {
			_, err := cl.Inject(rng.Intn(w))
			injected.Add(1)
			return err
		}
		outs, err := cl.InjectBatch(randomBatch(rng, 16, w))
		injected.Add(int64(len(outs)))
		return err
	})
	for cycle := 0; cycle < 6; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("1"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	want := injected.Load()
	var got int64
	for _, n := range cl.OutCounts() {
		got += n
	}
	if got != want {
		t.Fatalf("network emitted %d tokens, clients injected %d", got, want)
	}
}

// TestEndpointPoolReuse checks pooled token endpoints are actually reused
// across sequential injections instead of binding a fresh transport
// address per token.
func TestEndpointPoolReuse(t *testing.T) {
	w := 4
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Inject(i % w); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cl.eps); n != 1 {
		t.Fatalf("sequential injection left %d pooled endpoints, want 1", n)
	}
}

// TestInjectBatchValidatesUpfront: a bad wire anywhere in the batch rejects
// the whole batch before any token is injected or counted — the seq range
// and injected counters are only touched by all-valid batches.
func TestInjectBatchValidatesUpfront(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InjectBatch([]int{0, 1, w, 2}); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
	if _, err := cl.InjectBatch([]int{-1}); err == nil {
		t.Fatal("negative wire accepted")
	}
	var total int64
	for _, n := range cl.OutCounts() {
		total += n
	}
	if total != 0 {
		t.Fatalf("rejected batches emitted %d tokens", total)
	}
	for in := range cl.injected {
		if c := cl.injected[in].Load(); c != 0 {
			t.Fatalf("rejected batch counted %d tokens on wire %d", c, in)
		}
	}
}
