package dist

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
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
// against split/merge cycles: tokens turned away by frozen components must
// each re-enter exactly once, and the quiescent network must still satisfy
// the step property.
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

// TestEndpointPoolReuse checks that a batch's Request.From is its pooled
// scratch's label, minted once and reused across sequential injections:
// every message of 50 Injects one after another names the same sender, and
// nothing is bound for it.
func TestEndpointPoolReuse(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC may empty the pool
	w := 4
	fabric := &repliedMem{Net: transport.NewMem()}
	froms := map[transport.Addr]int{}
	fabric.replied = func(req transport.Request) { froms[req.From]++ }
	cl, err := New(w, tree.LeafCut(w), WithTransport(fabric))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Inject(i % w); err != nil {
			t.Fatal(err)
		}
	}
	// The race detector's sync.Pool drops a share of what is put back, so
	// under it a label is only held to being minted once per scratch.
	if labels := cl.labels.Load(); uint64(len(froms)) != labels || !raceEnabled && labels != 1 {
		t.Fatalf("sequential injection sent from %v and minted %d labels, want one", froms, labels)
	}
	for from := range froms {
		if _, err := fabric.Net.Send(transport.Request{From: "t:probe", To: from, Kind: kindTotal}, time.Second); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("a send to the batch label %q: %v, want ErrUnreachable", from, err)
		}
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
