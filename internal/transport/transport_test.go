package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestMemBasics(t *testing.T) {
	n := NewMem()
	if err := n.Bind("a", func(req Request) (any, error) {
		return fmt.Sprintf("%s/%v", req.Kind, req.Body), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind("a", func(Request) (any, error) { return nil, nil }); err == nil {
		t.Fatal("double bind accepted")
	}
	reply, err := n.Send(Request{ID: 1, From: "x", To: "a", Kind: "k", Body: 7}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply != "k/7" {
		t.Fatalf("reply = %v", reply)
	}
	if _, err := n.Send(Request{ID: 2, To: "nope"}, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	n.Unbind("a")
	if _, err := n.Send(Request{ID: 3, To: "a"}, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err after unbind = %v, want ErrUnreachable", err)
	}
	st := n.Stats()
	if st.Sent != 3 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemAppErrorPassthrough(t *testing.T) {
	n := NewMem()
	appErr := errors.New("boom")
	if err := n.Bind("a", func(Request) (any, error) { return nil, appErr }); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(Request{ID: 1, To: "a"}, time.Second); !errors.Is(err, appErr) {
		t.Fatalf("err = %v, want app error", err)
	}
	// The client must not retry application errors.
	c := NewClient(n, RetryConfig{})
	if _, err := c.Call("x", "a", "k", nil); !errors.Is(err, appErr) {
		t.Fatalf("client err = %v, want app error", err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("client stats = %+v, want no retries", st)
	}
}

func TestMemDedup(t *testing.T) {
	n := NewMem()
	var runs atomic.Int64
	if err := n.Bind("a", func(Request) (any, error) {
		return runs.Add(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	n.EnableDedup()
	r1, err := n.Send(Request{ID: 42, To: "a"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := n.Send(Request{ID: 42, To: "a"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", runs.Load())
	}
	if r1 != r2 {
		t.Fatalf("duplicate reply %v != original %v", r2, r1)
	}
	if st := n.Stats(); st.DedupHits != 1 {
		t.Fatalf("stats = %+v, want 1 dedup hit", st)
	}
	// A different ID executes again.
	if _, err := n.Send(Request{ID: 43, To: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", runs.Load())
	}
}

func TestFaultyDropTimesOutAndClientRetries(t *testing.T) {
	mem := NewMem()
	var runs atomic.Int64
	if err := mem.Bind("a", func(Request) (any, error) { return runs.Add(1), nil }); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(mem, FaultConfig{Seed: 1, DropRate: 1})
	if _, err := f.Send(Request{ID: 1, To: "a"}, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	c := NewClient(f, RetryConfig{Timeout: time.Millisecond, MaxRetries: 2, Backoff: 100 * time.Microsecond})
	if _, err := c.Call("x", "a", "k", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call err = %v, want wrapped ErrTimeout", err)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Failures != 1 || st.Timeouts != 3 {
		t.Fatalf("client stats = %+v", st)
	}
	if runs.Load() != 0 {
		t.Fatal("handler ran despite total loss")
	}
}

func TestAtMostOnceUnderLossAndDuplication(t *testing.T) {
	mem := NewMem()
	var runs atomic.Int64
	if err := mem.Bind("ctr", func(Request) (any, error) { return runs.Add(1), nil }); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(mem, FaultConfig{
		Seed: 7, DropRate: 0.25, DupRate: 0.5,
		LatencyBase: 5 * time.Microsecond, LatencyJitter: 20 * time.Microsecond,
	})
	c := NewClient(f, RetryConfig{Timeout: time.Millisecond, MaxRetries: 16, Backoff: 50 * time.Microsecond})

	const calls = 60
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls/4; i++ {
				if _, err := c.Call("x", "ctr", "inc", nil); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// Dup goroutines may still be in flight; give them a beat.
	time.Sleep(5 * time.Millisecond)
	if failed.Load() != 0 {
		t.Fatalf("%d calls exhausted retries (loss too aggressive for budget?)", failed.Load())
	}
	if runs.Load() != calls {
		t.Fatalf("handler ran %d times for %d logical calls (at-most-once violated)", runs.Load(), calls)
	}
	st := f.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 || st.DedupHits == 0 {
		t.Fatalf("faults not exercised: %+v", st)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	mem := NewMem()
	if err := mem.Bind("b", func(Request) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(mem, FaultConfig{Seed: 1})
	f.Partition("a", "b")
	if _, err := f.Send(Request{ID: 1, From: "a", To: "b"}, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned send err = %v, want ErrTimeout", err)
	}
	// The partition is pairwise: other sources still get through.
	if _, err := f.Send(Request{ID: 2, From: "c", To: "b"}, time.Millisecond); err != nil {
		t.Fatalf("unrelated pair blocked: %v", err)
	}
	f.Heal("b", "a") // order-insensitive
	if _, err := f.Send(Request{ID: 3, From: "a", To: "b"}, time.Millisecond); err != nil {
		t.Fatalf("healed send err = %v", err)
	}
	if st := f.Stats(); st.Partitions != 1 {
		t.Fatalf("stats = %+v, want 1 partition refusal", st)
	}
}

func TestFaultyLatencyInjection(t *testing.T) {
	mem := NewMem()
	if err := mem.Bind("a", func(Request) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	base, jitter := 200*time.Microsecond, 100*time.Microsecond
	f := NewFaulty(mem, FaultConfig{Seed: 3, LatencyBase: base, LatencyJitter: jitter})
	start := time.Now()
	if _, err := f.Send(Request{ID: 1, To: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*base {
		t.Fatalf("round trip %v faster than two latency legs %v", rtt, 2*base)
	}
	lats := f.Latencies()
	if len(lats) != 1 || lats[0] < (2*base).Seconds() {
		t.Fatalf("latency samples = %v", lats)
	}
}

// TestFaultDecisionsDeterministic: with a fixed seed and sequential sends,
// the injected fault sequence is reproducible.
func TestFaultDecisionsDeterministic(t *testing.T) {
	run := func() Stats {
		mem := NewMem()
		if err := mem.Bind("a", func(Request) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
		f := NewFaulty(mem, FaultConfig{Seed: 11, DropRate: 0.3, DupRate: 0.2,
			ReorderRate: 0.2, LatencyJitter: 2 * time.Microsecond})
		for i := 0; i < 50; i++ {
			_, _ = f.Send(Request{ID: uint64(i), To: "a"}, 50*time.Microsecond)
		}
		st := f.Stats()
		st.Delivered, st.DedupHits = 0, 0 // async duplicates race the snapshot
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault sequences differ: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Reordered == 0 {
		t.Fatalf("faults not exercised: %+v", a)
	}
}

// TestPlacerIsOptIn: the in-memory switch answers the placement question
// with "served here"; the fault injector answers every address with a site
// of its own, so everything built over Faulty keeps every hop a message
// that can be lost.
func TestPlacerIsOptIn(t *testing.T) {
	var mem Transport = NewMem()
	if mem.Site("c:0#1") != "" {
		t.Fatal("the in-memory switch does not report its addresses as served here")
	}
	var faulty Transport = NewFaulty(NewMem(), FaultConfig{})
	if a, b := faulty.Site("c:0#1"), faulty.Site("c:1#2"); a == "" || b == "" || a == b {
		t.Fatalf("Faulty places c:0#1 at %q and c:1#2 at %q: hops behind the fault injector would stop being messages", a, b)
	}
}

func TestClientBackoffCap(t *testing.T) {
	cfg := RetryConfig{Timeout: time.Millisecond, MaxRetries: 3,
		Backoff: 100 * time.Microsecond, BackoffCap: 150 * time.Microsecond}.withDefaults()
	if cfg.BackoffCap != 150*time.Microsecond {
		t.Fatalf("cap clobbered: %+v", cfg)
	}
	// A cap below the initial backoff is raised to it.
	cfg = RetryConfig{Backoff: time.Millisecond, BackoffCap: time.Microsecond}.withDefaults()
	if cfg.BackoffCap != time.Millisecond {
		t.Fatalf("cap not raised to backoff: %+v", cfg)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Sent: 10, Delivered: 8, DedupHits: 1, Dropped: 2, Duplicated: 1, Reordered: 1, Partitions: 1}
	b := Stats{Sent: 25, Delivered: 20, DedupHits: 3, Dropped: 5, Duplicated: 2, Reordered: 4, Partitions: 1}
	d := b.Sub(a)
	want := Stats{Sent: 15, Delivered: 12, DedupHits: 2, Dropped: 3, Duplicated: 1, Reordered: 3}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if got := a.Add(d); got != b {
		t.Fatalf("Add(Sub) = %+v, want %+v", got, b)
	}
	ca := ClientStats{Calls: 4, Retries: 2, Timeouts: 2, Failures: 1}
	cb := ClientStats{Calls: 9, Retries: 5, Timeouts: 6, Failures: 1}
	if got, want := cb.Sub(ca), (ClientStats{Calls: 5, Retries: 3, Timeouts: 4}); got != want {
		t.Fatalf("ClientStats.Sub = %+v, want %+v", got, want)
	}
}

func TestClientInstrumented(t *testing.T) {
	mem := NewMem()
	if err := mem.Bind("a", func(Request) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := NewClient(mem, RetryConfig{})
	c.Instrument(reg)
	for i := 0; i < 5; i++ {
		if _, err := c.Call("x", "a", "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["transport.call.seconds"].Count; got != 5 {
		t.Fatalf("RTT samples = %d, want 5", got)
	}
	att := snap.Histograms["transport.call.attempts"]
	if att.Count != 5 || att.Mean != 1 {
		t.Fatalf("attempts histogram = %+v, want 5 one-attempt calls", att)
	}
	if got := snap.Histograms["transport.retry.backoff.seconds"].Count; got != 0 {
		t.Fatalf("backoff samples = %d on a reliable fabric, want 0", got)
	}

	// A call that exhausts its retry budget is a call too — the slowest one
	// there is — and its round-trip time must be observed like any other.
	lossy := NewClient(NewFaulty(mem, FaultConfig{Seed: 7, DropRate: 1}), RetryConfig{
		Timeout: 200 * time.Microsecond, MaxRetries: 2,
		Backoff: 50 * time.Microsecond, BackoffCap: 100 * time.Microsecond})
	lossy.Instrument(reg)
	if _, err := lossy.Call("x", "a", "k", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call through a fully lossy fabric: %v, want ErrTimeout", err)
	}
	rtt := reg.Snapshot().Histograms["transport.call.seconds"]
	if rtt.Count != 6 {
		t.Fatalf("RTT samples = %d after a failed call, want 6", rtt.Count)
	}
	if rtt.Max < (3 * 200 * time.Microsecond).Seconds() {
		t.Fatalf("slowest RTT %.6fs is under the failed call's three timeouts", rtt.Max)
	}
}

func TestCallSpanRecordsRetries(t *testing.T) {
	mem := NewMem()
	if err := mem.Bind("a", func(Request) (any, error) { return "ok", nil }); err != nil {
		t.Fatal(err)
	}
	// Drop every request leg so every attempt times out.
	f := NewFaulty(mem, FaultConfig{Seed: 7, DropRate: 1})
	reg := obs.NewRegistry()
	c := NewClient(f, RetryConfig{Timeout: 200 * time.Microsecond, MaxRetries: 2,
		Backoff: 50 * time.Microsecond, BackoffCap: 100 * time.Microsecond})
	c.Instrument(reg)
	tr := obs.NewTracer(1, 4)
	sp := tr.Start("call")
	if _, err := c.CallSpan("x", "a", "k", nil, sp); err == nil {
		t.Fatal("call through a fully lossy fabric succeeded")
	}
	sp.Finish()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("retained %d spans, want 1", len(spans))
	}
	retries := 0
	for _, e := range spans[0].Events {
		if e.Kind == "retry" {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("span recorded %d retries, want 2", retries)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["transport.retry.backoff.seconds"].Count; got != 2 {
		t.Fatalf("backoff samples = %d, want 2", got)
	}
	att := snap.Histograms["transport.call.attempts"]
	if att.Count != 1 || att.Mean != 3 {
		t.Fatalf("attempts histogram = %+v, want one 3-attempt call", att)
	}
}

// TestInstrumentedMemRPC: the memory switch runs handlers through an
// installed RPCObs — per-kind histograms move, and a sampled caller
// context yields a server-side child span stitched to it.
func TestInstrumentedMemRPC(t *testing.T) {
	n := NewMem()
	if err := n.Bind("c/00", func(req Request) (any, error) {
		return req.Body, nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1, 16)
	n.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{Tracer: tr, Registry: reg}))

	parent := tr.Start("token")
	if _, err := n.Send(Request{ID: 1, From: "x", To: "c/00", Kind: "arrive", Trace: parent.Context(), Body: uint64(7)}, time.Second); err != nil {
		t.Fatal(err)
	}
	parent.Finish()

	if h, ok := reg.Snapshot().Histograms["rpc.arrive.seconds"]; !ok || h.Count != 1 {
		t.Fatalf("rpc.arrive.seconds = %+v, want 1 observation", h)
	}
	var server *obs.Span
	for _, s := range tr.Spans() {
		if s.Name == "rpc:arrive" {
			server = s
		}
	}
	if server == nil {
		t.Fatal("no server-side rpc:arrive span")
	}
	if server.TraceID != parent.TraceID || server.ParentID != parent.SpanID {
		t.Fatalf("server span trace=%x parent=%x, want trace=%x parent=%x",
			server.TraceID, server.ParentID, parent.TraceID, parent.SpanID)
	}
}

// TestInstrumentedSendUnsampledAllocFree pins the hot-path cost of the
// trace spine: with an RPCObs installed but the caller unsampled, a warm
// memory-switch Send allocates nothing.
func TestInstrumentedSendUnsampledAllocFree(t *testing.T) {
	n := NewMem()
	reply := any(uint64(7)) // pre-boxed so the handler itself is alloc-free
	if err := n.Bind("c/00", func(Request) (any, error) {
		return reply, nil
	}); err != nil {
		t.Fatal(err)
	}
	n.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{
		Tracer:   obs.NewTracer(1, 16),
		Registry: obs.NewRegistry(),
		Flight:   obs.NewFlightRecorder(8),
	}))
	req := Request{ID: 1, From: "x", To: "c/00", Kind: "arrive", Body: nil}
	if _, err := n.Send(req, time.Second); err != nil { // warm the per-kind cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Send(req, time.Second); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("unsampled instrumented Send allocates %v per op", allocs)
	}
}

// TestCallBatchSequentialFallback: on a fabric without BatchSender a batch
// is plain Sends, one after another in request order, each a logical call
// with its own fresh ID.
func TestCallBatchSequentialFallback(t *testing.T) {
	n := NewMem()
	var order []uint64
	var ids []uint64
	if err := n.Bind("a", func(req Request) (any, error) {
		order = append(order, req.Body.(uint64))
		ids = append(ids, req.ID)
		if req.Body.(uint64) == 2 {
			return nil, errors.New("boom")
		}
		return req.Body.(uint64) * 10, nil
	}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(n, RetryConfig{IDBase: 1000})
	reqs := []Request{
		{From: "x", To: "a", Kind: "k", Body: uint64(1)},
		{From: "x", To: "a", Kind: "k", Body: uint64(2)},
		{From: "x", To: "nowhere", Kind: "k", Body: uint64(3)},
		{From: "x", To: "a", Kind: "k", Body: uint64(4)},
	}
	replies, errs := make([]any, len(reqs)), make([]error, len(reqs))
	c.CallBatch(reqs, replies, errs, nil)
	if errs[0] != nil || replies[0] != uint64(10) || errs[3] != nil || replies[3] != uint64(40) {
		t.Fatalf("replies %v errs %v", replies, errs)
	}
	if errs[1] == nil || errs[1].Error() != "boom" {
		t.Fatalf("application error = %v", errs[1])
	}
	if !errors.Is(errs[2], ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", errs[2])
	}
	if fmt.Sprint(order) != "[1 2 4]" || fmt.Sprint(ids) != "[1001 1002 1004]" {
		t.Fatalf("handler saw bodies %v with IDs %v", order, ids)
	}
	if cs, st := c.Stats(), n.Stats(); cs.Calls != 4 || cs.Retries != 0 || st.Sent != 4 {
		t.Fatalf("client %+v fabric %+v", cs, st)
	}
}

// lossyBatcher is a BatchSender whose SendBatch loses the replies of the
// requests addressed to "late"; plain Sends always get through.
type lossyBatcher struct {
	*Net
	batches [][]uint64 // request IDs of every SendBatch
	sends   []uint64   // request IDs of every Send
}

func (l *lossyBatcher) Send(req Request, timeout time.Duration) (any, error) {
	l.sends = append(l.sends, req.ID)
	return l.Net.Send(req, timeout)
}

func (l *lossyBatcher) SendBatch(reqs []Request, timeout time.Duration, replies []any, errs []error) {
	var ids []uint64
	for i, req := range reqs {
		ids = append(ids, req.ID)
		replies[i], errs[i] = l.Net.Send(req, timeout)
		if req.To == "late" {
			replies[i], errs[i] = nil, ErrTimeout
		}
	}
	l.batches = append(l.batches, ids)
}

// TestCallBatchUsesCapability: a batch-capable fabric gets the whole batch
// in one SendBatch; only the requests that timed out are re-sent, alone,
// under the ID they had in the batch, so dedup answers them.
func TestCallBatchUsesCapability(t *testing.T) {
	l := &lossyBatcher{Net: NewMem()}
	l.EnableDedup()
	var runs atomic.Int64
	for _, a := range []Addr{"ok", "late"} {
		if err := l.Bind(a, func(req Request) (any, error) {
			runs.Add(1)
			return req.Body, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(l, RetryConfig{Backoff: time.Microsecond})
	reqs := []Request{
		{From: "x", To: "ok", Kind: "k", Body: 1},
		{From: "x", To: "late", Kind: "k", Body: 2},
		{From: "x", To: "ok", Kind: "k", Body: 3},
	}
	replies, errs := make([]any, len(reqs)), make([]error, len(reqs))
	c.CallBatch(reqs, replies, errs, nil)
	for i := range reqs {
		if errs[i] != nil || replies[i] != i+1 {
			t.Fatalf("request %d: (%v, %v)", i, replies[i], errs[i])
		}
	}
	if fmt.Sprint(l.batches) != "[[1 2 3]]" || fmt.Sprint(l.sends) != "[2]" {
		t.Fatalf("fabric saw batches %v and sends %v, want one batch [1 2 3] and a lone re-send of 2", l.batches, l.sends)
	}
	if runs.Load() != 3 || l.Stats().DedupHits != 1 {
		t.Fatalf("%d handler runs, %d dedup hits: the re-send was not at-most-once", runs.Load(), l.Stats().DedupHits)
	}
	if cs := c.Stats(); cs.Calls != 3 || cs.Retries != 1 || cs.Timeouts != 1 {
		t.Fatalf("client stats %+v", cs)
	}

	// A batch of one has nothing to overlap with: it is a Send.
	c.CallBatch(reqs[:1], replies[:1], errs[:1], nil)
	if len(l.batches) != 1 || len(l.sends) != 2 {
		t.Fatalf("single-request batch went through SendBatch: batches %v sends %v", l.batches, l.sends)
	}
}
