package tcpnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSendBatchMatchesSend: a batch is len(reqs) Sends — typed replies,
// application errors and unreachable destinations come back per request.
func TestSendBatchMatchesSend(t *testing.T) {
	n := newNet(t)
	if err := n.Bind("n:inc", func(req transport.Request) (any, error) {
		return req.Body.(uint64) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	reqs := []transport.Request{
		{ID: 1, From: "x", To: "n:inc", Kind: wire.KindCPF, Body: uint64(10)},
		{ID: 2, From: "x", To: "n:gone", Kind: wire.KindCPF, Body: uint64(0)},
		{ID: 3, From: "x", To: "n:inc", Kind: wire.KindCPF, Body: "not a uint64"},
		{ID: 4, From: "x", To: "n:inc", Kind: wire.KindCPF, Body: uint64(40)},
	}
	replies, errs := make([]any, len(reqs)), make([]error, len(reqs))
	n.SendBatch(reqs, time.Second, replies, errs)
	for i, req := range reqs {
		want, wantErr := n.Send(req, time.Second)
		if replies[i] != want || (errs[i] == nil) != (wantErr == nil) {
			t.Errorf("request %d: batch (%v, %v), Send (%v, %v)", i, replies[i], errs[i], want, wantErr)
		}
	}
	if errs[0] != nil || replies[0].(uint64) != 11 || errs[3] != nil || replies[3].(uint64) != 41 {
		t.Fatalf("replies %v errs %v", replies, errs)
	}
	if st := n.Stats(); st.Sent != 8 {
		t.Fatalf("Sent = %d after a 4-request batch and 4 Sends, want 8", st.Sent)
	}
}

// TestSendBatchSendsBeforeWaiting pins the transport.BatchSender contract
// partitioned rounds depend on: every request of a batch leaves before any
// reply is awaited. Each of two destinations answers only once the other's
// request has arrived, so a batch that waited for one reply before sending
// the next request would see that destination give up.
func TestSendBatchSendsBeforeWaiting(t *testing.T) {
	a, b, c := newNet(t), newNet(t), newNet(t)
	arrived := map[*Net]chan struct{}{b: make(chan struct{}), c: make(chan struct{})}
	meet := func(self, other *Net) transport.Handler {
		return func(req transport.Request) (any, error) {
			close(arrived[self])
			select {
			case <-arrived[other]:
				return req.Body, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("the other destination's request never arrived")
			}
		}
	}
	if err := b.Bind("b:1", meet(b, c)); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("c:1", meet(c, b)); err != nil {
		t.Fatal(err)
	}
	if err := a.Route("b:", b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := a.Route("c:", c.Addr()); err != nil {
		t.Fatal(err)
	}
	reqs := []transport.Request{
		{ID: 1, From: "x", To: "b:1", Kind: wire.KindCPF, Body: uint64(0)},
		{ID: 2, From: "x", To: "c:1", Kind: wire.KindCPF, Body: uint64(1)},
	}
	replies, errs := make([]any, len(reqs)), make([]error, len(reqs))
	a.SendBatch(reqs, 10*time.Second, replies, errs)
	for i := range reqs {
		if errs[i] != nil || replies[i].(uint64) != uint64(i) {
			t.Fatalf("request %d: (%v, %v)", i, replies[i], errs[i])
		}
	}
	// a serves nothing, so everything it wrote is this batch: a write each.
	if ws := a.WireStats(); ws.Writes != uint64(len(reqs)) || ws.Frames != ws.Writes {
		t.Fatalf("sender wrote %d frames in %d writes, want %d of each", ws.Frames, ws.Writes, len(reqs))
	}
}

// TestCallBatchRetriesTimedOutAlone: against a handler slower than the
// reply deadline, the requests of a batch that time out are each retried on
// their own with their original ID — the receiver's dedup table answers the
// re-send, so every handler effect happens exactly once — and the requests
// that were answered in time are not retried at all.
func TestCallBatchRetriesTimedOutAlone(t *testing.T) {
	n := newNet(t)
	n.EnableDedup()
	const timeout = 40 * time.Millisecond
	var mu sync.Mutex
	runs := make(map[uint64]int) // request ID -> handler executions
	handler := func(d time.Duration) transport.Handler {
		return func(req transport.Request) (any, error) {
			mu.Lock()
			runs[req.ID]++
			mu.Unlock()
			time.Sleep(d)
			return req.Body, nil
		}
	}
	if err := n.Bind("n:fast", handler(0)); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind("n:slow", handler(3*timeout)); err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient(n, transport.RetryConfig{
		Timeout: timeout, MaxRetries: 10, Backoff: time.Millisecond, BackoffCap: 5 * time.Millisecond,
	})
	var reqs []transport.Request
	slow := 0
	for i, to := range []transport.Addr{"n:fast", "n:slow", "n:fast", "n:slow", "n:fast"} {
		reqs = append(reqs, transport.Request{From: "x", To: to, Kind: wire.KindCPF, Body: uint64(100 + i)})
		if to == "n:slow" {
			slow++
		}
	}
	replies, errs := make([]any, len(reqs)), make([]error, len(reqs))
	c.CallBatch(reqs, replies, errs, nil)
	for i := range reqs {
		if errs[i] != nil || replies[i].(uint64) != uint64(100+i) {
			t.Fatalf("request %d: (%v, %v)", i, replies[i], errs[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != len(reqs) {
		t.Fatalf("handlers saw %d distinct request IDs for %d logical calls: a retry changed its ID", len(runs), len(reqs))
	}
	for id, k := range runs {
		if k != 1 {
			t.Fatalf("request %d ran its handler %d times", id, k)
		}
	}
	cs, st := c.Stats(), n.Stats()
	if cs.Calls != uint64(len(reqs)) || cs.Failures != 0 {
		t.Fatalf("client stats %+v", cs)
	}
	if cs.Timeouts < uint64(slow) || cs.Retries < uint64(slow) {
		t.Fatalf("client stats %+v: the %d slow requests were not retried", cs, slow)
	}
	if st.DedupHits < uint64(slow) {
		t.Fatalf("%d dedup hits: the retries did not reuse their IDs", st.DedupHits)
	}
	// Every attempt beyond the batch is one Send for one slow request.
	if st.Sent != uint64(len(reqs))+cs.Retries {
		t.Fatalf("Sent = %d, want %d batch requests + %d retries", st.Sent, len(reqs), cs.Retries)
	}
	// The timed-out members gave their slots back; the late replies to them
	// found nothing to release twice.
	checkInflight(t, n, 0)
}
