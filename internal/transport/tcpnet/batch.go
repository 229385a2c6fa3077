package tcpnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// batchCall is one request of a SendBatch between registration and reply.
type batchCall struct {
	c   *conn
	mux uint64
	ch  chan *wire.Reply // nil: the request failed before it could be sent
}

// batchDest is the share of a SendBatch bound for one resolved destination:
// one pooled connection and the frames to enqueue on it together.
type batchDest struct {
	target string
	c      *conn
	err    error
	frames []outFrame
}

// batchScratch is SendBatch's working memory, pooled so a warm batch
// allocates nothing of its own.
type batchScratch struct {
	calls []batchCall
	dests []batchDest
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// dest returns the batch's entry for target, picking its connection on
// first use. Batches go to a handful of destinations, so a scan beats a map.
func (b *batchScratch) dest(n *Net, target string) *batchDest {
	for i := range b.dests {
		if b.dests[i].target == target {
			return &b.dests[i]
		}
	}
	if len(b.dests) < cap(b.dests) {
		b.dests = b.dests[:len(b.dests)+1] // reuse the slot's frames array
	} else {
		b.dests = append(b.dests, batchDest{})
	}
	d := &b.dests[len(b.dests)-1]
	d.target, d.frames = target, d.frames[:0]
	d.c, d.err = n.pool(target).conn()
	return d
}

// SendBatch implements transport.BatchSender: every request is encoded
// and has its reply slot registered first; then each destination's frames
// join its connection's coalescing queue in one critical section and leave
// in one vectored write; then the replies are collected under a single
// deadline. Requests are independent: one that cannot be encoded or sent,
// or whose reply is late, fails alone with the error Send would have
// returned.
func (n *Net) SendBatch(reqs []transport.Request, timeout time.Duration, outs []any, errs []error) {
	n.sent.Add(uint64(len(reqs)))
	n.flightMu.Lock()
	if n.closed.Load() {
		n.flightMu.Unlock()
		for i := range reqs {
			outs[i], errs[i] = nil, fmt.Errorf("%w: fabric closed", transport.ErrUnreachable)
		}
		return
	}
	n.outcalls.Add(1)
	n.flightMu.Unlock()
	defer n.outcalls.Done()

	b := batchScratches.Get().(*batchScratch)
	b.calls, b.dests = b.calls[:0], b.dests[:0]
	for i, req := range reqs {
		outs[i], errs[i] = nil, nil
		b.calls = append(b.calls, batchCall{})
		d := b.dest(n, n.resolve(req.To))
		if d.err != nil {
			errs[i] = d.err
			continue
		}
		of, mux, ch, err := n.frameRequest(d.c, req)
		if err != nil {
			errs[i] = err
			continue
		}
		d.frames = append(d.frames, of)
		b.calls[i] = batchCall{c: d.c, mux: mux, ch: ch}
	}
	for i := range b.dests {
		if d := &b.dests[i]; len(d.frames) > 0 {
			d.c.sendBatch(d.frames)
			clear(d.frames) // the encoders belong to the connection now
		}
	}

	// One timer bounds the whole collection. Once it has fired, a reply
	// that is already waiting in its slot still counts; one that is not is
	// that request's timeout.
	t := getTimer(timeout)
	expired := false
	for i, call := range b.calls {
		if call.ch == nil {
			continue
		}
		var rep *wire.Reply
		got := false
		if !expired {
			select {
			case rep = <-call.ch:
				got = true
			case <-t.C:
				expired = true
			}
		}
		if !got {
			select {
			case rep = <-call.ch:
				got = true
			default:
			}
		}
		if !got {
			call.c.reclaim(call.mux, call.ch)
			errs[i] = transport.ErrTimeout
			continue
		}
		callSlots.Put(call.ch)
		outs[i], errs[i] = takeReply(rep)
	}
	putTimer(t)
	// Pooled scratch must not pin connections or reply slots.
	clear(b.calls)
	for i := range b.dests {
		b.dests[i].c = nil
	}
	batchScratches.Put(b)
}
