package tcpnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// batchCalls pools SendBatch's working slice, so a warm batch allocates
// nothing of its own. A zero entry is a request that failed before it left.
var batchCalls = sync.Pool{New: func() any { return new([]pendingCall) }}

// SendBatch implements transport.BatchSender: each request is framed on a
// checked-out connection and written at once, and only after every request
// has left are the replies collected, under a single deadline. Requests are
// independent: one that cannot be encoded or sent, or whose reply is late,
// fails alone with the error Send would have returned.
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

	calls := batchCalls.Get().(*[]pendingCall)
	b := (*calls)[:0]
	for i, req := range reqs {
		pc, err := n.issue(req, timeout)
		b = append(b, pc)
		outs[i], errs[i] = nil, err
	}

	// One timer bounds the whole collection. Once it has fired, a reply
	// that is already waiting in its slot still counts; one that is not is
	// that request's timeout.
	t := getTimer(timeout)
	expired := false
	for i, call := range b {
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
	clear(b) // pooled scratch must not pin connections or reply slots
	*calls = b
	batchCalls.Put(calls)
}
