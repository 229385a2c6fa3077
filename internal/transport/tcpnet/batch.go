package tcpnet

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// batchCalls pools SendBatch's working slice, so a warm batch allocates
// nothing of its own. A nil entry is a request that failed before it left.
var batchCalls = sync.Pool{New: func() any { return new([]*conn) }}

// SendBatch implements transport.BatchSender: each request is written at
// once on a connection of its own, and only after every request has left
// are the replies read, under a single deadline. Requests are independent:
// one that cannot be encoded or sent, or whose reply is late, fails alone
// with the error Send would have returned.
func (n *Net) SendBatch(reqs []transport.Request, timeout time.Duration, outs []any, errs []error) {
	n.sent.Add(uint64(len(reqs)))
	if !n.enter() {
		for i := range reqs {
			outs[i], errs[i] = nil, errClosed
		}
		return
	}
	defer n.outcalls.Done()

	calls := batchCalls.Get().(*[]*conn)
	b := (*calls)[:0]
	for i, req := range reqs {
		c, err := n.issue(req, timeout)
		b = append(b, c)
		outs[i], errs[i] = nil, err
	}
	deadline := time.Now().Add(timeout)
	for i, c := range b {
		if c != nil {
			outs[i], errs[i] = c.reply(deadline)
		}
	}
	clear(b) // pooled scratch must not pin connections
	*calls = b
	batchCalls.Put(calls)
}
