package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Net is the deterministic in-memory switch: Send looks up the destination
// endpoint and runs its handler synchronously in the caller's goroutine.
// Delivery is reliable and instantaneous, so the default fabric adds no
// nondeterminism to anything built on it.
//
// When dedup is enabled (it is off on the ideal fabric, where every logical
// call is sent exactly once, and switched on by Faulty), each endpoint
// carries a bounded DedupTable: a retry or a network duplicate of an
// already-executed request returns the cached reply without re-running the
// handler. This is the receiver half of at-most-once delivery; see
// DedupTable for the striping and the retirement bound.
type Net struct {
	mu    sync.RWMutex
	eps   map[Addr]*endpoint
	dedup bool

	sent      atomic.Uint64
	delivered atomic.Uint64
	dedupHits atomic.Uint64

	// rpc observes server-side handler execution (nil when
	// uninstrumented); swapped atomically so InstrumentRPC on a live
	// switch never races in-flight Sends.
	rpc atomic.Pointer[obs.RPCObs]
}

// endpoint is one bound address. Its dedup table is installed atomically so
// EnableDedup on a live switch never races in-flight Sends: a Send either
// loads nil (executes directly, the pre-dedup semantic) or loads the table
// and dedups.
type endpoint struct {
	h Handler

	dedup atomic.Pointer[DedupTable] // nil until dedup is enabled
}

// NewMem creates an empty in-memory switch.
func NewMem() *Net {
	return &Net{eps: make(map[Addr]*endpoint)}
}

// EnableDedup switches on receiver-side at-most-once dedup for all current
// and future endpoints. Faulty calls this on its inner fabric; the ideal
// fabric leaves it off so reliable single-shot traffic costs no memory.
func (n *Net) EnableDedup() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dedup = true
	for _, ep := range n.eps {
		// CAS so enabling twice never discards a table already holding
		// cached replies. Sends racing the installation either miss the
		// table (direct execution, the pre-dedup semantic) or use it.
		ep.dedup.CompareAndSwap(nil, NewDedupTable(0))
	}
}

// Bind implements Transport.
func (n *Net) Bind(a Addr, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", a)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[a]; ok {
		return fmt.Errorf("transport: address %q already bound", a)
	}
	ep := &endpoint{h: h}
	if n.dedup {
		ep.dedup.Store(NewDedupTable(0))
	}
	n.eps[a] = ep
	return nil
}

// Unbind implements Transport.
func (n *Net) Unbind(a Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, a)
}

// Site implements Transport: the switch is one fabric instance, so whatever
// is bound at a is served here, in the caller's own goroutine. It does not
// look a up: the question is where a request to a would be served, not
// whether anything is bound there, and a handler asks it once per component
// it steps.
func (n *Net) Site(Addr) string { return "" }

// Send implements Transport. On the ideal fabric the timeout is never
// exercised: the handler runs inline and its reply returns immediately.
func (n *Net) Send(req Request, timeout time.Duration) (any, error) {
	n.sent.Add(1)
	n.mu.RLock()
	ep := n.eps[req.To]
	n.mu.RUnlock()
	if ep == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnreachable, req.To)
	}

	tbl := ep.dedup.Load()
	if tbl == nil {
		// Dedup off: execute directly.
		n.delivered.Add(1)
		return n.serve(ep, req)
	}
	reply, err, hit := tbl.Do(req.ID, func() (any, error) {
		n.delivered.Add(1)
		return n.serve(ep, req)
	})
	if hit {
		n.dedupHits.Add(1)
	}
	return reply, err
}

// InstrumentRPC implements Transport: every handler execution is timed into
// per-kind latency histograms, and sampled requests get a child span
// stitched to the trace context.
func (n *Net) InstrumentRPC(o *obs.RPCObs) {
	n.rpc.Store(o)
}

// serve runs the endpoint's handler, observed by the installed RPCObs
// (one atomic load when uninstrumented).
func (n *Net) serve(ep *endpoint, req Request) (any, error) {
	o := n.rpc.Load()
	if o == nil {
		return ep.h(req)
	}
	sp, start := o.Begin(req.Kind, req.Trace)
	reply, err := ep.h(req)
	o.End(req.Kind, string(req.To), sp, start, err)
	return reply, err
}

// dedupShardHits returns the per-stripe duplicate counts summed across all
// bound endpoints (index i is stripe i of every endpoint's table). The sum
// over the slice equals Stats().DedupHits; the spread across entries shows
// how well the shard hash distributes retried request IDs.
func (n *Net) dedupShardHits() [DedupShards]uint64 {
	var hits [DedupShards]uint64
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, ep := range n.eps {
		if tbl := ep.dedup.Load(); tbl != nil {
			sh := tbl.ShardHits()
			for i := range sh {
				hits[i] += sh[i]
			}
		}
	}
	return hits
}

// DedupEntries returns the number of cached calls across all bound
// endpoints — the quantity the dedup retirement bound keeps flat on
// long-lived endpoints.
func (n *Net) DedupEntries() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, ep := range n.eps {
		if tbl := ep.dedup.Load(); tbl != nil {
			total += tbl.Len()
		}
	}
	return total
}

// Stats implements Transport.
func (n *Net) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		DedupHits: n.dedupHits.Load(),
	}
}
