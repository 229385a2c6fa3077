package transport

import (
	"sync"
	"sync/atomic"
)

// DedupShards is the number of stripes in an endpoint's request-ID table.
// Retried calls land on the stripe their ID hashes to, so concurrent
// senders with distinct IDs contend only within their own stripe instead
// of on one endpoint-wide mutex. Power of two (the shard hash keeps the
// top log2(DedupShards) bits of a Fibonacci mix).
const DedupShards = 16

// DefaultDedupCap is the default bound on completed calls remembered per
// endpoint. Request IDs are only ever retried until the sender gets a
// reply, and network duplicates arrive within the fault injector's bounded
// reorder window, so remembering the most recent completions is enough to
// keep handler effects at-most-once; the cap is what keeps a long-lived
// endpoint's memory flat instead of growing with every call it ever
// served (16 stripes x 1024 completed calls).
const DefaultDedupCap = DedupShards * 1024

// dedupShard is one stripe: a mutex, the calls it guards, a hit counter,
// and the retirement ring of completed request IDs (oldest first).
type dedupShard struct {
	mu    sync.Mutex
	calls map[uint64]call // by request ID
	hits  atomic.Uint64   // duplicates served from this stripe

	// done is the capped FIFO of completed request IDs awaiting
	// retirement: head indexes the oldest entry still cached. In-flight
	// calls are never in done and therefore never evicted — a duplicate
	// arriving mid-execution always finds and awaits the original.
	done []uint64
	head int
}

// call is one executed (or executing) request, kept in its stripe's map by
// value and guarded by the stripe's mutex. wait is created lazily by the
// first duplicate that arrives mid-execution (the overwhelmingly common case
// — no duplicate at all — never pays for it).
type call struct {
	wait      *inflightWait // nil until a duplicate needs to wait
	completed bool
	reply     any
	err       error
}

// inflightWait is what the duplicates of an executing call wait on: the
// original stores its result here and closes done, and waiters read
// reply/err only after the close, which the close itself orders. It lives
// apart from the call so that a waiter still finds the result once the
// call has been retired from the map.
type inflightWait struct {
	done  chan struct{}
	reply any
	err   error
}

// DedupTable is a striped receiver-side at-most-once cache: each endpoint
// remembers the reply for every request ID it has recently executed, so a
// retry or a network duplicate of an already-executed request returns the
// cached reply without re-running the handler. A duplicate arriving while
// the original is still executing blocks until the original's reply is
// ready.
//
// The table is bounded: once a stripe holds more than its share of the cap
// in completed calls, the oldest completed entries retire (their replies
// are forgotten). A duplicate older than the whole retained window would
// re-execute the handler, but such a duplicate cannot occur under the
// client protocol: senders stop retrying an ID the moment any attempt's
// reply arrives, and injected network duplicates are delivered within the
// fault injector's bounded delay.
type DedupTable struct {
	shards   [DedupShards]dedupShard
	capShard int
}

// NewDedupTable creates a table bounded to roughly capTotal completed
// calls (capTotal <= 0 means DefaultDedupCap). The bound is enforced per
// stripe at capTotal/DedupShards, minimum 1.
func NewDedupTable(capTotal int) *DedupTable {
	if capTotal <= 0 {
		capTotal = DefaultDedupCap
	}
	capShard := capTotal / DedupShards
	if capShard < 1 {
		capShard = 1
	}
	t := &DedupTable{capShard: capShard}
	for i := range t.shards {
		t.shards[i].calls = make(map[uint64]call)
	}
	return t
}

// shard maps a request ID to its stripe. Request IDs are sequential
// (transport.Client allocates them with an atomic counter), so the
// Fibonacci multiply spreads consecutive IDs across stripes; keeping the
// top bits makes the low-bit patterns of small IDs irrelevant.
func (t *DedupTable) shard(id uint64) *dedupShard {
	return &t.shards[(id*0x9e3779b97f4a7c15)>>(64-4)] // 2^4 == DedupShards
}

// Do executes fn for request ID id at-most-once: the first arrival runs fn
// and caches its result; concurrent or later arrivals of the same ID wait
// for and return the cached result with hit=true (fn not run).
func (t *DedupTable) Do(id uint64, fn func() (any, error)) (reply any, err error, hit bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	if c, ok := sh.calls[id]; ok {
		if c.completed {
			reply, err = c.reply, c.err
			sh.mu.Unlock()
			sh.hits.Add(1)
			return reply, err, true
		}
		if c.wait == nil {
			c.wait = &inflightWait{done: make(chan struct{})}
			sh.calls[id] = c
		}
		w := c.wait
		sh.mu.Unlock()
		sh.hits.Add(1)
		<-w.done
		return w.reply, w.err, true
	}
	sh.calls[id] = call{}
	sh.mu.Unlock()

	reply, err = fn()

	// Retire: the completed ID joins the ring; past the cap, the oldest
	// completed entry (never an in-flight one) leaves the cache.
	sh.mu.Lock()
	c := sh.calls[id]
	if c.wait != nil {
		c.wait.reply, c.wait.err = reply, err
		close(c.wait.done)
	}
	sh.calls[id] = call{completed: true, reply: reply, err: err}
	sh.done = append(sh.done, id)
	for len(sh.done)-sh.head > t.capShard {
		delete(sh.calls, sh.done[sh.head])
		sh.done[sh.head] = 0
		sh.head++
	}
	// Compact once the dead prefix dominates, so the ring's memory stays
	// proportional to the cap rather than to total traffic.
	if sh.head > t.capShard {
		sh.done = append(sh.done[:0], sh.done[sh.head:]...)
		sh.head = 0
	}
	sh.mu.Unlock()
	return reply, err, false
}

// Len returns the number of cached calls (in-flight plus completed but not
// yet retired) across all stripes.
func (t *DedupTable) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].calls)
		t.shards[i].mu.Unlock()
	}
	return n
}

// ShardHits returns the per-stripe duplicate counts.
func (t *DedupTable) ShardHits() [DedupShards]uint64 {
	var hits [DedupShards]uint64
	for i := range t.shards {
		hits[i] = t.shards[i].hits.Load()
	}
	return hits
}

// Deduper is implemented by fabrics whose receiver-side at-most-once dedup
// is switched on from outside: the in-memory Net, which leaves it off
// because its Send runs the handler inline and never times out. Faulty
// switches it on, because under retries and injected duplicates receivers
// must remember executed request IDs. tcpnet, which can time out a
// delivered call, dedups every endpoint it binds and has no switch.
type Deduper interface {
	EnableDedup()
}

// Redeliverer names a fabric whose Send can return ErrTimeout for a request
// that was nevertheless delivered, so a retry reaches the handler a second
// time. The module asks for it nowhere, since such a fabric dedups its own
// endpoints; it stays because tools built on the module name it.
type Redeliverer interface {
	Deduper
	// CanRedeliver reports whether a timed-out call may still have been
	// executed (and a retry would execute it again).
	CanRedeliver() bool
}
