package core

import (
	"fmt"
	"sync"
	"time"
)

// BatchTrace reports the aggregate protocol costs of one InjectBatch call.
//
// The batched pipeline moves token *groups*, not tokens: all tokens of the
// batch that sit at the same component at the same wavefront step are
// claimed with a single atomic operation and forwarded per distinct output
// wire, so the costs a group pays once (component resolution, out-neighbor
// cache probes, DHT lookups) are metered once. WireHops still counts
// token×component traversals — the quantity the paper's depth bounds speak
// about — while GroupHops counts the component visits the batch actually
// paid for; their ratio is the batch's amortization factor.
type BatchTrace struct {
	// Tokens is the number of tokens injected (len(ins)).
	Tokens int
	// GroupHops is the number of per-group component visits: the map
	// probes, atomic claims and cache consultations actually performed.
	GroupHops int
	// WireHops is the number of token×component traversals (comparable to
	// the per-token TokenTrace.WireHops summed over the batch).
	WireHops int
	// EntryTries is the number of names tried to locate input components
	// (once per distinct input wire, not once per token).
	EntryTries int
	// NameLookups and LookupHops meter the DHT lookups the batch issued.
	NameLookups, LookupHops int
	// CacheHits and CacheMisses count out-neighbor cache use (per group).
	CacheHits, CacheMisses int
	// LCacheHits and LCacheMisses count DHT lookup-cache use (per group).
	LCacheHits, LCacheMisses int
}

// batchGroup is one wavefront entry: count tokens sitting at component lc.
type batchGroup struct {
	lc    *liveComp
	count uint64
}

// batchState is the reusable scratch of one InjectBatch call. Pooled so a
// warm batch allocates nothing: the slices keep their capacity and the
// maps are cleared, not reallocated.
type batchState struct {
	wires  []int          // distinct input wires, first-seen order
	wcount map[int]uint64 // tokens per distinct input wire
	queue  []batchGroup   // FIFO wavefront of token groups
	qidx   map[*liveComp]int
}

var batchPool = sync.Pool{
	New: func() any {
		return &batchState{
			wcount: make(map[int]uint64, 8),
			qidx:   make(map[*liveComp]int, 32),
		}
	},
}

func (bs *batchState) reset() {
	bs.wires = bs.wires[:0]
	bs.queue = bs.queue[:0]
	clear(bs.wcount)
	clear(bs.qidx)
}

// enqueue adds count tokens at lc to the wavefront, coalescing into a
// pending (not yet processed) group for the same component; head is the
// index of the group currently being processed (-1 during entry).
func (bs *batchState) enqueue(lc *liveComp, count uint64, head int) {
	if j, ok := bs.qidx[lc]; ok && j > head {
		bs.queue[j].count += count
		return
	}
	bs.queue = append(bs.queue, batchGroup{lc: lc, count: count})
	bs.qidx[lc] = len(bs.queue) - 1
}

// InjectBatch sends len(ins) tokens into the network, one per entry of
// ins (each a network input wire), and returns the batch's aggregate
// trace. It is the burst-shaped counterpart of InjectAt: the epoch
// snapshot is loaded once, the structural read lock is taken once, each
// distinct input wire's entry component is located once, and the tokens
// traverse as coalescing groups — every component visited claims all of
// the batch's tokens that reached it in one lock-free atomic add
// (component.TryStepN) and forwards the per-output-wire subgroups with one
// hop resolution each (the same Network.hop a single token takes). The
// result is indistinguishable from len(ins) sequential InjectAt calls (a
// counting network admits every interleaving) at a fraction of the
// per-token cost; the step property and token conservation hold exactly as
// for Inject.
//
// Per-token values and traces are not materialized — callers that need a
// counter value per token should use Inject/InjectAt. Tracing spans are
// not sampled on the batch path; the Obs histograms record one
// core.batch.seconds / core.batch.tokens observation per call.
//
// Like every Client method, InjectBatch is not safe for concurrent use on
// one Client; concurrent batches come from one Client per goroutine.
func (c *Client) InjectBatch(ins []int) (BatchTrace, error) {
	n := c.net
	if len(ins) == 0 {
		return BatchTrace{}, nil
	}
	for _, in := range ins {
		if in < 0 || in >= n.cfg.Width {
			return BatchTrace{}, fmt.Errorf("core: input wire %d out of range [0,%d)", in, n.cfg.Width)
		}
	}
	defer n.mu.runlockStriped(c.stripe, n.mu.rlockStriped(c.stripe))
	t := n.topo.Load()
	if err := c.reattach(); err != nil {
		return BatchTrace{}, err
	}

	var start time.Time
	if n.hBatchSec != nil {
		start = time.Now()
	}

	bs := batchPool.Get().(*batchState)
	bs.reset()
	defer batchPool.Put(bs)

	// Group the batch by input wire: bursty arrivals collapse to a handful
	// of distinct wires, and the entry search runs once per wire.
	for _, in := range ins {
		if _, seen := bs.wcount[in]; !seen {
			bs.wires = append(bs.wires, in)
		}
		bs.wcount[in]++
	}

	var tr TokenTrace // accumulates entry/lookup/cache costs across groups
	for _, in := range bs.wires {
		k := bs.wcount[in]
		entry, err := n.enter(t, c, in, &tr, nil)
		if err != nil {
			return BatchTrace{}, err
		}
		n.injected[in].Add(k)
		bs.enqueue(entry, k, -1)
	}

	bt := BatchTrace{Tokens: len(ins)}
	for head := 0; head < len(bs.queue); head++ {
		g := bs.queue[head]
		lc := g.lc
		bt.GroupHops++
		bt.WireHops += int(g.count)
		base, ok := lc.st.TryStepN(g.count)
		if !ok {
			// Unreachable for the same reason as in InjectAt: core freezes
			// components only under the exclusive structural lock.
			return BatchTrace{}, fmt.Errorf("core: component %v frozen mid-route", lc.st.Comp)
		}
		// The group's tokens exit on the min(count, width) consecutive
		// wires starting at base: wire (base+i) mod w receives every token
		// whose batch offset is congruent to i.
		w := uint64(lc.st.Comp.Width)
		for i := uint64(0); i < min(g.count, w); i++ {
			cnt := (g.count - i + w - 1) / w
			next, netOut, err := n.hop(t, lc, int((base+i)&(w-1)), &tr, nil)
			if err != nil {
				return BatchTrace{}, err
			}
			if next == nil {
				n.out[netOut].Add(cnt)
				continue
			}
			bs.enqueue(next, cnt, head)
		}
	}

	// Fold the accumulated costs into the trace and the cumulative metrics.
	bt.EntryTries = tr.EntryTries
	bt.NameLookups = tr.NameLookups
	bt.LookupHops = tr.LookupHops
	bt.CacheHits = tr.CacheHits
	bt.CacheMisses = tr.CacheMisses
	bt.LCacheHits = tr.LCacheHits
	bt.LCacheMisses = tr.LCacheMisses
	tr.WireHops = bt.WireHops // group traversal meters token×component hops
	c.stripe.add(bt.Tokens, &tr)
	if n.hBatchSec != nil {
		n.hBatchSec.Observe(time.Since(start).Seconds())
		n.hBatchTok.Observe(float64(bt.Tokens))
	}
	return bt, nil
}
