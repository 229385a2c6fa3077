package dist

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// chunk is one group arrive RPC of a round: the tokens order[lo:hi], all
// bound for component comp of the round's snapshot.
type chunk struct {
	comp   int32
	lo, hi int32
}

// stray is a token whose position is a (path, wire) written down against
// some other cut — it bounced off a dead incarnation, was released by a
// frozen one, or a snapshot swap overtook it — and has to re-enter through
// tree.RouteTable.Locate before it can be grouped again.
type stray struct {
	idx  int32
	path tree.Path
	wire int
}

// batchScratch is the working memory of one InjectBatch, recycled through
// Cluster.scratch. Token i of the batch is known by its index throughout.
type batchScratch struct {
	pos     []tree.Hop // by token: position in the snapshot the batch routes against
	active  []int32    // tokens routable this round
	order   []int32    // this round's tokens, stably sorted by component (counting sort)
	count   []int32    // by component index; all zero between rounds
	touched []int32    // components with tokens this round, first-seen order
	chunks  []chunk
	strays  []stray
	exits   []uint64 // by network output wire: tokens that left, not yet added to cl.out

	reqs    []transport.Request
	replies []any
	errs    []error
}

func (cl *Cluster) getScratch(tokens int) *batchScratch {
	b, _ := cl.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{exits: make([]uint64, cl.w)}
	}
	if cap(b.pos) < tokens {
		b.pos = make([]tree.Hop, tokens)
		b.order = make([]int32, tokens)
		b.active = make([]int32, 0, tokens)
	}
	b.pos, b.active, b.strays = b.pos[:tokens], b.active[:0], b.strays[:0]
	return b
}

// putScratch adds the batch's exits to the cluster's output counters — one
// add per output wire that saw tokens, whatever the batch size — and
// recycles the scratch. It runs on every return path: tokens that left the
// network before an error did leave it.
func (cl *Cluster) putScratch(b *batchScratch) {
	for out, n := range b.exits {
		if n > 0 {
			cl.out[out].Add(n)
			b.exits[out] = 0
		}
	}
	// Requests and replies reference payloads and must not outlive the batch.
	clear(b.reqs[:cap(b.reqs)])
	clear(b.replies[:cap(b.replies)])
	clear(b.errs[:cap(b.errs)])
	cl.scratch.Put(b)
}

// takeResume returns the next resume in the endpoint's mailbox, waiting
// for one when block is set.
func (ep *tokenEP) takeResume(block bool) (wire.Resume, bool) {
	if block {
		return <-ep.resume, true
	}
	select {
	case rm := <-ep.resume:
		return rm, true
	default:
		return wire.Resume{}, false
	}
}

// InjectBatch routes len(ins) tokens as a group: at every round, tokens
// sitting at the same live component are delivered together in ONE group
// arrive RPC (wire.GroupArrive) instead of one RPC each — on a k-component
// cut a batch costs one RPC per component visit, not one per token per hop.
// The groups of a round target distinct components and are independent of
// each other, so they go out through transport.Client.CallBatch: one flush
// per destination on a fabric that can batch, one Send after another on
// one that cannot. A batch therefore takes as many round trips as the
// cut's effective depth, not as many as it has components.
// When a group-size cap is active (SetGroupLimit, or an adapt controller
// installed with UseAdapt), a visit by more tokens than the cap is split
// into ceil(n/cap) RPCs with identical counting output.
// The counting output is byte-identical to routing the same tokens
// sequentially (InjectBatchSeq): a component's per-output-wire counts
// depend only on how many tokens arrived on each input wire, never on
// their arrival interleaving, so delivering a group in one message is
// count-for-count the same as delivering it one message at a time.
//
// The batch shares one pooled token endpoint whose resume window [lo, hi]
// covers the whole claimed sequence range: tokens stored by a frozen
// component re-enter the round loop when their individual resume control
// messages land. Group routing reorders token *completion* within the
// batch (a queued token finishes after its groupmates), but per-wire
// counts — the network's observable output — are unaffected. It returns
// the output wire of each token.
func (cl *Cluster) InjectBatch(ins []int) ([]int, error) {
	for _, in := range ins {
		if in < 0 || in >= cl.w {
			return nil, fmt.Errorf("dist: input wire %d out of range [0,%d)", in, cl.w)
		}
	}
	if len(ins) == 0 {
		return nil, nil
	}
	ep, err := cl.getEP()
	if err != nil {
		return nil, err
	}
	defer cl.putEP(ep) // clears the window and drains stragglers, once per batch
	// One sampling decision per batch: a sampled batch's root span carries
	// every group RPC of the batch, and its context rides each group
	// arrive so receiving fabrics stitch server-side rpc:agroup spans to
	// this one timeline.
	sp := cl.tracer.Start("batch")
	defer sp.Finish()
	sp.Event("inject", "", int64(len(ins)))
	hi := cl.tokSeq.Add(uint64(len(ins)))
	base := hi - uint64(len(ins)) + 1
	// Publish the resume window: hi first, so the endpoint handler never
	// observes a half-open window accepting seqs above hi.
	ep.hi.Store(hi)
	ep.lo.Store(base)
	cl.countInjected(ins)

	outs := make([]int, len(ins))
	b := cl.getScratch(len(ins))
	defer cl.putScratch(b)
	tp := cl.topo.Load()
	for i, in := range ins {
		b.pos[i] = tp.rt.Entry(in)
		b.active = append(b.active, int32(i))
	}
	// waiting maps the sequence number of a token stored at a frozen
	// component to its index, until its resume arrives. Made on first use:
	// batches rarely meet a reconfiguration.
	var waiting map[uint64]int32

	for len(b.active) > 0 || len(b.strays) > 0 || len(waiting) > 0 {
		// Move resumed tokens to the strays: always everything already
		// buffered, and — when nothing is routable — blocking until at least
		// one token is. Resumes outside waiting are duplicated deliveries;
		// the window filter made them rare and this makes them inert.
		for len(waiting) > 0 {
			rm, ok := ep.takeResume(len(b.active)+len(b.strays) == 0)
			if !ok {
				break
			}
			if idx, ok := waiting[rm.Seq]; ok {
				delete(waiting, rm.Seq)
				b.strays = append(b.strays, stray{idx: idx, path: tree.Path(rm.Path), wire: rm.Wire})
			}
		}
		// A reconfiguration published since the last round: every position
		// is in terms of the old snapshot, so all of them re-enter.
		if cur := cl.topo.Load(); cur != tp {
			for _, idx := range b.active {
				at := b.pos[idx]
				b.strays = append(b.strays, stray{idx: idx, path: tp.live[at.Comp].c.Path, wire: int(at.Wire)})
			}
			b.active, tp = b.active[:0], cur
		}
		for _, s := range b.strays {
			if b.pos[s.idx], err = tp.rt.Locate(s.path, s.wire); err != nil {
				return nil, err
			}
			b.active = append(b.active, s.idx)
		}
		b.strays = b.strays[:0]

		cl.groupRound(b, tp, ep, base)
		var roundStart time.Time
		if cl.hHop != nil {
			roundStart = time.Now()
		}
		cl.rc.CallBatch(b.reqs, b.replies, b.errs, sp)
		b.active = b.active[:0]
		for g, ch := range b.chunks {
			cm := tp.live[ch.comp]
			if err := b.errs[g]; err != nil {
				return nil, fmt.Errorf("dist: group arrive at %v: %w", cm.c, err)
			}
			// A round's groups share its flushes, so each one's hop time is
			// the round's.
			cl.hHop.Since(roundStart)
			res, ok := b.replies[g].(wire.GroupArriveRes)
			if !ok {
				return nil, fmt.Errorf("dist: group arrive reply %T", b.replies[g])
			}
			idxs := b.order[ch.lo:ch.hi]
			switch res.Status {
			case wire.StatusDead:
				// The component was replaced between resolution and delivery;
				// the whole group re-resolves against the current cut.
				if sp != nil {
					sp.Event("dead", string(cm.c.Path), int64(len(idxs)))
				}
				for _, idx := range idxs {
					b.strays = append(b.strays, stray{idx: idx, path: cm.c.Path, wire: int(b.pos[idx].Wire)})
				}
			case wire.StatusQueued:
				if sp != nil {
					sp.Event("queued", string(cm.c.Path), int64(len(idxs)))
				}
				if waiting == nil {
					waiting = make(map[uint64]int32)
				}
				for _, idx := range idxs {
					waiting[base+uint64(idx)] = idx
				}
			case wire.StatusProcessed:
				if sp != nil {
					sp.Event("group", string(cm.c.Path), int64(len(idxs)))
				}
				if len(res.Outs) != len(idxs) {
					return nil, fmt.Errorf("dist: group arrive reply %d outs for %d tokens", len(res.Outs), len(idxs))
				}
				for k, idx := range idxs {
					out := res.Outs[k]
					if out < 0 || out >= cm.c.Width {
						return nil, fmt.Errorf("dist: group arrive reply from %v names output wire %d", cm.c, out)
					}
					at := tp.rt.Next(ch.comp, out)
					if at.Exited() {
						b.exits[at.Wire]++
						outs[idx] = int(at.Wire)
					} else {
						b.pos[idx] = at
						b.active = append(b.active, idx)
					}
				}
			default:
				return nil, fmt.Errorf("dist: group arrive status %d", res.Status)
			}
		}
	}
	return outs, nil
}

// groupRound turns the round's routable tokens into group arrive requests:
// a counting sort by component index into b.order, groups in first-seen
// order, each split by the group cap into b.chunks. Request b.reqs[g]
// carries the tokens of b.chunks[g]; b.replies and b.errs are sized to match.
func (cl *Cluster) groupRound(b *batchScratch, tp *topology, ep *tokenEP, base uint64) {
	if len(b.count) < len(tp.live) {
		b.count = make([]int32, len(tp.live))
	}
	b.touched = b.touched[:0]
	for _, idx := range b.active {
		ci := b.pos[idx].Comp
		if b.count[ci] == 0 {
			b.touched = append(b.touched, ci)
		}
		b.count[ci]++
	}
	var end int32
	for _, ci := range b.touched { // count[ci]: group size -> where the group starts
		end, b.count[ci] = end+b.count[ci], end
	}
	order := b.order[:len(b.active)]
	for _, idx := range b.active { // count[ci]: -> where the group's next token goes
		ci := b.pos[idx].Comp
		order[b.count[ci]] = idx
		b.count[ci]++
	}
	// The payload slices are the one thing not recycled: a fabric may hold
	// on to a request after Send returns (Faulty delivers its duplicates
	// late), so the slices a request body points into are never rewritten.
	wires := make([]int, len(order))
	seqs := make([]uint64, len(order))
	for k, idx := range order {
		wires[k] = int(b.pos[idx].Wire)
		seqs[k] = base + uint64(idx)
	}

	// One cap read per round: the adapt controller (or an explicit
	// SetGroupLimit) bounds how many tokens each group arrive RPC carries,
	// so a component visit by more tokens than the cap costs ceil(len/cap)
	// RPCs. The chunks are count-equivalent to the whole group (per-wire
	// counts depend only on arrival counts), so the cap changes RPC
	// accounting and wire pressure, never outputs.
	limit := int32(len(order))
	if n := cl.groupCap(); n > 0 && n < len(order) {
		limit = int32(n)
	}
	b.chunks, b.reqs = b.chunks[:0], b.reqs[:0]
	var lo int32
	for _, ci := range b.touched {
		hi := b.count[ci] // by now the group's end
		b.count[ci] = 0
		for lo < hi {
			next := min(hi, lo+limit)
			b.chunks = append(b.chunks, chunk{comp: ci, lo: lo, hi: next})
			b.reqs = append(b.reqs, transport.Request{
				From: ep.addr, To: tp.live[ci].addr, Kind: kindGroupArrive,
				Body: wire.GroupArrive{Token: string(ep.addr), Wires: wires[lo:next:next], Seqs: seqs[lo:next:next]},
			})
			lo = next
		}
	}
	if cap(b.replies) < len(b.reqs) {
		b.replies = make([]any, len(b.reqs))
		b.errs = make([]error, len(b.reqs))
	}
	b.replies, b.errs = b.replies[:len(b.reqs)], b.errs[:len(b.reqs)]
}

// countInjected adds a batch to the per-input-wire injection counters, one
// add per run of equal wires.
func (cl *Cluster) countInjected(ins []int) {
	for i := 0; i < len(ins); {
		j := i
		for j < len(ins) && ins[j] == ins[i] {
			j++
		}
		cl.injected[ins[i]].Add(uint64(j - i))
		i = j
	}
}

// InjectBatchSeq routes len(ins) tokens one at a time, reusing one pooled
// token endpoint and one claimed sequence range for the whole batch: the
// single-token path with its setup amortized, so each token still pays its
// own arrive RPCs (one, plus one per fabric crossing on its path), where
// InjectBatch pays one group RPC per component visit for the whole batch,
// with identical counting output. Kept as the reference and comparison path
// (experiment E28 measures the two against each other on both fabrics).
func (cl *Cluster) InjectBatchSeq(ins []int) ([]int, error) {
	for _, in := range ins {
		if in < 0 || in >= cl.w {
			return nil, fmt.Errorf("dist: input wire %d out of range [0,%d)", in, cl.w)
		}
	}
	if len(ins) == 0 {
		return nil, nil
	}
	ep, err := cl.getEP()
	if err != nil {
		return nil, err
	}
	defer cl.putEP(ep) // clears the window and drains stragglers, once per batch
	hi := cl.tokSeq.Add(uint64(len(ins)))
	base := hi - uint64(len(ins)) + 1
	cl.countInjected(ins)
	outs := make([]int, len(ins))
	for i, in := range ins {
		seq := base + uint64(i)
		ep.hi.Store(seq)
		ep.lo.Store(seq)
		out, err := cl.injectOnSeq(ep, in, seq)
		if err != nil {
			return outs[:i], err
		}
		outs[i] = out
	}
	return outs, nil
}
