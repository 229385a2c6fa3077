package dist

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// This file is the batch path, both halves, as arrive.go is the single
// token's: InjectBatch and groupRound, the rounds a batch's endpoint runs,
// and groupArrive and groupChain, the handler a component endpoint serves a
// group with.

// chunk is one group arrive RPC of a round: the tokens order[lo:hi], all
// bound for component comp of the round's snapshot.
type chunk struct {
	comp   int32
	lo, hi int32
}

// stray is a token whose position is a (path, wire) written down against
// some other cut — it bounced off a dead incarnation, was released by a
// frozen one, was left standing by a handler's chain, or a snapshot swap
// overtook it — and has to re-enter through tree.RouteTable.Locate before
// it can be grouped again.
type stray struct {
	idx  int32
	path tree.Path
	wire int
}

// groupSort is the working memory both halves of the batch path order
// tokens by component with: the injector once per round (groupRound), a
// handler once per wave of its chain (groupChain). Token i of the batch, or
// of the group, is known by its index throughout.
type groupSort struct {
	pos     []tree.Hop // by token: where it stands in the snapshot being routed against
	active  []int32    // the tokens to sort: routable this round, or still moving in the chain
	order   []int32    // active, stably sorted by component (counting sort)
	count   []int32    // by component index; all zero between sorts
	touched []int32    // components with tokens, first-seen order
}

func (s *groupSort) reset(tokens int) {
	if cap(s.pos) < tokens {
		s.pos = make([]tree.Hop, tokens)
		s.order = make([]int32, tokens)
		s.active = make([]int32, 0, tokens)
	}
	s.pos, s.active = s.pos[:tokens], s.active[:0]
}

// sort orders the active tokens by the component they stand at, out of
// comps, and returns them. The tokens at s.touched[k] are the slice that
// ends at s.count[s.touched[k]] and starts where the slice of s.touched[k-1]
// ended; whoever walks them zeroes the counts again.
func (s *groupSort) sort(comps int) []int32 {
	if len(s.count) < comps {
		s.count = make([]int32, comps)
	}
	s.touched = s.touched[:0]
	for _, idx := range s.active {
		ci := s.pos[idx].Comp
		if s.count[ci] == 0 {
			s.touched = append(s.touched, ci)
		}
		s.count[ci]++
	}
	var end int32
	for _, ci := range s.touched { // count[ci]: group size -> where the group starts
		end, s.count[ci] = end+s.count[ci], end
	}
	order := s.order[:len(s.active)]
	for _, idx := range s.active { // count[ci]: -> where the group's next token goes
		ci := s.pos[idx].Comp
		order[s.count[ci]] = idx
		s.count[ci]++
	}
	return order
}

// batchScratch is the working memory of one InjectBatch, recycled through
// Cluster.scratch.
type batchScratch struct {
	groupSort
	chunks []chunk
	strays []stray
	exits  []uint64 // by network output wire: tokens that left, not yet added to cl.out

	reqs    []transport.Request
	replies []any
	errs    []error
}

func (cl *Cluster) getScratch(tokens int) *batchScratch {
	b, _ := cl.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{exits: make([]uint64, cl.w)}
	}
	b.reset(tokens)
	b.strays = b.strays[:0]
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
// standing at the same live component are delivered together in ONE group
// arrive RPC (wire.GroupArrive) instead of one RPC each, and the handler
// that receives a group steps it on through every component its fabric also
// serves (groupChain), replying with each token's network output wire or
// with the position it could not step it past. A batch therefore costs one
// round trip per fabric its tokens visit — one on a single fabric, 1 +
// crossings across partitions — and in each round one RPC per component its
// tokens stand at; on a fabric that knows no placement every chain is one
// visit long and that is one RPC per component visit, in as many rounds as
// the cut is deep. The groups of a round target distinct components and
// are independent of each other, so they go out through
// transport.Client.CallBatch: one flush per destination on a fabric that
// can batch, one Send after another on one that cannot.
// When a group-size cap is active (SetGroupLimit, or an adapt controller
// installed with UseAdapt), a group of more tokens than the cap is split
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
			case wire.StatusExited:
				// The handler stepped the group on through the components its
				// fabric serves: a token has left the network, or stands at a
				// position named against the handler's snapshot and re-enters
				// through Locate like any other stray.
				if sp != nil {
					sp.Event("group", string(cm.c.Path), int64(res.Steps))
				}
				if len(res.Outs) != len(idxs) {
					return nil, fmt.Errorf("dist: group arrive reply %d outs for %d tokens", len(res.Outs), len(idxs))
				}
				forwards := 0
				for k, idx := range idxs {
					out := res.Outs[k]
					if out >= 0 {
						if out >= cl.w {
							return nil, fmt.Errorf("dist: group arrive reply from %v names network output wire %d", cm.c, out)
						}
						b.exits[out]++
						outs[idx] = out
						continue
					}
					if stop := -1 - out; stop >= len(res.Paths) || forwards >= len(res.Wires) {
						return nil, fmt.Errorf("dist: group arrive reply from %v forwards token %d nowhere", cm.c, k)
					}
					b.strays = append(b.strays, stray{idx: idx, path: tree.Path(res.Paths[-1-out]), wire: res.Wires[forwards]})
					forwards++
				}
			default:
				return nil, fmt.Errorf("dist: group arrive status %d", res.Status)
			}
		}
	}
	return outs, nil
}

// groupRound turns the round's routable tokens into group arrive requests:
// sorted by component index, groups in first-seen order, each split by the
// group cap into b.chunks. Request b.reqs[g] carries the tokens of
// b.chunks[g]; b.replies and b.errs are sized to match.
func (cl *Cluster) groupRound(b *batchScratch, tp *topology, ep *tokenEP, base uint64) {
	order := b.sort(len(tp.live))
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
	// so a group of more tokens than the cap costs ceil(len/cap) RPCs, each
	// chained on by its handler on its own. The chunks are count-equivalent
	// to the whole group (per-wire counts depend only on arrival counts), so
	// the cap changes RPC accounting and wire pressure, never outputs.
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

// groupArrive serves one group arrive RPC at cm: the group's visit to cm and
// to every component after it that this fabric also serves. The reply is
// group-wide at cm — a dead incarnation took nothing, a frozen one stores
// the entire group (each token resumes individually), an active one routes
// every token in arrival order under one lock acquisition. Per-output-wire
// counts depend only on how many tokens arrived, not on their interleaving
// with other senders, so a group visit is count-for-count identical to the
// same tokens arriving one by one.
func (cl *Cluster) groupArrive(cm *comp, req transport.Request) (any, error) {
	ga, ok := req.Body.(wire.GroupArrive)
	if !ok {
		return nil, fmt.Errorf("dist: group arrive body %T", req.Body)
	}
	if len(ga.Wires) == 0 || len(ga.Wires) != len(ga.Seqs) {
		return nil, fmt.Errorf("dist: group arrive %d wires, %d seqs", len(ga.Wires), len(ga.Seqs))
	}
	for _, w := range ga.Wires {
		if w < 0 || w >= cm.c.Width {
			return nil, fmt.Errorf("dist: group arrive wire %d out of range [0,%d)", w, cm.c.Width)
		}
	}
	cm.mu.Lock()
	switch cm.state {
	case stateDead:
		cm.mu.Unlock()
		return wire.GroupArriveRes{Status: wire.StatusDead}, nil
	case stateFrozen:
		for i, w := range ga.Wires {
			cm.arrived[w]++
			cm.queue = append(cm.queue, queuedToken{wire: w, tok: transport.Addr(ga.Token), seq: ga.Seqs[i]})
		}
		cm.mu.Unlock()
		return wire.GroupArriveRes{Status: wire.StatusQueued}, nil
	}
	// The reply's slices belong to whoever receives it — the endpoint's dedup
	// table keeps the reply for retries — so they are never pooled.
	outs := make([]int, len(ga.Wires))
	for i, w := range ga.Wires {
		outs[i] = cm.routeLocked(w)
	}
	cm.mu.Unlock()
	reply := cl.groupChain(cm, outs)
	cl.signalDrain()
	return reply, nil
}

// groupChain is chain for a group: it takes the tokens that have just left
// cm, token i on output wire outs[i], through the components that follow
// for as long as they are served by this fabric and active, and returns the
// group arrive reply, which takes over outs. It moves the group one wave at
// a time: the tokens still moving are sorted by the component they stand
// at, and each such component gets one visit — one placement question, one
// acquisition of its lock for all of its tokens — so the cost of a chain is
// per visit, not per token. As in chain, one lock is held at a time and no
// token is ever stored here: between visits the group is in flight exactly
// as it is between two messages, and the tokens standing at a component
// that is served elsewhere or is not active — frozen, dead, replaced since
// the snapshot was taken — stop there and are reported by position, to
// arrive by a message from their own endpoint like any first hop.
//
// When no visit after cm's succeeds the reply is the one the handler has
// always given, cm's output wires (the sender's table knows where they
// lead): on a fabric without placement knowledge, and when the snapshot no
// longer holds cm.
func (cl *Cluster) groupChain(cm *comp, outs []int) wire.GroupArriveRes {
	one := wire.GroupArriveRes{Status: wire.StatusProcessed, Outs: outs}
	if cl.colo == nil {
		return one
	}
	tp := cl.topo.Load()
	ci, ok := tp.rt.Index(cm.c.Path)
	if !ok || tp.live[ci] != cm {
		return one
	}
	s, _ := cl.chains.Get().(*groupSort)
	if s == nil {
		s = new(groupSort)
	}
	defer cl.chains.Put(s)
	s.reset(len(outs))
	for i, out := range outs {
		if s.pos[i] = tp.rt.Next(ci, out); !s.pos[i].Exited() {
			s.active = append(s.active, int32(i))
		}
	}
	steps := len(outs)
	for len(s.active) > 0 {
		order := s.sort(len(tp.live))
		s.active = s.active[:0]
		var lo int32
		for _, ci := range s.touched {
			visit := order[lo:s.count[ci]]
			lo, s.count[ci] = s.count[ci], 0
			next := tp.live[ci]
			if !cl.colo.Colocated(next.addr) {
				continue
			}
			next.mu.Lock()
			active := next.state == stateActive
			if active {
				for _, i := range visit {
					s.pos[i].Wire = int32(next.routeLocked(int(s.pos[i].Wire)))
				}
			}
			next.mu.Unlock()
			if !active {
				continue
			}
			steps += len(visit)
			for _, i := range visit {
				if s.pos[i] = tp.rt.Next(ci, int(s.pos[i].Wire)); !s.pos[i].Exited() {
					s.active = append(s.active, i)
				}
			}
		}
	}
	if steps == len(outs) {
		return one
	}
	// Forwards are positions, not indices into this snapshot's table: the
	// sender may route by another snapshot. s.touched lists the components
	// forwarded to, in the order of res.Paths; they are few.
	res := wire.GroupArriveRes{Status: wire.StatusExited, Outs: outs, Steps: steps}
	s.touched = s.touched[:0]
	for i, at := range s.pos {
		if at.Exited() {
			outs[i] = int(at.Wire)
			continue
		}
		stop := slices.Index(s.touched, at.Comp)
		if stop < 0 {
			stop, s.touched = len(s.touched), append(s.touched, at.Comp)
			res.Paths = append(res.Paths, string(tp.live[at.Comp].c.Path))
		}
		outs[i] = -1 - stop
		res.Wires = append(res.Wires, int(at.Wire))
	}
	return res
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
// InjectBatch pays one group RPC per component a round finds its tokens at,
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
