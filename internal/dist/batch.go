package dist

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// This file is the injection path, both halves: Inject and InjectBatch, the
// rounds a batch runs (groupRound, groupReply), and groupArrive and
// groupChain, the handler a component endpoint serves a group with. A single
// token is a batch of one.
//
// A token costs one message per move between fabric instances, not one per
// component. Its first arrive is always a message, sent by its batch — the
// injector is a client of the network, not one of its nodes, and that one
// request ID, deduplicated at the incarnation it addresses, is what keeps
// everything the handler goes on to do at-most-once. The handler steps the
// addressed components and then, as long as the fabric says a token's next
// component is served by this same fabric instance (transport.Placer) and
// that component is active, steps it in place too. It replies when the
// tokens have left the network or reached a component it cannot step, and
// the batch continues from the positions the reply names. A fabric that
// knows no placement makes every chain one visit long: that is the
// one-message-per-hop behaviour, not a second code path.

// routeLocked counts one token in on input wire w of an active component and
// returns the output wire the component's round-robin sends it to. The
// caller holds cm.mu. It is the one place a token is stepped.
func (cm *comp) routeLocked(w int) int {
	cm.arrived[w]++
	out := int(cm.total & uint64(cm.c.Width-1)) // every width is a power of two
	cm.total++
	return out
}

// visit is one component's share of a group arrive RPC of a round: the
// tokens order[lo:hi], all bound for component comp of the round's snapshot.
type visit struct {
	comp   int32
	lo, hi int32
}

// stray is a token whose position is a (path, wire) written down against
// some other cut — an incarnation that is not active turned it away, a
// handler's chain left it standing, or a snapshot swap overtook it — and has
// to re-enter through tree.RouteTable.Locate before it can be grouped again.
type stray struct {
	idx  int32
	path tree.Path
	wire int
}

// groupSort is the working memory the injector orders a round's tokens by
// component with (groupRound). Token i of the batch is known by its index
// throughout.
type groupSort struct {
	pos     []tree.Hop // by token: where it stands in the snapshot being routed against
	active  []int32    // the tokens to sort: routable this round
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

// tally counts the active tokens by the component they stand at, out of
// comps: s.touched lists the components with tokens and s.count[ci] says
// how many stand at ci, first seen first. Whoever wants the groups in
// another order reorders s.touched before place.
func (s *groupSort) tally(comps int) {
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
}

// place orders the tallied tokens by component, components in s.touched's
// order, and returns them. The tokens at s.touched[k] are the slice that
// ends at s.count[s.touched[k]] and starts where the slice of s.touched[k-1]
// ended; whoever walks them zeroes the counts again.
func (s *groupSort) place() []int32 {
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
	visits []visit  // the round's component visits, in the order of its token payload
	ends   []int32  // request g of the round carries visits[ends[g-1]:ends[g]]
	dest   []int64  // by index into touched: the component's destination, numbered, <<32 | the component
	sites  []string // the round's destinations, as the fabric names them
	strays []stray
	exits  []uint64 // by network output wire: tokens that left, not yet added to cl.out
	exited []int32  // the output wires whose exits are not zero
	// parked holds the tokens an incarnation that is not active turned away,
	// by position, until a snapshot newer than the one they were routed
	// against is published; parkedAt says when each was turned away, kept
	// only when the cluster is instrumented.
	parked   []stray
	parkedAt []time.Time

	// from is the batch's Request.From: minted once per scratch, so it is
	// unique among batches in flight and reused by sequential ones. Nothing
	// is addressed to it; it names the sender to the fabric's observers.
	from transport.Addr

	reqs    []transport.Request
	replies []any
	errs    []error
}

func (cl *Cluster) getScratch(tokens int) *batchScratch {
	b, _ := cl.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{exits: make([]uint64, cl.w), from: transport.Addr(fmt.Sprintf("t:%d", cl.labels.Add(1)))}
	}
	b.reset(tokens)
	// A batch that failed may have left tokens standing.
	b.strays, b.parked, b.parkedAt = b.strays[:0], b.parked[:0], b.parkedAt[:0]
	return b
}

// exit counts a token out of the network on output wire w.
func (b *batchScratch) exit(w int32) {
	if b.exits[w] == 0 {
		b.exited = append(b.exited, w)
	}
	b.exits[w]++
}

// putScratch adds the batch's exits to the cluster's output counters — one
// add per output wire that saw tokens, whatever the batch size — and
// recycles the scratch.
func (cl *Cluster) putScratch(b *batchScratch) {
	for _, out := range b.exited {
		cl.out[out].Add(b.exits[out])
		b.exits[out] = 0
	}
	b.exited = b.exited[:0]
	// Requests and replies reference payloads and must not outlive the batch.
	clear(b.reqs[:cap(b.reqs)])
	clear(b.replies[:cap(b.replies)])
	clear(b.errs[:cap(b.errs)])
	cl.scratch.Put(b)
}

// Inject routes one token in from network input wire in, concurrently with
// any other tokens and any reconfiguration, and returns the output wire. It
// is InjectBatch of one token: it pays one RPC to enter the network and one
// more each time its path crosses to a component the serving fabric does
// not host or that is not active.
func (cl *Cluster) Inject(in int) (int, error) {
	ins, outs := [1]int{in}, [1]int{}
	if err := cl.injectBatch(ins[:], outs[:]); err != nil {
		return 0, err
	}
	return outs[0], nil
}

// InjectBatch routes len(ins) tokens as a group. The unit of a round is the
// destination, not the component: the tokens standing at components one
// fabric serves travel there in ONE group arrive RPC (wire.GroupArrive),
// addressed to the first of those components and listing the others as
// further visits, and the handler that receives it serves every visit and
// then steps all of its tokens on through every component its fabric also
// serves (groupChain), replying with each token's network output wire or
// with the position it could not step it past. A batch therefore costs one
// round trip per fabric its tokens visit — one on a single fabric, 1 +
// crossings across partitions — and in each round one RPC per fabric its
// tokens are bound for; on a fabric that knows no placement every component
// is a destination of its own and every chain one visit long: one RPC per
// component visit, in as many rounds as the cut is deep. The messages of a
// round are independent of each other, so they go out through
// transport.Client.CallBatch: all of them leave before any reply is awaited
// on a fabric that can batch, one Send after another on one that cannot.
// A destination with more tokens than one message may carry (wire.MaxSlice)
// gets ceil(n/MaxSlice) RPCs, with identical counting output.
// The counting output is byte-identical to routing the same tokens one at
// a time through Inject: a component's per-output-wire counts
// depend only on how many tokens arrived on each input wire, never on
// their arrival interleaving, so delivering a group in one message is
// count-for-count the same as delivering it one message at a time.
//
// A component that is not active turns tokens away; they wait in the batch
// until the reconfiguration that froze it publishes its successor, and then
// re-enter where they stood. Group routing reorders token *completion*
// within the batch (a turned-away token finishes after its groupmates), but
// per-wire counts — the network's observable output — are unaffected. It
// returns the output wire of each token.
func (cl *Cluster) InjectBatch(ins []int) ([]int, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	outs := make([]int, len(ins))
	if err := cl.injectBatch(ins, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// injectBatch is InjectBatch writing token i's output wire to outs[i].
func (cl *Cluster) injectBatch(ins, outs []int) error {
	for _, in := range ins {
		if in < 0 || in >= cl.w {
			return fmt.Errorf("dist: input wire %d out of range [0,%d)", in, cl.w)
		}
	}
	// One sampling decision per batch: a sampled batch's root span carries
	// every group RPC of the batch, and its context rides each group
	// arrive so receiving fabrics stitch server-side rpc:agroup spans to
	// this one timeline.
	sp := cl.tracer.Start("batch")
	sp.Event("inject", "", int64(len(ins)))
	var begin time.Time
	if cl.hTok != nil {
		begin = time.Now()
	}
	cl.countInjected(ins)

	b := cl.getScratch(len(ins))
	err := cl.route(b, ins, outs, sp)
	// Every return of route passes here, an error's too: tokens that left the
	// network before it did leave it.
	cl.putScratch(b)
	sp.Finish()
	if err == nil && cl.hTok != nil {
		// Every token of a batch returns when the call does.
		d := time.Since(begin).Seconds()
		for range ins {
			cl.hTok.Observe(d)
		}
	}
	return err
}

// route runs a batch's rounds over the tokens ins until every one has left
// the network.
func (cl *Cluster) route(b *batchScratch, ins, outs []int, sp *obs.Span) error {
	tp := cl.topo.Load()
	for i, in := range ins {
		b.pos[i] = tp.rt.Entry(in)
		b.active = append(b.active, int32(i))
	}

	var err error
	for len(b.active) > 0 || len(b.strays) > 0 || len(b.parked) > 0 {
		cur := cl.topo.Load()
		if cur == tp && len(b.active) == 0 && len(b.strays) == 0 {
			// Every token left was turned away by an incarnation tp still
			// lists: wait for the reconfiguration to publish the next
			// snapshot. publish closes tp.done after storing it, so a publish
			// since the Load above is not missed.
			<-tp.done
			cur = cl.topo.Load()
		}
		// A reconfiguration published since the last round: every position
		// is in terms of the old snapshot, so all of them re-enter, the
		// parked tokens with them.
		if cur != tp {
			for _, idx := range b.active {
				at := b.pos[idx]
				b.strays = append(b.strays, stray{idx: idx, path: tp.live[at.Comp].c.Path, wire: int(at.Wire)})
			}
			for _, at := range b.parkedAt {
				cl.hQueue.Since(at)
			}
			b.strays = append(b.strays, b.parked...)
			b.active, b.parked, b.parkedAt, tp = b.active[:0], b.parked[:0], b.parkedAt[:0], cur
		}
		for _, s := range b.strays {
			if b.pos[s.idx], err = tp.rt.Locate(s.path, s.wire); err != nil {
				return err
			}
			b.active = append(b.active, s.idx)
		}
		b.strays = b.strays[:0]

		cl.groupRound(b, tp)
		var roundStart time.Time
		if cl.hHop != nil {
			roundStart = time.Now()
		}
		cl.rc.CallBatch(b.reqs, b.replies, b.errs, sp)
		cl.hHop.Since(roundStart) // a round's messages share its flushes
		b.active = b.active[:0]
		var start int32
		for g, end := range b.ends {
			visits := b.visits[start:end]
			start = end
			if err := b.errs[g]; err != nil {
				return fmt.Errorf("dist: group arrive at %v: %w", tp.live[visits[0].comp].c, err)
			}
			res, ok := b.replies[g].(wire.GroupArriveRes)
			if !ok {
				return fmt.Errorf("dist: group arrive reply %T", b.replies[g])
			}
			if err := cl.groupReply(b, tp, visits, res, outs, sp); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupReply moves the tokens of one group arrive RPC — the visits it made,
// the reply it got — to where the reply says they are: out of the network
// (outs), at their next component (b.active), somewhere to be located
// (b.strays) or turned away until the next snapshot (b.parked). A reply
// without a visit list says the same of every visit, in its own status.
func (cl *Cluster) groupReply(b *batchScratch, tp *topology, visits []visit, res wire.GroupArriveRes, outs []int, sp *obs.Span) error {
	head, first := tp.live[visits[0].comp].c, visits[0].lo
	tokens := int(visits[len(visits)-1].hi - first)
	if n := len(res.Visits); n > 0 && (n != len(visits) || res.Status != wire.StatusExited) {
		return fmt.Errorf("dist: group arrive reply from %v covers %d visits of %d", head, n, len(visits))
	}
	if stepped := res.Status == wire.StatusProcessed || res.Status == wire.StatusExited; stepped && len(res.Outs) != tokens {
		return fmt.Errorf("dist: group arrive reply %d outs for %d tokens", len(res.Outs), tokens)
	}
	// One group event per RPC, carrying the token-steps it performed: a
	// batch's group events sum to the components on its tokens' paths.
	steps := res.Steps
	if res.Status == wire.StatusProcessed {
		steps = tokens
	}
	if sp != nil && steps > 0 {
		sp.Event("group", string(head.Path), int64(steps))
	}
	forwards := 0 // the reply's forwarded tokens so far, across its visits
	for v, vis := range visits {
		cm, st, idxs := tp.live[vis.comp].c, res.Status, b.order[vis.lo:vis.hi]
		if len(res.Visits) > 0 {
			st = res.Visits[v]
		}
		off := int(vis.lo - first) // where the visit's share of res.Outs starts
		switch st {
		case wire.StatusDead:
			// The incarnation is frozen or retired: the whole visit waits for
			// a snapshot newer than tp and re-resolves against it.
			if sp != nil {
				sp.Event("dead", string(cm.Path), int64(len(idxs)))
			}
			var now time.Time
			if cl.hQueue != nil {
				now = time.Now()
			}
			for _, idx := range idxs {
				b.parked = append(b.parked, stray{idx: idx, path: cm.Path, wire: int(b.pos[idx].Wire)})
				if cl.hQueue != nil {
					b.parkedAt = append(b.parkedAt, now)
				}
			}
		case wire.StatusProcessed:
			for k, idx := range idxs {
				out := res.Outs[off+k]
				if out < 0 || out >= cm.Width {
					return fmt.Errorf("dist: group arrive reply from %v names output wire %d", cm, out)
				}
				at := tp.rt.Next(vis.comp, out)
				if at.Exited() {
					b.exit(at.Wire)
					outs[idx] = int(at.Wire)
				} else {
					b.pos[idx] = at
					b.active = append(b.active, idx)
				}
			}
		case wire.StatusExited:
			// The handler stepped the visit's tokens on through the components
			// its fabric serves: a token has left the network, or stands at a
			// position named against the handler's snapshot and re-enters
			// through Locate like any other stray.
			for k, idx := range idxs {
				out := res.Outs[off+k]
				if out >= 0 {
					if out >= cl.w {
						return fmt.Errorf("dist: group arrive reply from %v names network output wire %d", head, out)
					}
					b.exit(int32(out))
					outs[idx] = out
					continue
				}
				if stop := -1 - out; stop >= len(res.Paths) || forwards >= len(res.Wires) {
					return fmt.Errorf("dist: group arrive reply from %v forwards token %d of its visit to %v nowhere", head, k, cm)
				}
				b.strays = append(b.strays, stray{idx: idx, path: tree.Path(res.Paths[-1-out]), wire: res.Wires[forwards]})
				forwards++
			}
		default:
			return fmt.Errorf("dist: group arrive status %d", st)
		}
	}
	if forwards != len(res.Wires) {
		return fmt.Errorf("dist: group arrive reply from %v places %d forwarded tokens, %d taken", head, len(res.Wires), forwards)
	}
	return nil
}

// groupRound turns the round's routable tokens into group arrive requests:
// sorted by component, components by destination (the fabric that serves
// them; each its own on a fabric that knows no placement), each
// destination's tokens cut into messages of at most wire.MaxSlice. Request
// b.reqs[g] carries the visits b.visits[b.ends[g-1]:b.ends[g]], addressed to
// the first one's component; b.replies and b.errs are sized to match.
func (cl *Cluster) groupRound(b *batchScratch, tp *topology) {
	b.tally(len(tp.live))
	b.dest, b.sites = b.dest[:0], b.sites[:0]
	for k, ci := range b.touched {
		d := k
		if cl.place != nil && len(b.touched) > 1 { // one component is one destination
			site := cl.place.Site(tp.live[ci].addr)
			if d = slices.Index(b.sites, site); d < 0 {
				d, b.sites = len(b.sites), append(b.sites, site)
			}
		}
		b.dest = append(b.dest, int64(d)<<32|int64(ci))
	}
	slices.Sort(b.dest) // by destination, then by component index
	for k, key := range b.dest {
		b.touched[k] = int32(key)
	}
	order := b.place()
	// The payload slices are the one thing not recycled: a fabric may hold
	// on to a request after Send returns (Faulty delivers its duplicates
	// late), so the slices a request body points into are never rewritten.
	wires := make([]int, len(order))
	for k, idx := range order {
		wires[k] = int(b.pos[idx].Wire)
	}

	// The codec bounds a message's slices at wire.MaxSlice, so a destination
	// with more tokens costs ceil(n/MaxSlice) RPCs, each chained on by its
	// handler on its own. A message may end inside a component's tokens: the
	// pieces are count-equivalent to the whole, so the cut changes RPC
	// accounting, never outputs.
	b.visits, b.ends, b.reqs = b.visits[:0], b.ends[:0], b.reqs[:0]
	var lo, room int32 // room: the tokens the open message still takes
	for k, ci := range b.touched {
		hi := b.count[ci] // by now the group's end
		b.count[ci] = 0
		if k > 0 && b.dest[k]>>32 != b.dest[k-1]>>32 {
			room = 0
		}
		for lo < hi {
			if room == 0 {
				if len(b.visits) > 0 {
					b.ends = append(b.ends, int32(len(b.visits)))
				}
				room = wire.MaxSlice
			}
			n := min(hi-lo, room)
			b.visits = append(b.visits, visit{comp: ci, lo: lo, hi: lo + n})
			lo, room = lo+n, room-n
		}
	}
	b.ends = append(b.ends, int32(len(b.visits)))

	// The round's visit lists share one allocation, like its wires.
	further := make([]wire.Visit, 0, len(b.visits)-len(b.ends))
	var start int32
	for _, end := range b.ends {
		visits := b.visits[start:end]
		start = end
		lo, hi, listed := visits[0].lo, visits[len(visits)-1].hi, len(further)
		for _, v := range visits[1:] {
			further = append(further, wire.Visit{Addr: string(tp.live[v.comp].addr), Tokens: int(v.hi - v.lo)})
		}
		b.reqs = append(b.reqs, transport.Request{
			From: b.from, To: tp.live[visits[0].comp].addr, Kind: kindGroupArrive,
			Body: wire.GroupArrive{Wires: wires[lo:hi:hi], Visits: further[listed:len(further):len(further)]},
		})
	}
	if cap(b.replies) < len(b.reqs) {
		b.replies = make([]any, len(b.reqs))
		b.errs = make([]error, len(b.reqs))
	}
	b.replies, b.errs = b.replies[:len(b.reqs)], b.errs[:len(b.reqs)]
}

// ErrBadGroup is wrapped by every error with which a group arrive handler
// refuses a message — whole, before serving any visit of it.
var ErrBadGroup = errors.New("dist: malformed group arrive")

// chainScratch is the working memory of one group arrive handler, recycled
// through Cluster.chains: the message's visits, and the chain's positions and
// per-component token lists.
type chainScratch struct {
	visits []served
	pos    []tree.Hop // by token of the group: where it stands in the chain's snapshot
	// The tokens standing at component ci are a list: head[ci] is the first
	// one plus one (zero: none, so heads are all zero between chains),
	// link[i] the one after token i plus one.
	head  []int32
	link  []int32
	stops []int32 // the components forwarded to, in the order of the reply's Paths
}

// served is one visit: the tokens ga.Wires[lo:hi] at the incarnation cm.
type served struct {
	cm     *comp
	lo, hi int32
	st     wire.Status // what became of it; StatusExited once a chain took its tokens on
	ci     int32       // cm's index in the chain's snapshot; negative: not in it
}

// groupArrive serves one group arrive RPC addressed to cm: the group's visit
// to cm, its further visits to the incarnations the message names by address
// (the retired stay listed, as they stay bound), and then its tokens' visits
// to every component after those that this fabric also serves. Once every
// visit has been checked — an error means nothing was touched — each is
// served as a message addressed to that incarnation alone would have been:
// one that is not active turns the visit's tokens away, an active one routes
// them in arrival order under one acquisition of its lock, one lock at a
// time. Per-output-wire counts depend only on how many tokens arrived, not on
// their interleaving, so a group visit is count-for-count identical to the
// same tokens arriving one by one. The request ID, deduplicated at cm's
// endpoint, keeps it all at-most-once.
//
// ga.Wires and ga.Visits may point into the fabric's decode memory, which is
// reused once the handler returns: nothing here keeps them.
func (cl *Cluster) groupArrive(cm *comp, body any) (any, error) {
	s, _ := cl.chains.Get().(*chainScratch)
	if s == nil {
		s = new(chainScratch)
	}
	var ga wire.GroupArrive
	if err := cl.checkGroup(s, cm, body, &ga); err != nil {
		cl.chains.Put(s)
		return nil, err
	}
	res := serveVisits(s, ga.Wires)
	stepped := res.Steps
	cl.groupChain(s, &res)
	cl.chains.Put(s)
	if stepped > 0 {
		cl.signalDrain()
	}
	return res, nil
}

// serveVisits steps the tokens of each checked visit of s through its
// component, token i arriving on wires[i], and returns the reply so far: the
// output wires the active components sent them to, and the steps taken. The
// reply's slices belong to whoever receives it — the endpoint's dedup table
// keeps the reply for retries — so they are never pooled.
func serveVisits(s *chainScratch, wires []int) wire.GroupArriveRes {
	var res wire.GroupArriveRes
	for i := range s.visits {
		v := &s.visits[i]
		v.cm.mu.Lock()
		if v.cm.frozen {
			v.st = wire.StatusDead
		} else {
			v.st = wire.StatusProcessed
			if res.Outs == nil {
				res.Outs = make([]int, len(wires))
			}
			for k := v.lo; k < v.hi; k++ {
				res.Outs[k] = v.cm.routeLocked(wires[k])
			}
			res.Steps += int(v.hi - v.lo)
		}
		v.cm.mu.Unlock()
	}
	return res
}

// checkGroup takes a group arrive body apart into ga and s.visits, checking
// all of it: an error means nothing has been touched.
func (cl *Cluster) checkGroup(s *chainScratch, cm *comp, body any, ga *wire.GroupArrive) error {
	var ok bool
	if *ga, ok = body.(wire.GroupArrive); !ok {
		return fmt.Errorf("dist: group arrive body %T", body)
	}
	first := len(ga.Wires) // the further visits' tokens are the last of the group
	if first == 0 {
		return fmt.Errorf("%w: no tokens", ErrBadGroup)
	}
	for _, v := range ga.Visits {
		if v.Tokens <= 0 || v.Tokens >= first {
			return fmt.Errorf("%w: visit of %d tokens in what is left of a group of %d", ErrBadGroup, v.Tokens, first)
		}
		first -= v.Tokens
	}
	s.visits = append(s.visits[:0], served{cm: cm, hi: int32(first), ci: -1})
	cl.compMu.RLock()
	for _, v := range ga.Visits {
		lo := s.visits[len(s.visits)-1].hi
		s.visits = append(s.visits, served{cm: cl.comps[transport.Addr(v.Addr)], lo: lo, hi: lo + int32(v.Tokens), ci: -1})
	}
	cl.compMu.RUnlock()
	for i, v := range s.visits {
		// The fabric vouches for cm; a listed address is the sender's word.
		if i > 0 && (v.cm == nil || cl.place != nil && cl.place.Site(v.cm.addr) != "") {
			return fmt.Errorf("%w: visit to %q, which is not served here", ErrBadGroup, ga.Visits[i-1].Addr)
		}
		for _, w := range ga.Wires[v.lo:v.hi] {
			if w < 0 || w >= v.cm.c.Width {
				return fmt.Errorf("%w: wire %d out of range [0,%d) at %v", ErrBadGroup, w, v.cm.c.Width, v.cm.c)
			}
		}
	}
	return nil
}

// groupChain takes the stepped tokens of s.visits — res.Steps of them, token
// i having just left its visit's component on output wire res.Outs[i] —
// through the components that follow for as long as they are served by this
// fabric and active, and completes res as the group arrive reply. It moves
// them all together in one ascending pass over the snapshot's members: the
// table numbers them topologically (every hop leads to a member above), so
// by the time the pass reaches a component every token of the group that
// will stand there already does, and each component gets one visit — one
// placement question, one acquisition of its lock for all of its tokens — so
// the cost of a chain is per component, not per token. It routes by the
// current snapshot's table and holds one lock at a time, never two, and no
// token is ever held here: between visits the group is in flight exactly as
// it is between two messages, so a freeze can land between any two visits
// and the merge drain sees it by the same conservation count. The tokens
// standing at a component that is served elsewhere or is not active —
// frozen, or replaced since the snapshot was taken — stop there and are
// reported by position, to arrive by a message from their batch like any
// first hop, and one that is not active turns them away like any other.
//
// A visit's tokens keep the reply the handler has always given, their
// component's output wires (the sender's table knows where they lead), when
// the chain stepped nothing further — so on a fabric without placement
// knowledge — and when the snapshot no longer holds their component. The
// reply lists what became of each visit only when they fared differently.
func (cl *Cluster) groupChain(s *chainScratch, res *wire.GroupArriveRes) {
	outs, stepped := res.Outs, res.Steps
	if cl.place != nil && stepped > 0 {
		tp := cl.topo.Load()
		s.start(len(outs), len(tp.live))
		lo, hi := int32(len(tp.live)), int32(-1) // the components that may hold tokens
		for v := range s.visits {
			vis := &s.visits[v]
			ci, ok := tp.rt.Index(vis.cm.c.Path)
			if vis.st != wire.StatusProcessed || !ok || tp.live[ci] != vis.cm {
				continue
			}
			vis.ci = ci
			for i := vis.lo; i < vis.hi; i++ {
				if s.pos[i] = tp.rt.Next(ci, outs[i]); !s.pos[i].Exited() {
					s.push(i)
					lo, hi = min(lo, s.pos[i].Comp), max(hi, s.pos[i].Comp)
				}
			}
		}
		for ci := lo; ci <= hi; ci++ {
			first := s.head[ci] - 1
			if first < 0 {
				continue
			}
			s.head[ci] = 0
			next := tp.live[ci]
			if cl.place.Site(next.addr) != "" {
				continue // the tokens stop here, at (ci, their wire)
			}
			next.mu.Lock()
			if next.frozen {
				next.mu.Unlock()
				continue
			}
			for i := first; i >= 0; {
				after := s.link[i] - 1
				s.pos[i] = tp.rt.Next(ci, next.routeLocked(int(s.pos[i].Wire)))
				if !s.pos[i].Exited() {
					s.push(i)
					hi = max(hi, s.pos[i].Comp)
				}
				res.Steps++
				i = after
			}
			next.mu.Unlock()
		}
		// Forwards are positions, not indices into this snapshot's table: the
		// sender may route by another snapshot. s.stops lists the components
		// forwarded to, in the order of res.Paths; they are few.
		s.stops = s.stops[:0]
		for v := range s.visits {
			vis := &s.visits[v]
			if vis.ci < 0 || res.Steps == stepped {
				continue
			}
			vis.st = wire.StatusExited
			for i := vis.lo; i < vis.hi; i++ {
				at := s.pos[i]
				if at.Exited() {
					outs[i] = int(at.Wire)
					continue
				}
				stop := slices.Index(s.stops, at.Comp)
				if stop < 0 {
					stop, s.stops = len(s.stops), append(s.stops, at.Comp)
					res.Paths = append(res.Paths, string(tp.live[at.Comp].c.Path))
				}
				outs[i] = -1 - stop
				res.Wires = append(res.Wires, int(at.Wire))
			}
		}
	}
	res.Status = s.visits[0].st
	mixed := false
	for _, vis := range s.visits[1:] {
		mixed = mixed || vis.st != res.Status
	}
	switch {
	case mixed:
		res.Status, res.Visits = wire.StatusExited, make([]wire.Status, len(s.visits))
		for v, vis := range s.visits {
			res.Visits[v] = vis.st
		}
		if outs == nil {
			res.Outs = make([]int, s.visits[len(s.visits)-1].hi)
		}
	case res.Status != wire.StatusExited:
		res.Steps = 0 // the short forms do not carry it
	}
}

// start readies s for a chain of tokens over a snapshot of comps members.
func (s *chainScratch) start(tokens, comps int) {
	if cap(s.pos) < tokens {
		s.pos = make([]tree.Hop, tokens)
		s.link = make([]int32, tokens)
	}
	s.pos, s.link = s.pos[:tokens], s.link[:tokens]
	if len(s.head) < comps {
		s.head = make([]int32, comps)
	}
}

// push puts token i on the list of the component it stands at.
func (s *chainScratch) push(i int32) {
	ci := s.pos[i].Comp
	s.link[i], s.head[ci] = s.head[ci], i+1
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
