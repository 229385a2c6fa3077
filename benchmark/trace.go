package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// ival is a span's interval, in ns since the window start.
type ival struct{ lo, hi int64 }

func (v ival) dur() int64 { return v.hi - v.lo }

// unionLen is the length of the part of [lo, hi) that the intervals cover;
// overlapping intervals count once.
func unionLen(ivs []ival, lo, hi int64) int64 {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b ival) int { return int(a.lo - b.lo) })
	var covered int64
	at := lo
	for _, v := range s {
		a, b := max(v.lo, at), min(v.hi, hi)
		if b > a {
			covered += b - a
			at = b
		}
	}
	return covered
}

// selfTime is a span's duration minus the part of it its child spans cover.
func selfTime(span ival, children []ival) int64 {
	return span.dur() - unionLen(children, span.lo, span.hi)
}

// rpcSpans is one Send span with the handler spans it caused.
type rpcSpans struct {
	send     ival
	handlers []ival
}

// opBreakdown splits one op span over the three layers the interposed seam
// separates: dist's client side (the op minus its Sends), the fabric (each
// Send minus its handler: encode, flush/syscall, wire, decode, handler
// queue, reply) and the handlers (dist's server bookkeeping and the
// component step). residual is what the three do not account for: zero for
// sequential Sends, the doubly counted overlap for parallel ones.
func opBreakdown(op ival, rpcs []rpcSpans) (client, fabric, handler, residual int64) {
	sends := make([]ival, len(rpcs))
	for i, r := range rpcs {
		sends[i] = r.send
		fabric += selfTime(r.send, r.handlers)
		handler += unionLen(r.handlers, r.send.lo, r.send.hi)
	}
	client = selfTime(op, sends)
	residual = op.dur() - (client + fabric + handler)
	if residual < 0 {
		residual = -residual
	}
	return
}

// spanRec is one recorded Send or handler span. Request.ID links a handler
// to the Send that caused it; (sender, k) is the op a Send belongs to.
type spanRec struct {
	id     uint64
	sender int32 // -1: no op claimed this Send
	k      int32
	ival
}

// opCursor is a sender's op in progress, as the tracer sees it.
type opCursor struct {
	k      int32
	active bool
	from   transport.Addr // the token endpoint its Sends come from, once known
}

// tracer keeps the spans of a traced repetition in memory. Sends run on the
// sender's goroutine, but the seam shows only Request.From, the pooled token
// endpoint dist checked out for the op. An endpoint serves one op at a time,
// so a Send from an endpoint no op holds yet belongs to the op that has not
// sent yet, and turn admits only one such op: a sender takes it when its op
// begins and gives it up at the op's first Send. That serialises the senders'
// run-up to their first Send, in traced repetitions only; what it costs
// shows in bench.trace_overhead_ratio. dist returns an endpoint to its pool a
// moment before the harness sees the op end; a first Send from it in that
// moment is booked on the finished op and shows as residual (about one op
// in a thousand on tcp-token).
type tracer struct {
	on    atomic.Bool
	start time.Time

	turn  sync.Mutex
	mu    sync.Mutex
	cur   []opCursor
	sends []spanRec

	hmu      sync.Mutex
	handlers []spanRec
}

func newTracer(senders, spanCap int) *tracer {
	return &tracer{
		cur:      make([]opCursor, senders),
		sends:    make([]spanRec, 0, spanCap),
		handlers: make([]spanRec, 0, spanCap),
	}
}

// begin starts recording; spans are timed from start.
func (t *tracer) begin(start time.Time) {
	t.start = start
	t.on.Store(true)
}

func (t *tracer) beginOp(sender, k int) {
	t.turn.Lock()
	t.mu.Lock()
	t.cur[sender] = opCursor{k: int32(k), active: true}
	t.mu.Unlock()
}

func (t *tracer) endOp(sender int) {
	t.mu.Lock()
	if c := &t.cur[sender]; c.active {
		c.active = false
		if c.from == "" { // the op made no Send
			t.turn.Unlock()
		}
	}
	t.mu.Unlock()
}

// claim finds the op a Send that is about to leave from the given endpoint
// belongs to; sender is -1 when no op can have issued it.
func (t *tracer) claim(from transport.Addr) (sender, k int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := -1
	for i, c := range t.cur {
		switch {
		case !c.active:
		case c.from == from:
			return int32(i), c.k
		case c.from == "":
			first = i
		}
	}
	if first < 0 {
		return -1, 0
	}
	t.cur[first].from = from
	t.turn.Unlock()
	return int32(first), t.cur[first].k
}

func (t *tracer) recordSend(rec spanRec) {
	t.mu.Lock()
	t.sends = append(t.sends, rec)
	t.mu.Unlock()
}

func (t *tracer) recordHandler(id uint64, v ival) {
	t.hmu.Lock()
	t.handlers = append(t.handlers, spanRec{id: id, ival: v})
	t.hmu.Unlock()
}

func (t *tracer) since() int64 { return int64(time.Since(t.start)) }

// tracedTransport interposes on the one public seam the stack offers: it
// embeds the real fabric, times every Send and every bound handler, and
// forwards the capabilities dist probes for, so the cluster behaves exactly
// as it does on the bare fabric (dedup on for a fabric that can redeliver).
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt *tracedTransport) Send(req transport.Request, timeout time.Duration) (any, error) {
	if !tt.t.on.Load() {
		return tt.Transport.Send(req, timeout)
	}
	sender, k := tt.t.claim(req.From)
	lo := tt.t.since()
	reply, err := tt.Transport.Send(req, timeout)
	tt.t.recordSend(spanRec{id: req.ID, sender: sender, k: k, ival: ival{lo, tt.t.since()}})
	return reply, err
}

func (tt *tracedTransport) Bind(a transport.Addr, h transport.Handler) error {
	return tt.Transport.Bind(a, func(req transport.Request) (any, error) {
		if !tt.t.on.Load() {
			return h(req)
		}
		lo := tt.t.since()
		reply, err := h(req)
		tt.t.recordHandler(req.ID, ival{lo, tt.t.since()})
		return reply, err
	})
}

func (tt *tracedTransport) CanRedeliver() bool {
	r, ok := tt.Transport.(transport.Redeliverer)
	return ok && r.CanRedeliver()
}

func (tt *tracedTransport) EnableDedup() {
	if d, ok := tt.Transport.(transport.Deduper); ok {
		d.EnableDedup()
	}
}

// spanStats is the layer split read off one traced repetition.
type spanStats struct {
	clientSelf []float64 // per linked op, ns
	fabricSelf []float64 // per Send, ns
	handler    []float64 // per handler span, ns
	// Sums over the window, ns: every op; and per layer over linked ops.
	opTotal, clientTotal, fabricTotal, handlerTotal, residual int64
	ops, linked                                               int
}

// analyze attributes every op of the window to the three layers. ops[s][k]
// is sender s's k-th op span; an op without any Send counts wholly as
// residual.
func (t *tracer) analyze(ops [][]ival) spanStats {
	var st spanStats
	byID := make(map[uint64][]ival, len(t.handlers))
	for _, h := range t.handlers {
		byID[h.id] = append(byID[h.id], h.ival)
		st.handler = append(st.handler, float64(h.dur()))
	}
	rpcs := make([]map[int32][]rpcSpans, len(ops))
	for i := range rpcs {
		rpcs[i] = make(map[int32][]rpcSpans)
	}
	for _, s := range t.sends {
		r := rpcSpans{send: s.ival}
		for _, h := range byID[s.id] { // a retry reuses the ID: keep what this attempt caused
			if h.lo >= s.lo && h.lo < s.hi {
				r.handlers = append(r.handlers, h)
			}
		}
		st.fabricSelf = append(st.fabricSelf, float64(selfTime(r.send, r.handlers)))
		if s.sender >= 0 {
			rpcs[s.sender][s.k] = append(rpcs[s.sender][s.k], r)
		}
	}
	for s, senderOps := range ops {
		for k, op := range senderOps {
			st.ops++
			st.opTotal += op.dur()
			mine := rpcs[s][int32(k)]
			if len(mine) == 0 {
				st.residual += op.dur()
				continue
			}
			st.linked++
			c, f, h, r := opBreakdown(op, mine)
			st.clientSelf = append(st.clientSelf, float64(c))
			st.clientTotal += c
			st.fabricTotal += f
			st.handlerTotal += h
			st.residual += r
		}
	}
	return st
}

// exportOps bounds how many ops of a traced repetition -tracefile keeps: one
// Perfetto row per op stays readable, a row per op of a whole window does not.
const exportOps = 2000

// export renders the repetition's first ops (and all churner spans) as obs
// spans: one trace per op, its Sends as children, each Send's handler span
// as the Send's child.
func (t *tracer) export(ops [][]ival, ch *churner) []*obs.Span {
	epoch := time.Now()
	if t != nil {
		epoch = t.start
	}
	var spans []*obs.Span
	add := func(name string, trace, id, parent uint64, v ival) {
		spans = append(spans, &obs.Span{
			Name: name, TraceID: trace, SpanID: id, ParentID: parent,
			Begin: epoch.Add(time.Duration(v.lo)), Dur: time.Duration(v.dur()),
		})
	}
	opID := func(s, k int) uint64 { return uint64(s+1)<<32 | uint64(k+1) }
	for s, senderOps := range ops {
		for k, op := range senderOps[:min(len(senderOps), exportOps/len(ops))] {
			add("op", opID(s, k), opID(s, k), 0, op)
		}
	}
	if ch != nil {
		const churnTrace = 1 << 48
		for i := range ch.maintain {
			add("membership", churnTrace, churnTrace+uint64(2*i+1), 0, ch.member[i])
			add("maintain", churnTrace, churnTrace+uint64(2*i+2), 0, ch.maintain[i])
		}
	}
	if t == nil {
		return spans
	}
	type exported struct{ trace, id uint64 }
	sendOf := make(map[uint64]exported) // Request.ID -> exported Send span
	for i, s := range t.sends {
		if s.sender < 0 || int(s.k) >= exportOps/len(ops) {
			continue
		}
		op, id := opID(int(s.sender), int(s.k)), uint64(1)<<56|uint64(i)
		sendOf[s.id] = exported{op, id}
		add("send", op, id, op, s.ival)
	}
	for i, h := range t.handlers {
		if send, ok := sendOf[h.id]; ok {
			add("handler", send.trace, uint64(1)<<57|uint64(i), send.id, h.ival)
		}
	}
	return spans
}
