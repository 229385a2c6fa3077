package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// replyWriteTimeout bounds a handler-side reply write: a peer that stops
// reading cannot wedge a handler goroutine forever.
const replyWriteTimeout = 5 * time.Second

// flushWriteTimeout bounds one coalesced queue flush. Queued frames come
// from callers with heterogeneous deadlines, so the flush uses a single
// generous bound; a caller whose own deadline is tighter times out on its
// reply channel as usual.
const flushWriteTimeout = 5 * time.Second

// outFrame is one framed message awaiting transmission. b is the wire
// bytes; enc, when non-nil, is the pooled encoder whose buffer backs b,
// returned to the pool by whoever writes (or abandons) the frame.
type outFrame struct {
	enc *wire.Encoder
	b   []byte
}

// conn is one TCP connection, usable in both roles at once: the read loop
// dispatches reply frames to this side's pending calls and serves request
// frames with this side's handlers.
//
// Writes go through a coalescing queue: the first sender claims the write
// token and writes its frame directly (the uncontended fast path is one
// syscall, no handoff), then drains whatever frames other senders appended
// while it held the token — each drain round is ONE vectored write
// (net.Buffers / writev) covering the whole batch, so under contention the
// syscall count amortizes across senders instead of serializing them.
type conn struct {
	n *Net
	c net.Conn

	qmu     sync.Mutex
	writing bool       // a sender holds the write token and will drain
	queue   []outFrame // frames awaiting the holder's next drain round
	spare   []outFrame // previous batch slice, recycled to swap with queue
	iov     net.Buffers
	// iovw is the working copy WriteTo consumes each drain round. It is a
	// field, not a local, because WriteTo's pointer receiver would force a
	// local slice header to escape — one heap allocation per flush.
	iovw net.Buffers
	wdl  time.Time // write deadline armed on the socket; the token holder's

	pmu     sync.Mutex
	pending map[uint64]chan *wire.Reply
	pdead   bool // die ran; no new pending entries may be added
	// inflight mirrors len(pending) for the pool's checkout, which holds no pmu.
	inflight atomic.Int64
	nextMux  atomic.Uint64

	dead     chan struct{}
	dieOnce  sync.Once
	retireFn func() // removes the conn from its pool, nil for accepted conns

	// ins is the handle set current at creation; die decrements the same
	// gauge newConn incremented even if Instrument swapped handles since.
	ins *instruments
}

// newConn wraps a socket. The caller wires retireFn (if any) and then
// calls start; nothing reads the conn before start, so the wiring is
// race-free.
func (n *Net) newConn(c net.Conn) *conn {
	cn := &conn{
		n:       n,
		c:       c,
		pending: make(map[uint64]chan *wire.Reply),
		dead:    make(chan struct{}),
		ins:     n.ins(),
	}
	n.connsOpen.Add(1)
	cn.ins.gConn.Add(1)
	return cn
}

// start launches the read loop.
func (cn *conn) start() {
	cn.n.loops.Add(1)
	go cn.readLoop()
}

// die closes the connection once: socket closed, every pending caller
// released with a nil deposit, pool membership retired. Depositing (rather
// than broadcasting on a channel) keeps the slot ownership protocol
// uniform: whoever deletes a pending entry deposits exactly once, so the
// reply channels are provably empty when they return to the pool.
func (cn *conn) die() {
	cn.dieOnce.Do(func() {
		close(cn.dead)
		_ = cn.c.Close()
		cn.pmu.Lock()
		cn.pdead = true
		pend := cn.pending
		cn.pending = nil
		cn.noteInflight(-int64(len(pend)))
		cn.pmu.Unlock()
		for _, ch := range pend {
			ch <- nil // buffered and empty: entry present means no deposit yet
		}
		cn.n.connsOpen.Add(-1)
		cn.ins.gConn.Add(-1)
		if cn.retireFn != nil {
			cn.retireFn()
		}
	})
}

// addPending registers a reply waiter. It reports false when the conn has
// already died — the caller's reply can never arrive, and die's sweep has
// already passed, so registering would leak the slot.
func (cn *conn) addPending(mux uint64, ch chan *wire.Reply) bool {
	cn.pmu.Lock()
	if cn.pdead {
		cn.pmu.Unlock()
		return false
	}
	cn.pending[mux] = ch
	cn.noteInflight(1)
	cn.pmu.Unlock()
	return true
}

// noteInflight moves len(pending)'s mirror and its gauge; caller holds pmu.
func (cn *conn) noteInflight(d int64) {
	cn.inflight.Add(d)
	cn.ins.gFlight.Add(d)
}

// takePending removes and returns mux's waiter, or nil when another party
// (die, or the waiter itself reclaiming on timeout) already took it.
// Whoever takes the entry owes its channel exactly one deposit — except
// the owning Send reclaiming its own slot, which deposits nothing.
func (cn *conn) takePending(mux uint64) chan *wire.Reply {
	cn.pmu.Lock()
	ch := cn.pending[mux]
	if ch != nil {
		delete(cn.pending, mux)
		cn.noteInflight(-1)
	}
	cn.pmu.Unlock()
	return ch
}

// reclaim returns a Send's reply slot to the pool after a timeout or write
// failure. If the entry is still in the map nobody deposited, so the
// channel is empty and pools as-is; otherwise a deposit happened (or is
// nanoseconds away), so consume it first — the channel must be provably
// empty before reuse.
func (cn *conn) reclaim(mux uint64, ch chan *wire.Reply) {
	if cn.takePending(mux) != nil {
		callSlots.Put(ch)
		return
	}
	if rep := <-ch; rep != nil {
		replies.Put(rep)
	}
	callSlots.Put(ch)
}

// send transmits one framed message, taking ownership of of.enc (returned
// to the encoder pool once the bytes are on the wire or abandoned).
// Uncontended, it writes directly under the caller's deadline; when
// another sender holds the write token it enqueues instead and returns nil
// — a later flush failure kills the conn, which releases the caller via
// its pending slot, so per-frame write errors are not reported from here.
func (cn *conn) send(of outFrame, timeout time.Duration) error {
	cn.qmu.Lock()
	if cn.writing {
		cn.queue = append(cn.queue, of)
		cn.publishDepthLocked()
		cn.qmu.Unlock()
		return nil
	}
	cn.writing = true
	cn.qmu.Unlock()
	err := cn.write(of.b, timeout)
	if of.enc != nil {
		putEncoder(of.enc)
	}
	cn.drain()
	return err
}

// sendBatch enqueues frames as one unit, taking ownership of their
// encoders, and makes sure they get drained: by the write token's holder
// if there is one, otherwise by this caller, whose first drain round then
// carries the whole batch in one vectored write. As with a queued send, a
// flush failure surfaces through the callers' pending slots.
func (cn *conn) sendBatch(frames []outFrame) {
	cn.qmu.Lock()
	cn.queue = append(cn.queue, frames...)
	cn.publishDepthLocked()
	if cn.writing {
		cn.qmu.Unlock()
		return
	}
	cn.writing = true
	cn.qmu.Unlock()
	cn.drain()
}

// publishDepthLocked mirrors the queue's depth into the fabric's gauge and
// its registry-free twin. Caller holds qmu: publishing inside the section
// that changed the queue orders the stores like the changes, so an
// enqueuer's depth can never land after, and overwrite, the zero of the
// drain round that took its frame.
func (cn *conn) publishDepthLocked() {
	depth := int64(len(cn.queue))
	cn.n.qdepth.Store(depth)
	cn.n.ins().gQueue.Set(depth)
}

// sendCorked enqueues of without claiming the write token: the corking
// handler worker batches consecutive replies into one flush instead of
// paying a write syscall each. It reports whether the caller now owes the
// conn a flushCorked — true when no writer held the token, so nobody else
// is guaranteed to drain the queue.
func (cn *conn) sendCorked(of outFrame) bool {
	cn.qmu.Lock()
	cn.queue = append(cn.queue, of)
	cn.publishDepthLocked()
	owed := !cn.writing
	cn.qmu.Unlock()
	return owed
}

// flushCorked claims the write token if it is free and drains the queue.
// If a writer took over since the cork, the queue is already theirs (drain
// releases the token only after finding the queue empty), so there is
// nothing left to owe.
func (cn *conn) flushCorked() {
	cn.qmu.Lock()
	if cn.writing || len(cn.queue) == 0 {
		cn.qmu.Unlock()
		return
	}
	cn.writing = true
	cn.qmu.Unlock()
	cn.drain()
}

// drain flushes the coalescing queue until it is empty, then releases the
// write token. Each round is one write for the whole batch, vectored when
// it carries more than one frame. A failed flush kills the conn but keeps
// draining: writes on the dead socket fail fast, and every queued frame's
// encoder still returns to the pool.
func (cn *conn) drain() {
	for {
		cn.qmu.Lock()
		if len(cn.queue) == 0 {
			cn.writing = false
			cn.qmu.Unlock()
			return
		}
		batch := cn.queue
		cn.queue = cn.spare[:0]
		cn.spare = batch
		cn.publishDepthLocked()
		iov := cn.iov[:0]
		cn.qmu.Unlock()

		total := 0
		for _, of := range batch {
			iov = append(iov, of.b)
			total += len(of.b)
		}
		cn.iov = iov // keep the grown backing array; WriteTo consumes iovw
		cn.iovw = iov
		cn.setWriteDeadline(flushWriteTimeout)
		var err error
		if len(batch) == 1 {
			_, err = cn.c.Write(batch[0].b) // a lone frame needs no writev
		} else {
			_, err = cn.iovw.WriteTo(cn.c)
		}
		if err != nil {
			cn.die()
		} else {
			cn.wrote(total, len(batch))
		}
		cn.n.ins().hFlush.Observe(float64(len(batch)))
		for _, of := range batch {
			if of.enc != nil {
				putEncoder(of.enc)
			}
		}
	}
}

// write sends one pre-framed message under the write token with the
// caller's deadline. A failed write kills the connection: frame boundaries
// cannot be trusted after a partial write.
func (cn *conn) write(frame []byte, timeout time.Duration) error {
	cn.setWriteDeadline(timeout)
	if _, err := cn.c.Write(frame); err != nil {
		cn.die()
		return err
	}
	cn.wrote(len(frame), 1)
	return nil
}

// setWriteDeadline bounds the next write by timeout, and — crucially —
// clears any previous deadline when timeout is not positive: deadlines are
// connection state, not per-write state, so an unbounded write after a
// bounded one must reset it or inherit a stale (possibly already-expired)
// deadline. Arming is a runtime-timer update, so a bounded write re-arms (to
// now+2*timeout) only when the armed deadline is nearer than now+timeout or
// further than that: a write is bounded by at most twice its timeout, not
// exactly by it. Caller holds the write token, which owns wdl.
func (cn *conn) setWriteDeadline(timeout time.Duration) {
	if timeout <= 0 {
		if !cn.wdl.IsZero() {
			cn.wdl = time.Time{}
			_ = cn.c.SetWriteDeadline(time.Time{})
		}
		return
	}
	if lo := time.Now().Add(timeout); cn.wdl.Before(lo) || cn.wdl.After(lo.Add(timeout)) {
		cn.wdl = lo.Add(timeout)
		_ = cn.c.SetWriteDeadline(cn.wdl)
	}
}

// wrote records one write syscall carrying frames messages of bytes total.
func (cn *conn) wrote(bytes, frames int) {
	cn.n.bytesOut.Add(uint64(bytes))
	cn.n.writes.Add(1)
	cn.n.frames.Add(uint64(frames))
	cn.n.ins().cOut.Add(uint64(bytes))
}

// readLoop decodes frames until the connection dies. Replies release their
// pending callers; requests go to the bounded handler pool (spilling to
// fresh goroutines past its queue, so one slow handler never blocks the
// demultiplexer). Decoded envelopes come from and return to the message
// pools: the read loop hands each reply payload's decoded form to exactly
// one consumer, which recycles it.
func (cn *conn) readLoop() {
	defer cn.n.loops.Done()
	defer cn.die()
	br := bufio.NewReaderSize(cn.c, 32*1024)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return // conn closed or broken; pending callers released by die
		}
		buf = payload[:0]
		ins := cn.n.ins()
		cn.n.bytesIn.Add(uint64(len(payload)))
		ins.cIn.Add(uint64(len(payload)))

		var decStart time.Time
		if ins.hDec != nil {
			decStart = time.Now()
		}
		if wire.IsReply(payload) {
			rep := replies.Get().(*wire.Reply)
			err := wire.DecodeReplyFrame(payload, rep)
			ins.hDec.Since(decStart)
			if err != nil {
				// A frame that does not decode poisons the stream's framing
				// trust; drop the connection and let senders retry elsewhere.
				replies.Put(rep)
				return
			}
			if ch := cn.takePending(rep.Mux); ch != nil {
				ch <- rep // buffered; the waiter recycles rep after reading it
			} else {
				replies.Put(rep) // caller timed out and reclaimed the slot
			}
		} else {
			req := requests.Get().(*wire.Request)
			err := wire.DecodeRequestFrame(payload, req)
			ins.hDec.Since(decStart)
			if err != nil {
				requests.Put(req)
				return
			}
			cn.n.serveRequest(cn, req)
		}
	}
}

// serveRequest routes one inbound request to the handler worker pool.
// Requests arriving after Close has begun are dropped (the peer's retry
// will fail on the closed listener), which is what lets Close wait for a
// quiesced in-flight set. When the pool's queue is full — every worker
// stuck in a slow handler — the request spills to a fresh goroutine: the
// pool bounds goroutine churn in the common case, the spillover preserves
// the old goroutine-per-request liveness guarantee in the worst case.
func (n *Net) serveRequest(cn *conn, wreq *wire.Request) {
	n.flightMu.Lock()
	if n.closed.Load() {
		n.flightMu.Unlock()
		requests.Put(wreq)
		return
	}
	n.inflight.Add(1)
	t := srvTask{cn: cn, req: wreq}
	select {
	case n.work <- t:
		n.flightMu.Unlock()
	default:
		n.flightMu.Unlock()
		n.spills.Add(1)
		go n.serveTask(t)
	}
}

// srvTask is one inbound request bound to the connection its reply goes
// back on.
type srvTask struct {
	cn  *conn
	req *wire.Request
}

// corkBurst bounds how many replies a handler worker corks before it must
// flush, and corkBudget bounds how long the oldest corked reply may wait
// (checked between tasks — a running handler cannot be preempted, so the
// true bound is one handler duration past the budget). Together they keep
// reply latency tight while consecutive fast handlers share flushes.
const (
	corkBurst  = 32
	corkBudget = 100 * time.Microsecond
)

// handlerLoop is one worker in the bounded handler pool. It exits when
// Close closes the work channel, after draining it.
//
// The loop corks replies: each task's reply frame is queued on its
// connection without an immediate write, and the worker flushes every
// corked connection before it would block for more work, when corkBurst
// replies accumulate, or when corkBudget expires. Back-to-back requests — the
// shape a loaded server actually sees — then share one vectored write
// syscall per connection per burst instead of paying one syscall per
// reply. A task's in-flight count is released only after its reply is
// flushed, so Close's drain still guarantees replies hit the wire before
// the connections die.
func (n *Net) handlerLoop() {
	defer n.loops.Done()
	var (
		corked []*conn // conns owed a flush, deduped, in cork order
		owed   int     // tasks whose inflight release awaits the flush
		first  time.Time
	)
	flush := func() {
		for i, cn := range corked {
			cn.flushCorked()
			corked[i] = nil
		}
		corked = corked[:0]
		if owed > 0 {
			n.inflight.Add(-owed)
			owed = 0
		}
	}
	for {
		var t srvTask
		var live bool
		select {
		case t, live = <-n.work:
		default:
			// Nothing immediately available: flush before blocking, so a
			// corked reply can never wait on traffic that may go to
			// another worker.
			flush()
			t, live = <-n.work
		}
		if !live {
			flush()
			return
		}
		cn := t.cn
		if of, ok := n.buildReply(t); ok {
			if cn.sendCorked(of) && !corkedHas(corked, cn) {
				if len(corked) == 0 {
					first = time.Now()
				}
				corked = append(corked, cn)
			}
		}
		owed++
		if owed >= corkBurst || (len(corked) > 0 && time.Since(first) > corkBudget) {
			flush()
		}
	}
}

// corkedHas reports whether cn is already in the worker's corked set (a
// handful of entries at most — workers talk to few conns per burst).
func corkedHas(corked []*conn, cn *conn) bool {
	for _, c := range corked {
		if c == cn {
			return true
		}
	}
	return false
}

// serveTask runs one inbound request and sends the reply immediately —
// the spillover path, where no worker continuation exists to cork
// against. The reply frame still rides the connection's coalescing queue
// like any other write.
func (n *Net) serveTask(t srvTask) {
	defer n.inflight.Done()
	if of, ok := n.buildReply(t); ok {
		_ = t.cn.send(of, replyWriteTimeout)
	}
}

// buildReply dispatches one inbound request and encodes its reply frame.
// The pooled request is recycled as soon as its fields are consumed. ok is
// false only when the reply cannot be framed at all.
func (n *Net) buildReply(t srvTask) (of outFrame, ok bool) {
	status, body, errText := n.dispatch(t.req.Req)
	mux := t.req.Mux
	codec, _ := wire.ByKind(t.req.Req.Kind)
	requests.Put(t.req)

	ins := n.ins()
	var encStart time.Time
	if ins.hEnc != nil {
		encStart = time.Now()
	}
	enc := getEncoder()
	enc.Pad(wire.FrameOverhead)
	if err := wire.EncodeReply(enc, mux, codec.Code, status, body, errText); err != nil {
		// The handler returned a reply the codec cannot carry; degrade to an
		// application error so the caller is not left to time out.
		enc.Reset()
		enc.Pad(wire.FrameOverhead)
		_ = wire.EncodeReply(enc, mux, codec.Code, wire.ReplyBadRequest, nil, err.Error())
	}
	frame, err := wire.FinishFrame(enc.Bytes())
	ins.hEnc.Since(encStart)
	if err != nil {
		putEncoder(enc)
		return outFrame{}, false
	}
	return outFrame{enc: enc, b: frame}, true
}

// dispatch executes a request against the local endpoint table, applying
// receiver-side dedup when enabled.
func (n *Net) dispatch(req transport.Request) (wire.ReplyStatus, any, string) {
	n.mu.RLock()
	ep := n.eps[req.To]
	n.mu.RUnlock()
	if ep == nil {
		return wire.ReplyUnreachable, nil, string(req.To)
	}
	var reply any
	var err error
	if tbl := ep.dedup.Load(); tbl != nil {
		var hit bool
		reply, err, hit = tbl.Do(req.ID, func() (any, error) { return n.runHandler(ep, req) })
		if hit {
			n.dedupHits.Add(1)
		}
	} else {
		// No dedup: call the handler directly, without the closure the
		// dedup path needs — the unsampled undeduped request path must not
		// allocate.
		reply, err = n.runHandler(ep, req)
	}
	if err != nil {
		return wire.ReplyAppError, nil, err.Error()
	}
	return wire.ReplyOK, reply, ""
}

// runHandler invokes an endpoint's handler under the RPC observer, when
// one is installed.
func (n *Net) runHandler(ep *endpoint, req transport.Request) (any, error) {
	n.delivered.Add(1)
	o := n.rpc.Load()
	if o == nil {
		return ep.h(req)
	}
	// The child span ends (and lands in the tracer ring) before the
	// reply frame is written, so once a caller's Send returns, every
	// server-side span of that call is already retained.
	sp, start := o.Begin(req.Kind, req.Trace)
	reply, err := ep.h(req)
	o.End(req.Kind, string(req.To), sp, start, err)
	return reply, err
}

// acceptLoop serves inbound connections until the listener closes.
func (n *Net) acceptLoop() {
	defer n.loops.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		setNoDelay(c)
		cn := n.newConn(c)
		// Accepted conns die with the fabric: register for Close.
		n.poolMu.Lock()
		n.accepted = append(n.accepted, cn)
		n.poolMu.Unlock()
		cn.start()
	}
}

// setNoDelay disables Nagle: the fabric's messages are small
// request/reply frames where coalescing delay is pure latency (the write
// coalescer already batches at the sender where it can).
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// pool is the per-destination connection set: up to cfg.PoolSize conns,
// dialed on demand, checked out by idleness, with exponential backoff after
// dial failures (a destination that refused recently fails fast instead of
// hammering).
type pool struct {
	n      *Net
	target string

	mu       sync.Mutex
	cond     *sync.Cond // lazily created; signals dial completion
	conns    []*conn
	dialing  int    // dials in progress, holding pool slots
	rr       uint64 // rotation point: breaks ties between equally loaded conns
	backoff  time.Duration
	coolDown time.Time
}

func (n *Net) pool(target string) *pool {
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	p := n.pools[target]
	if p == nil {
		p = &pool{n: n, target: target, backoff: n.cfg.DialBackoff}
		n.pools[target] = p
	}
	return p
}

// conn returns a healthy pooled connection, dialing when the pool is not
// full. A full pool hands out the live conn with the fewest calls in flight,
// rotating among equals: a call gets a socket nobody else is using when one
// exists, a lone sequential caller still spreads over the pool, and calls
// multiplex only when every conn is busy (WireStats.Shared). The load is read
// before the caller's request registers, so two racing callers may still
// pick one conn; the rotation starts them at different ones. Dials in
// progress hold pool slots, so concurrent first callers cannot race the pool
// past PoolSize; callers finding every slot mid-dial wait for one to
// resolve. Within a post-failure cooldown window the pool fails fast with
// ErrUnreachable rather than re-dialing a destination that just refused.
func (p *pool) conn() (*conn, error) {
	p.mu.Lock()
	for {
		// Sweep dead conns so the checkout only sees live ones (die() retires
		// asynchronously; a conn can break between retirement and this pick).
		live := p.conns[:0]
		for _, c := range p.conns {
			select {
			case <-c.dead:
			default:
				live = append(live, c)
			}
		}
		p.conns = live
		cooling := !p.coolDown.IsZero() && time.Now().Before(p.coolDown)
		if !cooling && !p.coolDown.IsZero() {
			// Cooldown expired: clear it so the gauge reflects only pools
			// still refusing dials.
			p.coolDown = time.Time{}
			p.n.ins().gCooling.Add(-1)
		}
		if len(p.conns) > 0 && (len(p.conns)+p.dialing >= p.n.cfg.PoolSize || cooling) {
			p.rr++
			c := p.conns[p.rr%uint64(len(p.conns))]
			load := c.inflight.Load()
			for i := 1; i < len(p.conns) && load > 0; i++ {
				o := p.conns[(p.rr+uint64(i))%uint64(len(p.conns))]
				if l := o.inflight.Load(); l < load {
					c, load = o, l
				}
			}
			p.mu.Unlock()
			if load > 0 {
				p.n.shared.Add(1)
				p.n.ins().cShared.Inc()
			}
			return c, nil
		}
		if cooling {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %s dial cooling down", transport.ErrUnreachable, p.target)
		}
		if len(p.conns)+p.dialing < p.n.cfg.PoolSize {
			p.dialing++
			p.n.ins().gDialing.Add(1)
			p.mu.Unlock()
			c, err := p.dial()
			p.mu.Lock()
			p.dialing--
			p.n.ins().gDialing.Add(-1)
			if p.cond != nil {
				p.cond.Broadcast()
			}
			if err != nil {
				p.mu.Unlock()
				return nil, err
			}
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			return c, nil
		}
		// No live conn and every slot is mid-dial: wait for one to resolve,
		// then re-evaluate.
		if p.cond == nil {
			p.cond = sync.NewCond(&p.mu)
		}
		p.cond.Wait()
	}
}

// dial attempts to connect with exponential backoff between attempts.
func (p *pool) dial() (*conn, error) {
	wait := p.n.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < p.n.cfg.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(wait)
			if wait *= 2; wait > p.n.cfg.DialBackoffCap {
				wait = p.n.cfg.DialBackoffCap
			}
		}
		c, err := net.DialTimeout("tcp", p.target, time.Second)
		if err == nil {
			p.n.dials.Add(1)
			setNoDelay(c)
			p.mu.Lock()
			p.backoff = p.n.cfg.DialBackoff
			if !p.coolDown.IsZero() {
				p.coolDown = time.Time{}
				p.n.ins().gCooling.Add(-1)
			}
			p.mu.Unlock()
			cn := p.n.newConn(c)
			cn.retireFn = func() { p.retire(cn) }
			cn.start()
			return cn, nil
		}
		lastErr = err
		p.n.dialFails.Add(1)
	}
	p.mu.Lock()
	if p.coolDown.IsZero() {
		p.n.ins().gCooling.Add(1)
	}
	p.coolDown = time.Now().Add(p.backoff)
	if p.backoff *= 2; p.backoff > p.n.cfg.DialBackoffCap {
		p.backoff = p.n.cfg.DialBackoffCap
	}
	p.mu.Unlock()
	return nil, fmt.Errorf("%w: dial %s: %v", transport.ErrUnreachable, p.target, lastErr)
}

// retire removes a dead connection from the pool.
func (p *pool) retire(dead *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.conns {
		if c == dead {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			return
		}
	}
}

// close kills every pooled connection.
func (p *pool) close() {
	p.mu.Lock()
	conns := append([]*conn(nil), p.conns...)
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.die()
	}
}
