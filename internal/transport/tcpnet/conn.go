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
// reading cannot wedge a request goroutine forever.
const replyWriteTimeout = 5 * time.Second

// outFrame is one framed message awaiting transmission. b is the wire
// bytes; enc, when non-nil, is the pooled encoder whose buffer backs b,
// returned to the pool by send once the bytes are written or abandoned.
type outFrame struct {
	enc *wire.Encoder
	b   []byte
}

// conn is one TCP connection, usable in both roles at once: the read loop
// dispatches reply frames to this side's pending calls and serves request
// frames with this side's handlers. Every frame, request or reply, is
// written whole by the goroutine that has it, under wmu.
type conn struct {
	n *Net
	c net.Conn

	wmu sync.Mutex
	wdl time.Time // write deadline armed on the socket; owned by wmu

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

// send writes one framed message whole under the connection's write mutex
// and the caller's deadline, then returns of.enc to the encoder pool. A
// failed write kills the connection: frame boundaries cannot be trusted
// after a partial write.
func (cn *conn) send(of outFrame, timeout time.Duration) error {
	cn.wmu.Lock()
	cn.setWriteDeadline(timeout)
	_, err := cn.c.Write(of.b)
	cn.wmu.Unlock()
	if of.enc != nil {
		putEncoder(of.enc)
	}
	if err != nil {
		cn.die()
		return err
	}
	cn.n.bytesOut.Add(uint64(len(of.b)))
	cn.n.writes.Add(1)
	cn.n.ins().cOut.Add(uint64(len(of.b)))
	return nil
}

// setWriteDeadline bounds the next write by timeout, and — crucially —
// clears any previous deadline when timeout is not positive: deadlines are
// connection state, not per-write state, so an unbounded write after a
// bounded one must reset it or inherit a stale (possibly already-expired)
// deadline. Arming is a runtime-timer update, so a bounded write re-arms (to
// now+2*timeout) only when the armed deadline is nearer than now+timeout or
// further than that: a write is bounded by at most twice its timeout, not
// exactly by it. Caller holds wmu, which owns wdl.
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

// readLoop decodes frames until the connection dies. Replies release their
// pending callers; each request is handed to a serve goroutine, so a slow
// handler never blocks the demultiplexer. Decoded envelopes come from and
// return to the message pools: the read loop hands each reply payload's
// decoded form to exactly one consumer, which recycles it.
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

// serveJob is one inbound request and the connection its reply goes out on.
type serveJob struct {
	cn  *conn
	req *wire.Request
}

// serveRequest hands one inbound request to a serve goroutine, which writes
// the reply; Close waits for it. The goroutine that went idle last takes it,
// and a new one starts only when none is idle, so the serve goroutines are
// bounded by the most calls the peers have had in flight at once. Requests
// arriving after Close has begun are dropped (the peer's retry will fail on
// the closed listener), which is what lets Close wait for a quiesced
// in-flight set.
func (n *Net) serveRequest(cn *conn, req *wire.Request) {
	j := serveJob{cn: cn, req: req}
	n.flightMu.Lock()
	if n.closed.Load() {
		n.flightMu.Unlock()
		requests.Put(req)
		return
	}
	n.inflight.Add(1)
	if k := len(n.idle) - 1; k >= 0 {
		jobs := n.idle[k]
		n.idle[k] = nil
		n.idle = n.idle[:k]
		n.flightMu.Unlock()
		jobs <- j // buffered: the goroutine need not have reached its receive
		return
	}
	n.serving++
	n.servers.Add(1)
	n.flightMu.Unlock()
	go n.serveLoop(j)
}

// serveLoop is a serve goroutine: it serves j, then parks until it is handed
// the next request or Close releases it.
func (n *Net) serveLoop(j serveJob) {
	defer n.servers.Done()
	jobs := make(chan serveJob, 1)
	for ok := true; ok; j, ok = <-jobs {
		n.serve(j.cn, j.req)
		n.flightMu.Lock()
		if n.closed.Load() {
			// No request is handed out any more; Close may already have
			// released the idle goroutines.
			n.serving--
			n.flightMu.Unlock()
			n.inflight.Done()
			return
		}
		n.idle = append(n.idle, jobs)
		n.flightMu.Unlock()
		n.inflight.Done()
	}
}

// releaseIdle ends the parked serve goroutines; Close calls it once no
// request can be handed out any more.
func (n *Net) releaseIdle() {
	n.flightMu.Lock()
	for _, jobs := range n.idle {
		close(jobs)
	}
	n.serving -= len(n.idle)
	n.idle = nil
	n.flightMu.Unlock()
}

// serve dispatches one inbound request and writes its reply frame on cn.
// The pooled request is recycled once the reply is encoded: the handler's
// reply may not point into it, but the encoder is the last reader either way.
func (n *Net) serve(cn *conn, req *wire.Request) {
	status, body, errText := n.dispatch(req.Req)
	mux := req.Mux
	codec, _ := wire.ByKind(req.Req.Kind)

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
	requests.Put(req)
	frame, err := wire.FinishFrame(enc.Bytes())
	ins.hEnc.Since(encStart)
	if err != nil {
		putEncoder(enc) // a reply that cannot be framed at all
		return
	}
	// A failed write has killed cn; the caller sees its call lost.
	_ = cn.send(outFrame{enc: enc, b: frame}, replyWriteTimeout)
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
// request/reply frames where coalescing delay is pure latency.
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// A Send dials a destination up to dialAttempts times, waiting dialBackoff
// after the first failure and doubling the wait up to dialBackoffCap. A pool
// whose dials all failed then refuses calls for its cooldown, which starts
// at dialBackoff and doubles per consecutive failed round up to the same cap.
const (
	dialBackoff    = time.Millisecond
	dialBackoffCap = 50 * time.Millisecond
	dialAttempts   = 3
)

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
		p = &pool{n: n, target: target, backoff: dialBackoff}
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
	wait := dialBackoff
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(wait)
			if wait *= 2; wait > dialBackoffCap {
				wait = dialBackoffCap
			}
		}
		c, err := net.DialTimeout("tcp", p.target, time.Second)
		if err == nil {
			p.n.dials.Add(1)
			setNoDelay(c)
			p.mu.Lock()
			p.backoff = dialBackoff
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
	if p.backoff *= 2; p.backoff > dialBackoffCap {
		p.backoff = dialBackoffCap
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
