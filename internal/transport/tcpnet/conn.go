package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
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

// conn is one TCP connection in one role. A dialed conn carries one call at
// a time, and the caller holding it reads the reply itself (reply); an
// accepted conn's read loop serves the requests that arrive on it. Every
// frame, request or reply, is written whole by the goroutine that has it,
// under wmu.
type conn struct {
	n *Net
	c net.Conn

	wmu sync.Mutex
	wdl time.Time // write deadline armed on the socket; owned by wmu

	dead    chan struct{}
	dieOnce sync.Once

	// ins is the handle set current at creation; die decrements the same
	// gauge newConn incremented even if Instrument swapped handles since.
	ins *instruments

	// The dialed side, owned by the caller holding the conn: its pool, the
	// reader and buffer replies arrive through, the envelope they decode
	// into, and the mux ID of the call in flight. nil for accepted conns.
	p    *pool
	br   *bufio.Reader
	rbuf []byte
	rep  wire.Reply
	mux  uint64
}

// newConn wraps a socket; nothing reads it until its owner does.
func (n *Net) newConn(c net.Conn) *conn {
	cn := &conn{
		n:    n,
		c:    c,
		dead: make(chan struct{}),
		ins:  n.ins(),
	}
	n.connsOpen.Add(1)
	cn.ins.gConn.Add(1)
	return cn
}

// die closes the connection once, and leaves its pool's count of open
// conns.
func (cn *conn) die() {
	cn.dieOnce.Do(func() {
		close(cn.dead)
		_ = cn.c.Close()
		cn.n.connsOpen.Add(-1)
		cn.ins.gConn.Add(-1)
		if p := cn.p; p != nil {
			p.mu.Lock()
			p.open--
			p.mu.Unlock()
		}
	})
}

// reply reads the reply to the call cn carries, by deadline, and hands cn
// back to its pool. A call that timed out or broke closes cn instead, so a
// late reply is never read as a later call's; a break that is not the
// deadline also closes the pool's idle conns, which share the peer's fate.
// Both failures are the retryable ErrTimeout, as a lost reply leg is.
func (cn *conn) reply(deadline time.Time) (any, error) {
	rep, err := cn.readReply(deadline)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		cn.die()
		return nil, transport.ErrTimeout
	}
	if err != nil {
		cn.p.fail(cn)
		return nil, fmt.Errorf("%w: connection lost: %v", transport.ErrTimeout, err)
	}
	v, err := replyValue(rep)
	cn.p.put(cn)
	return v, err
}

// readReply reads and decodes one reply frame, which must answer the call
// in flight.
func (cn *conn) readReply(deadline time.Time) (*wire.Reply, error) {
	if err := cn.c.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	payload, err := wire.ReadFrame(cn.br, cn.rbuf)
	if err != nil {
		return nil, err
	}
	cn.rbuf = payload[:0]
	ins := cn.n.ins()
	cn.n.bytesIn.Add(uint64(len(payload)))
	ins.cIn.Add(uint64(len(payload)))
	var decStart time.Time
	if ins.hDec != nil {
		decStart = time.Now()
	}
	if err := wire.DecodeReplyFrame(payload, &cn.rep); err != nil {
		return nil, err
	}
	ins.hDec.Since(decStart)
	if cn.rep.Mux != cn.mux {
		return nil, fmt.Errorf("%w: reply to mux %d on a call of mux %d", wire.ErrCorrupt, cn.rep.Mux, cn.mux)
	}
	return &cn.rep, nil
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

// readLoop serves the requests that arrive on an accepted conn until it
// dies, handing each to a serve goroutine so that a slow handler never
// blocks the next request. Decoded envelopes come from and return to the
// request pool. A frame that does not decode as a request poisons the
// stream's framing trust and drops the conn.
func (cn *conn) readLoop() {
	defer cn.n.loops.Done()
	defer cn.n.forget(cn)
	defer cn.die()
	br := bufio.NewReaderSize(cn.c, 32*1024)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return // conn closed or broken
		}
		buf = payload[:0]
		ins := cn.n.ins()
		cn.n.bytesIn.Add(uint64(len(payload)))
		ins.cIn.Add(uint64(len(payload)))

		var decStart time.Time
		if ins.hDec != nil {
			decStart = time.Now()
		}
		req := requests.Get().(*wire.Request)
		if err := wire.DecodeRequestFrame(payload, req); err != nil {
			requests.Put(req)
			return
		}
		ins.hDec.Since(decStart)
		cn.n.serveRequest(cn, req)
	}
}

// forget drops a dead accepted conn from the set Close closes.
func (n *Net) forget(cn *conn) {
	n.poolMu.Lock()
	delete(n.accepted, cn)
	n.poolMu.Unlock()
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

// dispatch executes a request against the local endpoint table, at most
// once per request ID and endpoint.
func (n *Net) dispatch(req transport.Request) (wire.ReplyStatus, any, string) {
	n.mu.RLock()
	ep := n.eps[req.To]
	n.mu.RUnlock()
	if ep == nil {
		return wire.ReplyUnreachable, nil, string(req.To)
	}
	reply, err, hit := ep.dedup.Do(req.ID, func() (any, error) { return n.runHandler(ep, req) })
	if hit {
		n.dedupHits.Add(1)
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
		// Accepted conns die with the fabric: register for Close, unless
		// Close has begun and may have taken the set already.
		n.poolMu.Lock()
		if n.closed.Load() {
			n.poolMu.Unlock()
			cn.die()
			continue
		}
		n.accepted[cn] = struct{}{}
		n.poolMu.Unlock()
		n.loops.Add(1)
		go cn.readLoop()
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

// pool is the per-destination connection set: the idle dialed conns, the
// one that went idle last on top, dialed on demand with exponential
// backoff after dial failures (a destination that refused recently fails
// fast instead of hammering). It keeps every conn handed back, so it holds
// as many as the calls ever in flight to its destination at once.
type pool struct {
	n      *Net
	target string

	mu       sync.Mutex
	idle     []*conn
	open     int // dialed conns not yet closed: idle, or carrying a call
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

// conn checks out the conn that went idle last, or dials a new one when
// none is idle. Within a post-failure cooldown window the pool fails fast
// with ErrUnreachable rather than re-dialing a destination that just
// refused.
func (p *pool) conn() (*conn, error) {
	p.mu.Lock()
	if k := len(p.idle) - 1; k >= 0 {
		c := p.idle[k]
		p.idle[k] = nil
		p.idle = p.idle[:k]
		p.mu.Unlock()
		return c, nil
	}
	cooling := !p.coolDown.IsZero() && time.Now().Before(p.coolDown)
	if !cooling && !p.coolDown.IsZero() {
		// Cooldown expired: clear it so the gauge reflects only pools
		// still refusing dials.
		p.coolDown = time.Time{}
		p.n.ins().gCooling.Add(-1)
	}
	p.mu.Unlock()
	if cooling {
		return nil, fmt.Errorf("%w: %s dial cooling down", transport.ErrUnreachable, p.target)
	}
	return p.dial()
}

// put hands back a conn whose call has completed.
func (p *pool) put(c *conn) {
	p.mu.Lock()
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// fail closes a conn whose call broke, and the idle ones with it.
func (p *pool) fail(c *conn) {
	c.die()
	p.close()
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
			cn := p.n.newConn(c)
			cn.p, cn.br = p, bufio.NewReader(c)
			p.mu.Lock()
			p.open++
			p.backoff = dialBackoff
			if !p.coolDown.IsZero() {
				p.coolDown = time.Time{}
				p.n.ins().gCooling.Add(-1)
			}
			p.mu.Unlock()
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

// close kills every idle connection.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.die()
	}
}
