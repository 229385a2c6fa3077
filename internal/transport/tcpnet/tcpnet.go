// Package tcpnet is the socket implementation of transport.Transport:
// the same request/reply fabric the in-memory switch provides, over real
// TCP connections framed by the internal/wire binary codec. Everything
// built on transport — chord RPCs, dist token and freeze traffic, the
// retry Client, the Faulty fault injector — composes with it unchanged,
// which is the point: the protocol layers cannot tell a socket from a
// function call, but latency, scheduling and byte costs become real.
//
//   - Each Net owns one TCP listener. Bound addresses are endpoints served
//     by that listener; Send resolves the destination address to a
//     host:port (its own listener by default, or per-prefix routes added
//     with Route for multi-fabric topologies) and issues the call over a
//     pooled connection.
//   - Connections multiplex: every request frame carries a per-attempt mux
//     ID, replies come back tagged with it, so many concurrent calls share
//     a few connections in both directions. A small per-destination pool
//     (PoolSize conns, dialed on demand with backoff, idlest one first) keeps
//     head-of-line blocking bounded without a conn per call.
//   - Per-call deadlines map to the transport error vocabulary: no reply
//     within the timeout is ErrTimeout (retried by Client), an
//     unresolvable or undialable destination is ErrUnreachable (not
//     retried; the caller re-resolves), and a handler-side "no endpoint
//     bound" reply is ErrUnreachable too, exactly like the memory switch.
//   - Receiver-side dedup is the same bounded DedupTable the memory switch
//     uses, keyed per endpoint, so retries and wire-level duplicates keep
//     handler effects at-most-once (the E24 exactness property) over a
//     real socket.
//   - Each inbound request is served on a goroutine of its own while it
//     runs, so a slow handler delays nobody else; the goroutine then parks
//     and serves a later request, so the serve goroutines are as many as
//     the calls ever in flight at once, not one per request.
//   - Close is graceful: the listener stops accepting, in-flight handlers
//     run to completion and their replies are flushed before connections
//     die; only then do pending callers see errors, and the parked serve
//     goroutines end.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config shapes a Net. The zero value works: listen on a loopback port
// chosen by the kernel, PoolSize 2.
type Config struct {
	// Listen is the listen address (host:port). Empty means
	// "127.0.0.1:0": loopback, kernel-assigned port.
	Listen string
	// PoolSize is the number of connections kept per destination. 0 means
	// 2: one is enough for correctness, a second keeps a large group
	// message from head-of-line blocking small control traffic: a call takes
	// the idlest connection, so only calls beyond PoolSize concurrent ones to
	// a destination share a socket (WireStats.Shared counts them).
	PoolSize int
}

func (c Config) withDefaults() Config {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	return c
}

// endpoint is one bound address on the receiving side.
type endpoint struct {
	h     transport.Handler
	dedup atomic.Pointer[transport.DedupTable] // nil until dedup enabled
}

// WireStats are the byte- and connection-level counters a socket fabric
// has and the memory switch does not.
type WireStats struct {
	BytesIn   uint64 // frame bytes read (requests received + replies received)
	BytesOut  uint64 // frame bytes written (requests sent + replies sent)
	Dials     uint64 // outbound connections established
	DialFails uint64 // dial attempts that failed
	ConnsOpen int64  // currently open connections (both directions)
	Writes    uint64 // write syscalls issued, one per frame
	Frames    uint64 // frames written: always equal to Writes
	// Shared counts calls handed a connection already carrying one (its whole
	// pool was busy): against Sent, whether PoolSize covers the concurrency.
	Shared uint64
}

// Net is a TCP fabric. It implements transport.Transport and
// transport.Deduper.
type Net struct {
	cfg  Config
	ln   net.Listener
	addr string

	mu    sync.RWMutex
	eps   map[transport.Addr]*endpoint
	dedup bool

	// routes is the current routing snapshot. Every Send, every SendBatch
	// request and every step of a dist handler chain resolves against it, so
	// readers take no lock: writers (serialized by routeMu) publish a fresh
	// immutable table.
	routeMu sync.Mutex
	routes  atomic.Pointer[[]route] // longest prefix first

	poolMu   sync.Mutex
	pools    map[string]*pool
	accepted []*conn // inbound conns, closed with the fabric

	closed  atomic.Bool
	closeCh chan struct{}
	// inflight counts handler executions plus their reply writes; Close
	// waits on it so accepted requests always get their reply flushed.
	// flightMu orders the closed check against inflight.Add so no handler
	// starts after Close has begun waiting.
	flightMu sync.Mutex
	inflight sync.WaitGroup
	// idle holds the job channels of the serve goroutines parked between
	// requests, the last to park last; serving counts the serve goroutines
	// alive, busy or idle. Both are guarded by flightMu. servers counts them
	// for Close, which waits for every one to end.
	idle    []chan serveJob
	serving int
	servers sync.WaitGroup
	// outcalls counts Sends in progress; Close waits on it after the
	// handler drain so replies already flushed to the kernel are consumed
	// by their callers before the pooled conns die.
	outcalls sync.WaitGroup
	// loops counts the accept loop and per-connection read loops.
	loops sync.WaitGroup

	sent      atomic.Uint64
	delivered atomic.Uint64
	dedupHits atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	dials     atomic.Uint64
	dialFails atomic.Uint64
	connsOpen atomic.Int64
	writes    atomic.Uint64
	shared    atomic.Uint64

	// Observability handles, swapped in atomically by Instrument (the
	// accept and read loops are already running by then). All handles are
	// nil until instrumented; obs instruments no-op on nil receivers.
	instr atomic.Pointer[instruments]

	// rpc observes server-side handler execution — per-kind latency
	// histograms, child spans stitched to the wire-propagated trace
	// context, slow-RPC log, flight recorder. Swapped atomically by
	// InstrumentRPC; nil when uninstrumented.
	rpc atomic.Pointer[obs.RPCObs]
}

// instruments bundles the obs handles so they install atomically.
type instruments struct {
	hEnc     *obs.Hist // encode seconds per message
	hDec     *obs.Hist // decode seconds per message
	cIn      *obs.Counter
	cOut     *obs.Counter
	gConn    *obs.Gauge
	gDialing *obs.Gauge   // dial slots currently held by in-progress dials
	gCooling *obs.Gauge   // destination pools inside a post-failure cooldown
	gFlight  *obs.Gauge   // calls awaiting a reply on conns opened under this handle set
	cShared  *obs.Counter // calls handed an already busy conn
}

var noInstr = &instruments{}

// ins returns the current handle set, never nil.
func (n *Net) ins() *instruments {
	if p := n.instr.Load(); p != nil {
		return p
	}
	return noInstr
}

type route struct {
	prefix string
	target string // host:port
}

// New creates a Net listening per cfg and starts serving.
func New(cfg Config) (*Net, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
	}
	n := &Net{
		cfg:     cfg,
		ln:      ln,
		addr:    ln.Addr().String(),
		eps:     make(map[transport.Addr]*endpoint),
		pools:   make(map[string]*pool),
		closeCh: make(chan struct{}),
	}
	n.routes.Store(new([]route))
	n.loops.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the fabric's listen address (host:port), the value other
// Nets route to.
func (n *Net) Addr() string { return n.addr }

// Route sends destination addresses with the given prefix to the fabric
// listening at hostport (its Addr). When several prefixes match an
// address the longest one wins, so "c:0110#" beats "c:0" regardless of
// insertion order; unmatched addresses are served by this Net's own
// listener. The prefix must be non-empty and hostport must parse as
// host:port. Re-adding a prefix with its current target is an idempotent
// no-op; re-adding it with a different target is an error, so a topology
// bug that would silently shadow an earlier wiring fails loudly instead.
func (n *Net) Route(prefix, hostport string) error {
	if prefix == "" {
		return fmt.Errorf("tcpnet: empty route prefix")
	}
	if _, _, err := net.SplitHostPort(hostport); err != nil {
		return fmt.Errorf("tcpnet: route %q: bad hostport %q: %w", prefix, hostport, err)
	}
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	old := *n.routes.Load()
	for _, r := range old {
		if r.prefix == prefix {
			if r.target == hostport {
				return nil
			}
			return fmt.Errorf("tcpnet: route %q already targets %q (refusing to shadow it with %q)",
				prefix, r.target, hostport)
		}
	}
	routes := append(slices.Clone(old), route{prefix: prefix, target: hostport})
	sort.SliceStable(routes, func(i, j int) bool {
		return len(routes[i].prefix) > len(routes[j].prefix)
	})
	n.routes.Store(&routes)
	return nil
}

// resolve maps a destination address to the host:port serving it.
func (n *Net) resolve(a transport.Addr) string {
	for _, r := range *n.routes.Load() {
		if strings.HasPrefix(string(a), r.prefix) {
			return r.target
		}
	}
	return n.addr
}

// Site implements transport.Placer: a is served by the fabric its route
// resolves to, which is this one ("") when that is its own listener. Read
// per call, because routes are installed after construction (launch wires
// them once every listener's address is known).
func (n *Net) Site(a transport.Addr) string {
	if target := n.resolve(a); target != n.addr {
		return target
	}
	return ""
}

// Instrument routes the fabric's socket-level distributions and counters
// into reg: per-message encode/decode seconds, frame bytes in/out, and
// open connections. Safe to call while traffic flows; the handle set
// installs atomically (connections opened before the call are not
// reflected in the gauge).
func (n *Net) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.instr.Store(&instruments{
		hEnc:     reg.Histogram("tcpnet.encode.seconds", 0, 0.001, 200),
		hDec:     reg.Histogram("tcpnet.decode.seconds", 0, 0.001, 200),
		cIn:      reg.Counter("tcpnet.bytes.in"),
		cOut:     reg.Counter("tcpnet.bytes.out"),
		gConn:    reg.Gauge("tcpnet.conns.open"),
		gDialing: reg.Gauge("tcpnet.pool.dialing"),
		gCooling: reg.Gauge("tcpnet.pool.cooldown"),
		gFlight:  reg.Gauge("tcpnet.pool.inflight"),
		cShared:  reg.Counter("tcpnet.pool.shared"),
	})
}

// InstrumentRPC installs server-side RPC observation on this fabric's
// dispatch path: handler latency per message kind, child spans for
// sampled wire-propagated trace contexts, and the observer's slow-RPC /
// flight-recorder policies. Passing nil uninstalls. Safe to call while
// traffic flows.
func (n *Net) InstrumentRPC(o *obs.RPCObs) {
	n.rpc.Store(o)
}

// CanRedeliver implements transport.Redeliverer: a call that misses its
// reply deadline over a real socket may still have been delivered and
// executed, so retries over this fabric re-execute handlers unless dedup
// is on.
func (n *Net) CanRedeliver() bool { return true }

// EnableDedup implements transport.Deduper: every current and future
// endpoint gets a bounded at-most-once call cache.
func (n *Net) EnableDedup() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dedup = true
	for _, ep := range n.eps {
		ep.dedup.CompareAndSwap(nil, transport.NewDedupTable(0))
	}
}

// Bind implements transport.Transport.
func (n *Net) Bind(a transport.Addr, h transport.Handler) error {
	if h == nil {
		return fmt.Errorf("tcpnet: nil handler for %q", a)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[a]; ok {
		return fmt.Errorf("tcpnet: address %q already bound", a)
	}
	ep := &endpoint{h: h}
	if n.dedup {
		ep.dedup.Store(transport.NewDedupTable(0))
	}
	n.eps[a] = ep
	return nil
}

// Unbind implements transport.Transport.
func (n *Net) Unbind(a transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, a)
}

// Send implements transport.Transport: encode the request with the wire
// codec, ship it over a pooled connection to the destination fabric, and
// wait for the matching reply frame no longer than timeout. The fast path
// is allocation-free: the frame builds in a pooled encoder (framed in
// place via the FrameOverhead reserve), the reply waiter is a pooled
// channel slot, the timer and the decoded reply envelope are pooled too.
func (n *Net) Send(req transport.Request, timeout time.Duration) (any, error) {
	n.sent.Add(1)
	n.flightMu.Lock()
	if n.closed.Load() {
		n.flightMu.Unlock()
		return nil, fmt.Errorf("%w: fabric closed", transport.ErrUnreachable)
	}
	n.outcalls.Add(1)
	n.flightMu.Unlock()
	defer n.outcalls.Done()
	pc, err := n.issue(req, timeout)
	if err != nil {
		return nil, err
	}
	t := getTimer(timeout)
	select {
	case rep := <-pc.ch:
		putTimer(t)
		callSlots.Put(pc.ch)
		return takeReply(rep)
	case <-t.C:
		putTimer(t)
		pc.c.reclaim(pc.mux, pc.ch)
		return nil, transport.ErrTimeout
	}
}

// pendingCall is a request that has left on c and awaits its reply in ch
// under mux.
type pendingCall struct {
	c   *conn
	mux uint64
	ch  chan *wire.Reply
}

// issue checks out a connection to req's destination, frames req on it and
// writes it with the caller's deadline. On error nothing is left registered.
func (n *Net) issue(req transport.Request, timeout time.Duration) (pendingCall, error) {
	c, err := n.pool(n.resolve(req.To)).conn()
	if err != nil {
		return pendingCall{}, err
	}
	of, mux, ch, err := n.frameRequest(c, req)
	if err != nil {
		return pendingCall{}, err
	}
	if err := c.send(of, timeout); err != nil {
		// The conn died under us (die has already swept pending, depositing
		// into our slot); it is already retired from the pool. The request
		// may or may not have left — indistinguishable from a lost leg, so
		// surface the retryable class.
		c.reclaim(mux, ch)
		return pendingCall{}, fmt.Errorf("%w: %v", transport.ErrTimeout, err)
	}
	return pendingCall{c: c, mux: mux, ch: ch}, nil
}

// frameRequest encodes req into a pooled frame for conn c and registers
// the pooled slot its reply will be deposited in under a fresh mux ID. On
// error nothing is left registered or checked out.
func (n *Net) frameRequest(c *conn, req transport.Request) (of outFrame, mux uint64, ch chan *wire.Reply, err error) {
	ins := n.ins()
	var encStart time.Time
	if ins.hEnc != nil {
		encStart = time.Now()
	}
	mux = c.nextMux.Add(1)
	enc := getEncoder()
	enc.Pad(wire.FrameOverhead)
	if err := wire.EncodeRequest(enc, mux, req); err != nil {
		putEncoder(enc)
		return outFrame{}, 0, nil, err
	}
	frame, err := wire.FinishFrame(enc.Bytes())
	if err != nil {
		putEncoder(enc)
		return outFrame{}, 0, nil, err
	}
	ins.hEnc.Since(encStart)

	ch = callSlots.Get().(chan *wire.Reply)
	if !c.addPending(mux, ch) {
		putEncoder(enc)
		callSlots.Put(ch)
		return outFrame{}, 0, nil, fmt.Errorf("%w: connection lost", transport.ErrTimeout)
	}
	return outFrame{enc: enc, b: frame}, mux, ch, nil
}

// takeReply turns what a reply slot held into the Send return contract and
// recycles the envelope. A nil deposit is die's: the connection failed
// while the call waited and its reply can never arrive — retryable, same
// as a lost reply leg.
func takeReply(rep *wire.Reply) (any, error) {
	if rep == nil {
		return nil, fmt.Errorf("%w: connection lost", transport.ErrTimeout)
	}
	v, err := replyValue(rep)
	replies.Put(rep)
	return v, err
}

// replyValue maps a decoded reply envelope to the Send return contract.
func replyValue(rep *wire.Reply) (any, error) {
	switch rep.Status {
	case wire.ReplyOK:
		return rep.Body, nil
	case wire.ReplyAppError:
		return nil, errors.New(rep.ErrText)
	case wire.ReplyUnreachable:
		return nil, fmt.Errorf("%w: %s", transport.ErrUnreachable, rep.ErrText)
	default:
		return nil, fmt.Errorf("tcpnet: bad request: %s", rep.ErrText)
	}
}

// The fast-path pools. One RPC touches, and recycles, one of each: an
// encoder (whose buffer IS the frame buffer, via the FrameOverhead
// reserve), a reply-waiter channel, a decoded reply envelope, and a
// timer; the receiving side adds a decoded request envelope. Encoders are
// Reset at put, so Get returns an empty, ready buffer.
var (
	encoders  = sync.Pool{New: func() any { return wire.NewEncoder(256) }}
	callSlots = sync.Pool{New: func() any { return make(chan *wire.Reply, 1) }}
	replies   = sync.Pool{New: func() any { return new(wire.Reply) }}
	requests  = sync.Pool{New: func() any { return new(wire.Request) }}
	timers    sync.Pool // *time.Timer; nil New — getTimer handles the miss
)

func getEncoder() *wire.Encoder { return encoders.Get().(*wire.Encoder) }

func putEncoder(e *wire.Encoder) {
	e.Reset()
	encoders.Put(e)
}

// getTimer returns a pooled timer armed for d. Timers from the pool were
// Stopped at put; Reset after Stop without a drain is correct under the
// Go 1.23 timer semantics this module requires.
func getTimer(d time.Duration) *time.Timer {
	if t, _ := timers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timers.Put(t)
}

// Stats implements transport.Transport.
func (n *Net) Stats() transport.Stats {
	return transport.Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		DedupHits: n.dedupHits.Load(),
	}
}

// WireStats returns the socket-level counters.
func (n *Net) WireStats() WireStats {
	writes := n.writes.Load()
	return WireStats{
		BytesIn:   n.bytesIn.Load(),
		BytesOut:  n.bytesOut.Load(),
		Dials:     n.dials.Load(),
		DialFails: n.dialFails.Load(),
		ConnsOpen: n.connsOpen.Load(),
		Writes:    writes,
		Frames:    writes,
		Shared:    n.shared.Load(),
	}
}

// PoolStats is an exact point-in-time snapshot of the outbound
// connection pools: the transport-health view behind the
// tcpnet.pool.* gauges.
type PoolStats struct {
	Pools    int // destinations with a pool
	Conns    int // live pooled outbound connections
	Dialing  int // dial slots currently held by in-progress dials
	Cooling  int // pools inside a post-failure dial cooldown window
	InFlight int // calls awaiting a reply on those connections
}

// PoolStats walks every destination pool and returns exact counts
// (the gauges are transition-maintained; this is the ground truth).
func (n *Net) PoolStats() PoolStats {
	n.poolMu.Lock()
	pools := make([]*pool, 0, len(n.pools))
	for _, p := range n.pools {
		pools = append(pools, p)
	}
	n.poolMu.Unlock()
	var ps PoolStats
	ps.Pools = len(pools)
	now := time.Now()
	for _, p := range pools {
		p.mu.Lock()
		for _, c := range p.conns {
			select {
			case <-c.dead:
			default:
				ps.Conns++
				ps.InFlight += int(c.inflight.Load())
			}
		}
		ps.Dialing += p.dialing
		if !p.coolDown.IsZero() && now.Before(p.coolDown) {
			ps.Cooling++
		}
		p.mu.Unlock()
	}
	return ps
}

// DedupEntries returns the cached at-most-once calls across all bound
// endpoints (the quantity the retirement bound keeps flat).
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

// Close shuts the fabric down gracefully: stop accepting, let in-flight
// handlers finish and their replies flush, end the parked serve goroutines,
// then close every connection. It returns once every goroutine the fabric
// started has ended. Sends issued after Close fail with ErrUnreachable.
func (n *Net) Close() error {
	n.flightMu.Lock()
	already := !n.closed.CompareAndSwap(false, true)
	n.flightMu.Unlock()
	if already {
		return nil
	}
	close(n.closeCh)
	err := n.ln.Close()
	// The flightMu barrier above guarantees no serveRequest starts a request
	// after this point. Drain: handlers that already accepted a request run to completion and
	// write their replies, and Sends in progress consume those replies (or
	// hit their own deadlines), before the conns go away.
	n.inflight.Wait()
	n.releaseIdle()
	n.outcalls.Wait()
	n.poolMu.Lock()
	pools := make([]*pool, 0, len(n.pools))
	for _, p := range n.pools {
		pools = append(pools, p)
	}
	accepted := n.accepted
	n.accepted = nil
	n.poolMu.Unlock()
	for _, p := range pools {
		p.close()
	}
	for _, c := range accepted {
		c.die()
	}
	n.loops.Wait()
	n.servers.Wait()
	return err
}
