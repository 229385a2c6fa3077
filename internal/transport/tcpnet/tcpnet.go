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
//   - A dialed connection carries one call at a time: the caller checks out
//     the connection that went idle last (or dials one), writes its request
//     frame, reads the reply itself under the call's deadline and returns
//     the connection to the pool. No socket is ever shared, so no reply
//     waits behind another call's, and a pool is as many connections as the
//     calls ever in flight to its destination at once. A connection whose
//     call timed out or broke is closed, never reused, so a late reply can
//     never answer a retry.
//   - Per-call deadlines map to the transport error vocabulary: no reply
//     within the timeout is ErrTimeout (retried by Client), an
//     unresolvable or undialable destination is ErrUnreachable (not
//     retried; the caller re-resolves), and a handler-side "no endpoint
//     bound" reply is ErrUnreachable too, exactly like the memory switch.
//   - Every endpoint is deduplicated: a call that misses its reply deadline
//     over a socket may still have been delivered, so this fabric is the
//     one that can redeliver, and it keeps the same bounded DedupTable the
//     memory switch uses per endpoint, always on. Retries and wire-level
//     duplicates therefore keep handler effects at-most-once (the E24
//     exactness property) over a real socket, whoever builds on it.
//   - Each inbound request is served on a goroutine of its own while it
//     runs, so a slow handler delays nobody else; the goroutine then parks
//     and serves a later request, so the serve goroutines are as many as
//     the calls ever in flight at once, not one per request.
//   - Close is graceful: the listener stops accepting, in-flight handlers
//     run to completion and their replies are flushed, callers read them
//     (or reach their deadlines), and only then do the connections and the
//     parked serve goroutines end.
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
// chosen by the kernel.
type Config struct {
	// Listen is the listen address (host:port). Empty means
	// "127.0.0.1:0": loopback, kernel-assigned port.
	Listen string
}

// endpoint is one bound address on the receiving side.
type endpoint struct {
	h     transport.Handler
	dedup *transport.DedupTable
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
}

// Net is a TCP fabric. It implements transport.Transport and
// transport.BatchSender.
type Net struct {
	ln   net.Listener
	addr string

	mu  sync.RWMutex
	eps map[transport.Addr]*endpoint

	// routes is the current routing snapshot. Every Send, every SendBatch
	// request and every step of a dist handler chain resolves against it, so
	// readers take no lock: writers (serialized by routeMu) publish a fresh
	// immutable table.
	routeMu sync.Mutex
	routes  atomic.Pointer[[]route] // longest prefix first

	poolMu   sync.Mutex
	pools    map[string]*pool
	accepted map[*conn]struct{} // live inbound conns, closed with the fabric

	closed atomic.Bool
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
	// loops counts the accept loop and the accepted conns' read loops.
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

	// Observability handles, swapped in atomically by Instrument (the
	// accept loop is already running by then). All handles are
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
	gCooling *obs.Gauge // destination pools inside a post-failure cooldown
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
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Listen, err)
	}
	n := &Net{
		ln:       ln,
		addr:     ln.Addr().String(),
		eps:      make(map[transport.Addr]*endpoint),
		pools:    make(map[string]*pool),
		accepted: make(map[*conn]struct{}),
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

// Site implements transport.Transport: a is served by the fabric its route
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
		gCooling: reg.Gauge("tcpnet.pool.cooldown"),
	})
}

// InstrumentRPC implements transport.Transport on this fabric's dispatch
// path: handler latency per message kind, child spans for sampled
// wire-propagated trace contexts, and the observer's slow-RPC /
// flight-recorder policies.
func (n *Net) InstrumentRPC(o *obs.RPCObs) {
	n.rpc.Store(o)
}

// Bind implements transport.Transport. The endpoint gets its bounded
// at-most-once call cache from the start (see the package comment).
func (n *Net) Bind(a transport.Addr, h transport.Handler) error {
	if h == nil {
		return fmt.Errorf("tcpnet: nil handler for %q", a)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[a]; ok {
		return fmt.Errorf("tcpnet: address %q already bound", a)
	}
	n.eps[a] = &endpoint{h: h, dedup: transport.NewDedupTable(0)}
	return nil
}

// Unbind implements transport.Transport.
func (n *Net) Unbind(a transport.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.eps, a)
}

// Send implements transport.Transport: encode the request with the wire
// codec, write it on a connection of its own to the destination fabric,
// and read the reply there no longer than timeout. The fast path is
// allocation-free: the frame builds in a pooled encoder (framed in place
// via the FrameOverhead reserve), and the reply decodes into the
// connection's own envelope.
func (n *Net) Send(req transport.Request, timeout time.Duration) (any, error) {
	n.sent.Add(1)
	if !n.enter() {
		return nil, errClosed
	}
	defer n.outcalls.Done()
	c, err := n.issue(req, timeout)
	if err != nil {
		return nil, err
	}
	return c.reply(time.Now().Add(timeout))
}

var errClosed = fmt.Errorf("%w: fabric closed", transport.ErrUnreachable)

// enter counts an outbound call in for Close to wait on; it reports false
// once the fabric is closed.
func (n *Net) enter() bool {
	n.flightMu.Lock()
	defer n.flightMu.Unlock()
	if n.closed.Load() {
		return false
	}
	n.outcalls.Add(1)
	return true
}

// issue checks out a connection to req's destination, frames req on it and
// writes it with the caller's deadline. The returned conn carries the call:
// its reply is the caller's to read. On error no conn is held.
func (n *Net) issue(req transport.Request, timeout time.Duration) (*conn, error) {
	c, err := n.pool(n.resolve(req.To)).conn()
	if err != nil {
		return nil, err
	}
	of, err := n.frameRequest(c, req)
	if err != nil {
		c.p.put(c)
		return nil, err
	}
	if err := c.send(of, timeout); err != nil {
		// The request may or may not have left — indistinguishable from a
		// lost leg, so surface the retryable class.
		c.p.fail(c)
		return nil, fmt.Errorf("%w: %v", transport.ErrTimeout, err)
	}
	return c, nil
}

// frameRequest encodes req into a pooled frame for conn c under a fresh
// mux ID.
func (n *Net) frameRequest(c *conn, req transport.Request) (outFrame, error) {
	ins := n.ins()
	var encStart time.Time
	if ins.hEnc != nil {
		encStart = time.Now()
	}
	c.mux++
	enc := getEncoder()
	enc.Pad(wire.FrameOverhead)
	if err := wire.EncodeRequest(enc, c.mux, req); err != nil {
		putEncoder(enc)
		return outFrame{}, err
	}
	frame, err := wire.FinishFrame(enc.Bytes())
	if err != nil {
		putEncoder(enc)
		return outFrame{}, err
	}
	ins.hEnc.Since(encStart)
	return outFrame{enc: enc, b: frame}, nil
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

// The fast-path pools: a call recycles an encoder (whose buffer IS the
// frame buffer, via the FrameOverhead reserve), and the receiving side a
// decoded request envelope. Encoders are Reset at put, so Get returns an
// empty, ready buffer.
var (
	encoders = sync.Pool{New: func() any { return wire.NewEncoder(256) }}
	requests = sync.Pool{New: func() any { return new(wire.Request) }}
)

func getEncoder() *wire.Encoder { return encoders.Get().(*wire.Encoder) }

func putEncoder(e *wire.Encoder) {
	e.Reset()
	encoders.Put(e)
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
	}
}

// DedupEntries returns the cached at-most-once calls across all bound
// endpoints (the quantity the retirement bound keeps flat).
func (n *Net) DedupEntries() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := 0
	for _, ep := range n.eps {
		total += ep.dedup.Len()
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
	for c := range accepted {
		c.die()
	}
	n.loops.Wait()
	n.servers.Wait()
	return err
}
