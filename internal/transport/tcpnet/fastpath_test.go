package tcpnet

import (
	"bufio"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// frameFor builds one valid request frame the way Send does: pooled-style
// encoder with the FrameOverhead reserve, framed in place.
func frameFor(t *testing.T, mux uint64, to transport.Addr) []byte {
	t.Helper()
	enc := wire.NewEncoder(64)
	enc.Pad(wire.FrameOverhead)
	if err := wire.EncodeRequest(enc, mux, transport.Request{To: to, Kind: wire.KindTotal}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.FinishFrame(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// dialConn returns a live pooled conn from a to b.
func dialConn(t *testing.T, a, b *Net) *conn {
	t.Helper()
	c, err := a.pool(b.Addr()).conn()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWriteDeadlineCleared pins the deadline-hygiene bug: deadlines are
// connection state, so a bounded write must not leak its deadline into a
// later unbounded write (which previously inherited it — already expired —
// and failed). Both orders are exercised.
func TestWriteDeadlineCleared(t *testing.T) {
	a, b := newNet(t), newNet(t)
	c := dialConn(t, a, b)
	frame := frameFor(t, 1, "nowhere") // peer replies unreachable; no waiter, harmless

	// Unbounded first: must work on a fresh conn.
	if err := c.send(outFrame{b: frame}, 0); err != nil {
		t.Fatalf("unbounded write: %v", err)
	}
	// Bounded write arms a deadline...
	if err := c.send(outFrame{b: frame}, 20*time.Millisecond); err != nil {
		t.Fatalf("bounded write: %v", err)
	}
	// ...which expires while the conn is idle...
	time.Sleep(50 * time.Millisecond)
	// ...and must NOT apply to the next unbounded write.
	if err := c.send(outFrame{b: frame}, 0); err != nil {
		t.Fatalf("unbounded write after bounded inherited a stale deadline: %v", err)
	}
	select {
	case <-c.dead:
		t.Fatal("conn died from a stale deadline")
	default:
	}
}

// checkInflight asserts, at a quiescent point, that want calls hold a
// dialed conn of n: every other conn n dialed and has not closed is idle in
// its pool, and alive.
func checkInflight(t *testing.T, n *Net, want int) {
	t.Helper()
	if got := n.poolStats().InFlight; got != want {
		t.Fatalf("%d calls hold a dialed conn, want %d", got, want)
	}
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	for _, p := range n.pools {
		p.mu.Lock()
		for _, c := range p.idle {
			select {
			case <-c.dead:
				p.mu.Unlock()
				t.Fatal("a closed conn is idle in its pool")
			default:
			}
		}
		p.mu.Unlock()
	}
}

// routeTo sends a's traffic for each prefix to b's listener.
func routeTo(t *testing.T, a, b *Net, prefixes ...string) {
	t.Helper()
	for _, p := range prefixes {
		if err := a.Route(p, b.Addr()); err != nil {
			t.Fatalf("Route %q: %v", p, err)
		}
	}
}

// holdNet returns fabrics a and b, where a's addresses "hold" and "echo"
// are served by b: "hold" blocks until release is called (announcing each
// entry on started) and "echo" answers at once.
func holdNet(t *testing.T) (a, b *Net, started chan struct{}, release func()) {
	t.Helper()
	a, b = newNet(t), newNet(t)
	routeTo(t, a, b, "hold", "echo")
	started = make(chan struct{}, 64)
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // before b's Close, which waits for its handlers
	if err := b.Bind("hold", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-held
		return req.Body, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("echo", func(req transport.Request) (any, error) { return req.Body, nil }); err != nil {
		t.Fatal(err)
	}
	return a, b, started, release
}

// serialServer is a bare socket server of echo calls that counts, per
// connection, the requests that arrived while an earlier one on the same
// connection was still unanswered. It holds every reply until hold
// requests have arrived in all.
type serialServer struct {
	ln       net.Listener
	arrived  atomic.Int64
	conns    atomic.Int64
	overlaps atomic.Int64
	open     chan struct{} // closed once hold requests have arrived
}

func newSerialServer(t *testing.T, hold int64) *serialServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &serialServer{ln: ln, open: make(chan struct{})}
	var wg sync.WaitGroup
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			t.Cleanup(func() { _ = c.Close() })
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.serve(c, hold, &wg)
			}()
		}
	}()
	return s
}

// serve reads request frames off c and answers each on a goroutine of its
// own, so a second request on c while the first is unanswered is seen.
func (s *serialServer) serve(c net.Conn, hold int64, wg *sync.WaitGroup) {
	br := bufio.NewReader(c)
	var wmu sync.Mutex
	var busy atomic.Bool
	for {
		payload, err := wire.ReadFrame(br, nil)
		if err != nil {
			return
		}
		var req wire.Request
		if err := wire.DecodeRequestFrame(payload, &req); err != nil {
			return
		}
		if !busy.CompareAndSwap(false, true) {
			s.overlaps.Add(1)
		}
		if s.arrived.Add(1) == hold {
			close(s.open)
		}
		mux, body := req.Mux, req.Req.Body
		codec, _ := wire.ByKind(req.Req.Kind)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-s.open
			enc := wire.NewEncoder(64)
			enc.Pad(wire.FrameOverhead)
			_ = wire.EncodeReply(enc, mux, codec.Code, wire.ReplyOK, body, "")
			frame, _ := wire.FinishFrame(enc.Bytes())
			busy.Store(false)
			wmu.Lock()
			_, _ = c.Write(frame)
			wmu.Unlock()
		}()
	}
}

// TestOneCallPerConn: k concurrent callers use exactly k conns, no conn
// ever carries two requests at once (counted on the server), and a lone
// caller dials once in 1 000 calls.
func TestOneCallPerConn(t *testing.T) {
	const k, each = 4, 200
	srv := newSerialServer(t, k) // the first k calls are all in flight at once
	a := newNet(t)
	if err := a.Route("t", srv.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := base; j < base+each; j++ {
				reply, err := a.Send(transport.Request{ID: j, To: "t", Kind: wire.KindCPF, Body: j}, 10*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if reply.(uint64) != j {
					t.Errorf("call %d got reply %v", j, reply)
					return
				}
			}
		}(uint64(i*1000 + 1))
	}
	wg.Wait()
	if d, c := a.WireStats().Dials, srv.conns.Load(); d != k || c != k {
		t.Fatalf("%d callers dialed %d conns, the server accepted %d", k, d, c)
	}
	if o := srv.overlaps.Load(); o != 0 {
		t.Fatalf("%d requests arrived on a conn still carrying a call", o)
	}
	checkInflight(t, a, 0)

	lone := newNet(t)
	if err := lone.Route("t", srv.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 1000; i++ {
		if _, err := lone.Send(transport.Request{ID: i, To: "t", Kind: wire.KindCPF, Body: i}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if d := lone.WireStats().Dials; d != 1 {
		t.Fatalf("a lone caller dialed %d times in 1 000 calls", d)
	}
}

// TestTimedOutConnIsNotReused: a call that misses its deadline closes its
// conn, so the reply that arrives late never reaches a later call; that
// call rides a fresh conn and gets its own reply.
func TestTimedOutConnIsNotReused(t *testing.T) {
	a, b, started, release := holdNet(t)
	_, err := a.Send(transport.Request{ID: nextID(), To: "hold", Kind: wire.KindCPF, Body: uint64(1)}, 20*time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("call into a held handler: %v, want ErrTimeout", err)
	}
	<-started
	release()
	waitParked(t, b) // the late reply has been written, or its write failed
	reply, err := a.Send(transport.Request{ID: nextID(), To: "echo", Kind: wire.KindCPF, Body: uint64(2)}, 5*time.Second)
	if err != nil || reply.(uint64) != 2 {
		t.Fatalf("the call after a timeout got (%v, %v), want (2, nil)", reply, err)
	}
	if d := a.WireStats().Dials; d != 2 {
		t.Fatalf("%d dials for a timed-out call and the next one, want 2", d)
	}
	checkInflight(t, a, 0)
}

// TestDeadPeerDropsIdleConns: once the peer fabric has closed, the first
// call on one of k idle conns breaks and closes the other k-1 with it, so
// the retrying client's next attempt dials, is refused and ends in
// ErrUnreachable: one failed attempt, not k.
func TestDeadPeerDropsIdleConns(t *testing.T) {
	const k = 4
	a, b, started, release := holdNet(t)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Send(transport.Request{ID: nextID(), To: "hold", Kind: wire.KindCPF, Body: uint64(0)}, time.Minute); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < k; i++ {
		<-started
	}
	release()
	wg.Wait()
	if ps := a.poolStats(); ps.Conns != k || ps.InFlight != 0 {
		t.Fatalf("after %d concurrent calls: %+v, want %d idle conns", k, ps, k)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	c := transport.NewClient(a, transport.RetryConfig{Timeout: 5 * time.Second, MaxRetries: 2 * k})
	_, err := c.Call("x", "echo", wire.KindCPF, uint64(0))
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("call to a closed peer: %v, want ErrUnreachable", err)
	}
	if cs := c.Stats(); cs.Timeouts > 1 {
		t.Fatalf("%d failed attempts before the peer was found gone, want at most 1", cs.Timeouts)
	}
	if ps := a.poolStats(); ps.Conns != 0 {
		t.Fatalf("%d conns to the closed peer still open", ps.Conns)
	}
}

// deadlineConn counts SetWriteDeadline calls on the socket it wraps.
type deadlineConn struct {
	net.Conn
	arms int
}

func (d *deadlineConn) SetWriteDeadline(t time.Time) error {
	d.arms++
	return d.Conn.SetWriteDeadline(t)
}

// stalledConn returns a conn of n to a peer that accepted the connection
// and never reads. No read loop runs on it: the test is its only writer.
func stalledConn(t *testing.T, n *Net) (*conn, *deadlineConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peer.Close() })
	dc := &deadlineConn{Conn: sock}
	c := n.newConn(dc)
	t.Cleanup(c.die)
	return c, dc
}

// TestWriteDeadlineRearm pins when a write touches the socket's deadline:
// bounded writes ride an armed deadline that still leaves them between one
// and two timeouts, and re-arm only outside that window; an unbounded write
// clears an armed deadline once.
func TestWriteDeadlineRearm(t *testing.T) {
	c, dc := stalledConn(t, newNet(t))
	frame := frameFor(t, 1, "nowhere")
	step := func(what string, timeout time.Duration, wantArms int) {
		t.Helper()
		if err := c.send(outFrame{b: frame}, timeout); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if dc.arms != wantArms {
			t.Fatalf("%s: deadline set %d times so far, want %d", what, dc.arms, wantArms)
		}
	}
	step("unbounded on a fresh conn", 0, 0)
	for i := 0; i < 100; i++ {
		step("bounded, back to back", time.Minute, 1)
	}
	step("unbounded after bounded clears", 0, 2)
	step("unbounded again", 0, 2)
	step("short bound", 20*time.Millisecond, 3)
	time.Sleep(25 * time.Millisecond) // less than one timeout now remains
	step("short bound, armed deadline too near", 20*time.Millisecond, 4)
	step("long bound, armed deadline too near", time.Minute, 5)
	step("short bound, armed deadline too far", 20*time.Millisecond, 6)
}

// TestStalledPeerFailsBoundedWrite: against a peer that stops reading, a
// bounded write fails with a deadline error within twice its timeout, and
// kills the conn.
func TestStalledPeerFailsBoundedWrite(t *testing.T) {
	c, _ := stalledConn(t, newNet(t))
	const timeout = 100 * time.Millisecond
	chunk := make([]byte, 1<<20)
	for i := 0; ; i++ {
		if i == 256 {
			t.Fatal("wrote 256 MiB to a peer that never reads")
		}
		start := time.Now()
		err := c.send(outFrame{b: chunk}, timeout)
		if err == nil {
			continue // still filling the socket buffers
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("stalled write failed with %v, want a deadline error", err)
		}
		if took := time.Since(start); took > 2*timeout+timeout/2 {
			t.Fatalf("stalled write took %v, bound is 2 x %v", took, timeout)
		}
		break
	}
	select {
	case <-c.dead:
	default:
		t.Fatal("conn survived a failed write")
	}
}

// TestPendingReleasedOnDie: callers whose conns the peer closes while
// their handlers are wedged return promptly — not at their distant
// deadline — with the retryable error, close those conns, and the fabric
// recovers for later traffic to the same peer.
func TestPendingReleasedOnDie(t *testing.T) {
	const callers = 32
	a, b, started, release := holdNet(t)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := a.Send(transport.Request{ID: nextID(), To: "hold", Kind: wire.KindCPF, Body: uint64(0)}, time.Minute)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	b.poolMu.Lock()
	var killed []*conn
	for c := range b.accepted {
		killed = append(killed, c)
	}
	b.poolMu.Unlock()
	if len(killed) != callers {
		t.Fatalf("%d calls in flight arrived on %d conns", callers, len(killed))
	}
	for _, c := range killed {
		go c.die()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("caller whose conn died: %v, want the retryable ErrTimeout", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers did not return after their conns died", callers-i, callers)
		}
	}
	if ps := a.poolStats(); ps.Conns != 0 {
		t.Fatalf("after the peer closed every conn: %+v", ps)
	}
	release()
	reply, err := a.Send(transport.Request{ID: nextID(), To: "echo", Kind: wire.KindCPF, Body: uint64(1)}, 5*time.Second)
	if err != nil || reply.(uint64) != 1 {
		t.Fatalf("sender did not recover after conn death: (%v, %v)", reply, err)
	}
	checkInflight(t, a, 0)
}

// TestRequestsLiveBehindWedgedHandlers: every inbound request runs on a
// serve goroutine of its own while it is served, so 64 requests wedged in a
// slow handler at once neither bound the fabric's concurrency nor delay a
// fast call behind them.
func TestRequestsLiveBehindWedgedHandlers(t *testing.T) {
	a, b := newNet(t), newNet(t)
	routeTo(t, a, b, "slow", "fast")
	const wedged = 64
	started, held := make(chan struct{}, wedged), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // before b's Close, which waits for its handlers
	if err := b.Bind("slow", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-held
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("fast", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < wedged; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if _, err := a.Send(transport.Request{ID: id, To: "slow", Kind: wire.KindTotal}, time.Minute); err != nil {
				t.Error(err)
			}
		}(uint64(i + 1))
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < wedged; i++ {
		select {
		case <-started:
		case <-timeout:
			t.Fatalf("only %d of %d slow requests reached their handler", i, wedged)
		}
	}

	reply, err := a.Send(transport.Request{ID: 1000, To: "fast", Kind: wire.KindTotal}, 10*time.Second)
	if err != nil {
		t.Fatalf("call behind %d wedged handlers: %v", wedged, err)
	}
	if reply.(uint64) != 1 {
		t.Fatalf("reply %v, want 1", reply)
	}
	release()
	wg.Wait()
}

// servePark returns how many serve goroutines b has and how many of them are
// parked idle.
func servePark(b *Net) (serving, idle int) {
	b.flightMu.Lock()
	defer b.flightMu.Unlock()
	return b.serving, len(b.idle)
}

// waitParked waits until every serve goroutine of b is parked and returns
// how many there are.
func waitParked(t *testing.T, b *Net) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		serving, idle := servePark(b)
		if serving == idle {
			return serving
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d serve goroutines, %d of them parked", serving, idle)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeGoroutinesReusedAndReleased: the serve goroutines are bounded by
// the calls ever in flight at once and reused. 64 wedged calls need 64 of
// them; once released, 1 000 sequential calls start no further one; and
// Close ends them all, so the process is back to the goroutines it had
// before the fabrics were made.
func TestServeGoroutinesReusedAndReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b := newNet(t), newNet(t)
	routeTo(t, a, b, "slow", "fast")
	const wedged = 64
	started, held := make(chan struct{}, wedged), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release)
	if err := b.Bind("slow", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-held
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("fast", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < wedged; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if _, err := a.Send(transport.Request{ID: id, To: "slow", Kind: wire.KindTotal}, time.Minute); err != nil {
				t.Error(err)
			}
		}(uint64(i + 1))
	}
	for i := 0; i < wedged; i++ {
		<-started
	}
	release()
	wg.Wait()
	servers := waitParked(t, b)
	if servers < wedged {
		t.Fatalf("%d wedged calls were served by %d goroutines", wedged, servers)
	}
	for i := 0; i < 1000; i++ {
		if _, err := a.Send(transport.Request{ID: uint64(1000 + i), To: "fast", Kind: wire.KindTotal}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if after := waitParked(t, b); after != servers {
		t.Fatalf("1 000 sequential calls with %d serve goroutines parked took them to %d", servers, after)
	}

	closed := make(chan struct{})
	go func() {
		_ = a.Close()
		_ = b.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: the parked serve goroutines were not released")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the fabrics were made", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnsampledRequestPathAllocs pins the zero-alloc budget end to end: an
// uninstrumented request/reply round trip — client encode, socket, server
// decode, deduplicated dispatch, reply encode, socket, reply decode — stays
// within 2 allocations per op (target 0), using only the pools. Every
// request gets a fresh ID, as transport.Client gives it, so each one runs
// its handler.
func TestUnsampledRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats the allocation optimizations this test pins")
	}
	a, b := newNet(t), newNet(t)
	routeTo(t, a, b, "t")
	if err := b.Bind("t", func(req transport.Request) (any, error) { return uint64(7), nil }); err != nil {
		t.Fatal(err)
	}
	req := transport.Request{To: "t", Kind: wire.KindTotal}
	for i := 0; i < 100; i++ { // warm the conn pools, sync.Pools and dedup table
		req.ID = nextID()
		if _, err := a.Send(req, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	runs := b.Stats().Delivered
	avg := testing.AllocsPerRun(300, func() {
		req.ID = nextID()
		reply, err := a.Send(req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if reply.(uint64) != 7 {
			t.Fatalf("reply %v", reply)
		}
	})
	if avg > 2 {
		t.Fatalf("unsampled request path allocates %.2f/op, budget is 2", avg)
	}
	if got := b.Stats().Delivered - runs; got != 301 { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d handler runs for 301 requests of distinct IDs", got)
	}
	t.Logf("unsampled request path: %.2f allocs/op", avg)
}

// TestOneWritePerFrame drives 8 concurrent callers: every call gets its own
// reply back, and each side issues exactly one write per frame it sends — a
// request each on the caller's side, a reply each on the server's.
func TestOneWritePerFrame(t *testing.T) {
	a, b := newNet(t), newNet(t)
	routeTo(t, a, b, "t")
	if err := b.Bind("t", func(req transport.Request) (any, error) { return req.Body, nil }); err != nil {
		t.Fatal(err)
	}
	const callers, each = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := base; j < base+each; j++ {
				reply, err := a.Send(transport.Request{ID: j, To: "t", Kind: wire.KindCPF, Body: j}, 10*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if reply.(uint64) != j {
					t.Errorf("call %d got reply %v", j, reply)
					return
				}
			}
		}(uint64(i * 1000))
	}
	wg.Wait()
	if sent, ran := a.Stats().Sent, b.Stats().Delivered; sent != callers*each || ran != callers*each {
		t.Fatalf("%d calls sent and %d handled, want %d of each", sent, ran, callers*each)
	}
	// The server counts a reply's write after the write returns, by which
	// time its caller may already have the reply: wait for the count.
	for deadline := time.Now().Add(5 * time.Second); b.WireStats().Writes < callers*each && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	for _, side := range []struct {
		name string
		ws   WireStats
	}{{"caller", a.WireStats()}, {"server", b.WireStats()}} {
		if side.ws.Writes != callers*each || side.ws.Frames != side.ws.Writes {
			t.Fatalf("%s: %d frames in %d writes, want %d of each",
				side.name, side.ws.Frames, side.ws.Writes, callers*each)
		}
	}
}
