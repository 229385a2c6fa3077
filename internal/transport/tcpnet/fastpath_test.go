package tcpnet

import (
	"errors"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
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

// pooledConns snapshots every outbound pooled conn of n.
func pooledConns(n *Net) []*conn {
	n.poolMu.Lock()
	defer n.poolMu.Unlock()
	var out []*conn
	for _, p := range n.pools {
		p.mu.Lock()
		out = append(out, p.conns...)
		p.mu.Unlock()
	}
	return out
}

// checkInflight asserts, at a quiescent point, that every pooled conn's
// in-flight count equals len(pending) and that they sum to want — in the
// conns themselves and in poolStats. It returns the per-conn loads, sorted.
func checkInflight(t *testing.T, n *Net, want int) []int {
	t.Helper()
	var loads []int
	sum := 0
	for _, c := range pooledConns(n) {
		c.pmu.Lock()
		pend, mirror := len(c.pending), c.inflight.Load()
		c.pmu.Unlock()
		if int64(pend) != mirror {
			t.Fatalf("conn has %d pending calls but an in-flight count of %d", pend, mirror)
		}
		loads = append(loads, pend)
		sum += pend
	}
	if got := n.poolStats().InFlight; sum != want || got != want {
		t.Fatalf("in flight: %d pending over the conns, poolStats %d, want %d", sum, got, want)
	}
	slices.Sort(loads)
	return loads
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

// holdNet returns a fabric a keeping size conns per destination whose
// addresses "hold" and "echo" are served by b, where "hold" blocks until
// release is called (announcing each entry on started) and "echo" answers at
// once.
func holdNet(t *testing.T, size int) (a *Net, started chan struct{}, release func()) {
	t.Helper()
	a = newNet(t)
	a.poolSize = size
	b := newNet(t)
	routeTo(t, a, b, "hold", "echo")
	started = make(chan struct{}, 64)
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // before b's Close, which waits for its handlers
	if err := b.Bind("hold", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-held
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Bind("echo", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}
	return a, started, release
}

// TestCheckoutByIdleness pins the pool's selection rule. A lone sequential
// caller rotates over the pool (ties break by rotation, and the pool fills
// to poolSize before any conn is reused); k <= poolSize concurrent calls
// occupy k distinct conns and none counts as Shared; every further call
// shares the least-loaded conn and counts; the in-flight counts return to 0
// once the replies are in.
func TestCheckoutByIdleness(t *testing.T) {
	const poolSize = 3
	a, started, release := holdNet(t, poolSize)

	// used reports which conn a sequential call rode: the one whose mux
	// counter it advanced.
	before := map[*conn]uint64{}
	used := func() *conn {
		t.Helper()
		if _, err := a.Send(transport.Request{ID: nextID(), To: "echo", Kind: wire.KindTotal}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		var hit *conn
		for _, c := range pooledConns(a) {
			if m := c.nextMux.Load(); m != before[c] {
				if hit != nil || m != before[c]+1 {
					t.Fatalf("one call advanced more than one mux counter")
				}
				hit, before[c] = c, m
			}
		}
		if hit == nil {
			t.Fatal("call rode no pooled conn")
		}
		return hit
	}
	var seq []*conn
	for i := 0; i < 3*poolSize; i++ {
		seq = append(seq, used())
	}
	if len(pooledConns(a)) != poolSize {
		t.Fatalf("pool holds %d conns after %d sequential calls, want %d", len(pooledConns(a)), len(seq), poolSize)
	}
	fill, rot := seq[:poolSize], seq[poolSize:]
	for i, c := range fill {
		if slices.Contains(fill[:i], c) {
			t.Fatalf("sequential call %d reused a conn before the pool was full", i)
		}
	}
	for i := poolSize - 1; i < len(rot); i++ {
		if slices.Contains(rot[i-poolSize+1:i], rot[i]) {
			t.Fatalf("call %d on the full pool reused a conn of the previous %d calls: no rotation among idle conns", i, poolSize-1)
		}
	}
	if sh := a.WireStats().Shared; sh != 0 {
		t.Fatalf("Shared = %d after sequential calls, want 0", sh)
	}

	var wg sync.WaitGroup
	hold := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Send(transport.Request{ID: nextID(), To: "hold", Kind: wire.KindTotal}, time.Minute); err != nil {
				t.Error(err)
			}
		}()
		<-started // in the handler: the call is registered on its conn
	}
	want := [][]int{ // sorted per-conn loads after each held call
		{0, 0, 1}, {0, 1, 1}, {1, 1, 1}, // a conn each
		{1, 1, 2}, {1, 2, 2}, {2, 2, 2}, // then always the least loaded
	}
	for k, w := range want {
		hold()
		if got := checkInflight(t, a, k+1); !slices.Equal(got, w) {
			t.Fatalf("with %d calls in flight the conns carry %v, want %v", k+1, got, w)
		}
		if sh, wantSh := a.WireStats().Shared, uint64(max(0, k+1-poolSize)); sh != wantSh {
			t.Fatalf("with %d calls in flight Shared = %d, want %d", k+1, sh, wantSh)
		}
	}
	release()
	wg.Wait()
	checkInflight(t, a, 0)
}

// TestInflightZeroAfterFailures: the two Send failure paths that own a
// registered slot — reply timeout and failed write — leave nothing in
// flight behind.
func TestInflightZeroAfterFailures(t *testing.T) {
	a, started, _ := holdNet(t, 1)
	_, err := a.Send(transport.Request{ID: nextID(), To: "hold", Kind: wire.KindTotal}, 20*time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("call into a wedged handler: %v, want ErrTimeout", err)
	}
	<-started
	checkInflight(t, a, 0) // the handler is still wedged: reclaim released it

	// Send's write-failure path, step by step: register, lose the socket,
	// fail the write, reclaim.
	c := pooledConns(a)[0]
	of, mux, ch, err := a.frameRequest(c, transport.Request{ID: nextID(), To: "echo", Kind: wire.KindTotal})
	if err != nil {
		t.Fatal(err)
	}
	checkInflight(t, a, 1)
	_ = c.c.Close()
	if err := c.send(of, time.Second); err == nil {
		t.Fatal("write on a closed socket succeeded")
	}
	c.reclaim(mux, ch)
	if got := c.inflight.Load(); got != 0 {
		t.Fatalf("in-flight count %d after a failed write, want 0", got)
	}
	checkInflight(t, a, 0)
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

// TestPendingReleasedOnDie races in-flight Sends against connection death:
// every pending caller must be released exactly once (promptly, with the
// retryable connection-lost error — not by its own distant timeout), the
// pending maps must end empty, and the fabric must recover for subsequent
// traffic. Run under -race this also checks the slot ownership protocol.
func TestPendingReleasedOnDie(t *testing.T) {
	a, b := newNet(t), newNet(t)
	if err := a.Route("slow", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before b's Close, unwedging handlers
	started := make(chan struct{}, 64)
	if err := b.Bind("slow", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-release
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			_, err := a.Send(transport.Request{ID: id, To: "slow", Kind: wire.KindTotal}, time.Minute)
			errs <- err
		}(uint64(i + 1))
	}
	// Wait until some requests are provably in handlers (so replies will
	// later be written to dead conns too — exercising that path), then
	// kill every outbound conn while the rest are mid-Send. The listener
	// closes first so no Send can escape onto a freshly dialed conn and
	// block on the wedged handlers.
	<-started
	_ = b.ln.Close()
	deadline := time.Now().Add(10 * time.Second)
	var killed []*conn
	for len(killed) < 2 && time.Now().Before(deadline) {
		a.poolMu.Lock()
		p := a.pools[b.Addr()]
		a.poolMu.Unlock()
		if p != nil {
			p.mu.Lock()
			killed = append(killed[:0], p.conns...)
			p.mu.Unlock()
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range killed {
		go c.die() // concurrent with Sends registering and reclaiming
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Sends did not return after conn death — a pending caller leaked")
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("Send succeeded although its conn was killed and the handler is wedged")
		}
	}
	for _, c := range killed {
		c.pmu.Lock()
		n := len(c.pending)
		c.pmu.Unlock()
		if n != 0 || c.inflight.Load() != 0 {
			t.Fatalf("dead conn holds %d pending entries, in-flight count %d", n, c.inflight.Load())
		}
	}
	checkInflight(t, a, 0)
	// The sender recovers: the same fabric, with its recycled slots and
	// pools, completes a fresh call to a healthy destination.
	c2 := newNet(t)
	if err := a.Route("fast", c2.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := c2.Bind("fast", func(req transport.Request) (any, error) { return uint64(1), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Send(transport.Request{ID: 99, To: "fast", Kind: wire.KindTotal}, 5*time.Second); err != nil {
		t.Fatalf("sender did not recover after conn death: %v", err)
	}
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

// TestOneWritePerFrame drives 8 concurrent callers through a one-socket
// pool: every call gets its own reply back, and each side issues exactly
// one write per frame it sends — a request each on the caller's side, a
// reply each on the server's.
func TestOneWritePerFrame(t *testing.T) {
	a := newNet(t)
	a.poolSize = 1
	b := newNet(t)
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
	if c := a.WireStats().Dials; c != 1 {
		t.Fatalf("%d dials for a one-socket pool", c)
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
