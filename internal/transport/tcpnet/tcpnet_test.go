package tcpnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newNet(t *testing.T) *Net {
	t.Helper()
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// TestRequestReply is the basic contract: a typed request crosses a real
// socket, the handler runs, and the typed reply comes back.
func TestRequestReply(t *testing.T) {
	n := newNet(t)
	if err := n.Bind("n:1", func(req transport.Request) (any, error) {
		if req.Kind != wire.KindCPF {
			return nil, fmt.Errorf("kind %q", req.Kind)
		}
		return req.Body.(uint64) + 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := n.Send(transport.Request{ID: 1, From: "x", To: "n:1", Kind: wire.KindCPF, Body: uint64(41)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.(uint64) != 42 {
		t.Fatalf("reply %v, want 42", reply)
	}
	ws := n.WireStats()
	if ws.BytesIn == 0 || ws.BytesOut == 0 || ws.Dials == 0 {
		t.Fatalf("wire counters idle: %+v — did this actually cross a socket?", ws)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTypedPayloads round-trips every protocol payload shape through a live
// socket handler, not just the codec: what dist and chord will actually
// receive after decode must be the same typed values they sent.
func TestTypedPayloads(t *testing.T) {
	n := newNet(t)
	arrive := wire.Arrive{Wire: 3, Token: "t:9", Seq: 77}
	group := wire.GroupArrive{Wires: []int{0, 5, 2}}
	if err := n.Bind("c:x#1", func(req transport.Request) (any, error) {
		switch req.Kind {
		case wire.KindArrive:
			if req.Body.(wire.Arrive) != arrive {
				return nil, fmt.Errorf("arrive body %+v", req.Body)
			}
			return wire.ArriveRes{Status: wire.StatusProcessed, Out: 6}, nil
		case wire.KindGroupArrive:
			g := req.Body.(wire.GroupArrive)
			if g.Token != "" || g.Seqs != nil || len(g.Wires) != 3 || g.Wires[1] != 5 {
				return nil, fmt.Errorf("group body %+v", g)
			}
			return wire.GroupArriveRes{Status: wire.StatusProcessed, Outs: []int{1, 2, 3}}, nil
		case wire.KindFreeze:
			return wire.FreezeRes{Total: 10, Processed: []uint64{4, 6}}, nil
		case wire.KindTotal:
			return uint64(10), nil
		}
		return nil, fmt.Errorf("kind %q", req.Kind)
	}); err != nil {
		t.Fatal(err)
	}

	send := func(kind string, body any) any {
		t.Helper()
		reply, err := n.Send(transport.Request{ID: nextID(), To: "c:x#1", Kind: kind, Body: body}, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return reply
	}
	if r := send(wire.KindArrive, arrive).(wire.ArriveRes); r.Out != 6 || r.Status != wire.StatusProcessed {
		t.Fatalf("arrive reply %+v", r)
	}
	gr := send(wire.KindGroupArrive, group).(wire.GroupArriveRes)
	if gr.Status != wire.StatusProcessed || len(gr.Outs) != 3 || gr.Outs[2] != 3 {
		t.Fatalf("group reply %+v", gr)
	}
	fr := send(wire.KindFreeze, nil).(wire.FreezeRes)
	if fr.Total != 10 || len(fr.Processed) != 2 || fr.Processed[1] != 6 {
		t.Fatalf("freeze reply %+v", fr)
	}
	if v := send(wire.KindTotal, nil).(uint64); v != 10 {
		t.Fatalf("total reply %v", v)
	}
}

var idCounter atomic.Uint64

func nextID() uint64 { return idCounter.Add(1) }

// TestErrorMapping: unbound destinations are ErrUnreachable (from the
// receiving fabric's endpoint table), handler errors come back as
// application errors, and a reply slower than the deadline is ErrTimeout.
func TestErrorMapping(t *testing.T) {
	n := newNet(t)
	if err := n.Bind("n:err", func(transport.Request) (any, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Bind("n:slow", func(transport.Request) (any, error) {
		time.Sleep(200 * time.Millisecond)
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}

	_, err := n.Send(transport.Request{ID: nextID(), To: "n:absent", Kind: wire.KindProbe, Body: uint64(0)}, time.Second)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("unbound dest: %v, want ErrUnreachable", err)
	}
	_, err = n.Send(transport.Request{ID: nextID(), To: "n:err", Kind: wire.KindProbe, Body: uint64(0)}, time.Second)
	if err == nil || errors.Is(err, transport.ErrUnreachable) || errors.Is(err, transport.ErrTimeout) || err.Error() != "boom" {
		t.Fatalf("app error: %v, want boom", err)
	}
	start := time.Now()
	_, err = n.Send(transport.Request{ID: nextID(), To: "n:slow", Kind: wire.KindProbe, Body: uint64(0)}, 20*time.Millisecond)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("slow handler: %v, want ErrTimeout", err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Fatalf("timeout took %v, deadline was 20ms", time.Since(start))
	}
	// An undialable destination is ErrUnreachable (with dial backoff, not a
	// hang): route a prefix at a dead port.
	if err := n.Route("x:", "127.0.0.1:1"); err != nil {
		t.Fatalf("Route: %v", err)
	}
	_, err = n.Send(transport.Request{ID: nextID(), To: "x:gone", Kind: wire.KindProbe, Body: uint64(0)}, time.Second)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dead dial: %v, want ErrUnreachable", err)
	}
}

// TestConcurrentMux drives many concurrent calls through the small conn
// pool: replies must come back matched to their callers (the mux IDs), and
// the pool must stay at PoolSize conns rather than one per call.
func TestConcurrentMux(t *testing.T) {
	n := newNet(t)
	if err := n.Bind("n:echo", func(req transport.Request) (any, error) {
		return req.Body.(uint64), nil
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				want := uint64(g*1_000_000 + i)
				reply, err := n.Send(transport.Request{ID: nextID(), To: "n:echo", Kind: wire.KindCPF, Body: want}, 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if reply.(uint64) != want {
					t.Errorf("reply %v for call %v: mux mismatch", reply, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// PoolSize outbound conns + the same number accepted back on the
	// listener side.
	if open := n.WireStats().ConnsOpen; open > int64(2*n.cfg.PoolSize) {
		t.Fatalf("%d conns open for %d concurrent callers; pooling broken", open, workers)
	}
}

// TestGracefulClose: a handler running at Close time finishes and its
// caller gets the reply; Sends after Close fail fast with ErrUnreachable.
func TestGracefulClose(t *testing.T) {
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	if err := n.Bind("n:gate", func(transport.Request) (any, error) {
		close(entered)
		<-release
		return uint64(7), nil
	}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		reply any
		err   error
	}
	resCh := make(chan result, 1)
	go func() {
		reply, err := n.Send(transport.Request{ID: nextID(), To: "n:gate", Kind: wire.KindProbe, Body: uint64(0)}, 5*time.Second)
		resCh <- result{reply, err}
	}()
	<-entered
	closeDone := make(chan struct{})
	go func() { _ = n.Close(); close(closeDone) }()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handler was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	res := <-resCh
	if res.err != nil || res.reply.(uint64) != 7 {
		t.Fatalf("in-flight call through Close: reply=%v err=%v", res.reply, res.err)
	}
	<-closeDone
	_, err = n.Send(transport.Request{ID: nextID(), To: "n:gate", Kind: wire.KindProbe, Body: uint64(0)}, time.Second)
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("Send after Close: %v, want ErrUnreachable", err)
	}
}

// TestRouteBetweenFabrics: two Nets, two listeners — a prefix route on A
// carries A's sends for that prefix to B's endpoints, the multi-process
// shape. B's delivered counter (not A's) must move.
func TestRouteBetweenFabrics(t *testing.T) {
	a, b := newNet(t), newNet(t)
	if err := b.Bind("n:remote", func(req transport.Request) (any, error) {
		return req.Body.(uint64) * 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Route("n:remote", b.Addr()); err != nil {
		t.Fatalf("Route: %v", err)
	}
	reply, err := a.Send(transport.Request{ID: nextID(), To: "n:remote", Kind: wire.KindCPF, Body: uint64(21)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.(uint64) != 42 {
		t.Fatalf("reply %v", reply)
	}
	if d := b.Stats().Delivered; d != 1 {
		t.Fatalf("remote fabric delivered %d, want 1", d)
	}
	if d := a.Stats().Delivered; d != 0 {
		t.Fatalf("local fabric delivered %d, want 0", d)
	}
}

// TestRouteWhileResolving: Send, SendBatch and Site resolve against an
// immutable route snapshot without a lock, so installing routes while they
// run must be race-free (this test earns its keep under -race) and must
// never misroute: an address that no installed prefix matches stays served
// here throughout, and each new prefix resolves to its target as soon as
// Route returns.
func TestRouteWhileResolving(t *testing.T) {
	a, b := newNet(t), newNet(t)
	double := func(req transport.Request) (any, error) { return req.Body.(uint64) * 2, nil }
	if err := a.Bind("n:local", double); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := make([]transport.Request, 2)
			outs, errs := make([]any, 2), make([]error, 2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if a.Site("n:local") != "" {
					t.Error("an unrouted address stopped being served here")
					return
				}
				reply, err := a.Send(transport.Request{ID: nextID(), To: "n:local", Kind: wire.KindCPF, Body: uint64(4)}, time.Second)
				if err != nil || reply.(uint64) != 8 {
					t.Errorf("Send: %v, %v", reply, err)
					return
				}
				for i := range reqs {
					reqs[i] = transport.Request{ID: nextID(), To: "n:local", Kind: wire.KindCPF, Body: uint64(i)}
				}
				a.SendBatch(reqs, time.Second, outs, errs)
				for i := range reqs {
					if errs[i] != nil || outs[i].(uint64) != uint64(2*i) {
						t.Errorf("SendBatch request %d: %v, %v", i, outs[i], errs[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		prefix := fmt.Sprintf("c:%d#", i)
		if err := a.Route(prefix, b.Addr()); err != nil {
			t.Fatal(err)
		}
		if a.Site(transport.Addr(prefix+"1")) != b.Addr() {
			t.Fatalf("%q is still served here after its route was installed", prefix)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 200; i++ {
		if a.Site(transport.Addr(fmt.Sprintf("c:%d#1", i))) != b.Addr() {
			t.Fatalf("route %d lost by a later install", i)
		}
	}
}

// TestAtMostOnceOverSocket is the E24 property over a real socket: the
// retry client hammers tcpnet through the fault injector (drops, dups,
// jitter), and receiver-side dedup must keep handler executions exactly
// one per logical call.
func TestAtMostOnceOverSocket(t *testing.T) {
	n := newNet(t)
	var runs atomic.Int64
	if err := n.Bind("n:ctr", func(transport.Request) (any, error) {
		return uint64(runs.Add(1)), nil
	}); err != nil {
		t.Fatal(err)
	}
	f := transport.NewFaulty(n, transport.FaultConfig{
		Seed:          11,
		DropRate:      0.15,
		DupRate:       0.3,
		LatencyBase:   50 * time.Microsecond,
		LatencyJitter: 200 * time.Microsecond,
	})
	c := transport.NewClient(f, transport.RetryConfig{
		Timeout:    20 * time.Millisecond,
		MaxRetries: 20,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	})
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Call("x", "n:ctr", wire.KindProbe, uint64(0)); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(10 * time.Millisecond) // let injected duplicates drain
	if failed.Load() != 0 {
		t.Fatalf("%d calls exhausted retries", failed.Load())
	}
	if got := runs.Load(); got != workers*perWorker {
		t.Fatalf("handler ran %d times for %d logical calls (at-most-once violated over TCP)", got, workers*perWorker)
	}
	if n.Stats().DedupHits == 0 {
		t.Fatal("no dedup hits; duplicates/retries not exercised")
	}
	if cs := c.Stats(); cs.Retries == 0 {
		t.Fatalf("client stats %+v: retries not exercised", cs)
	}
}

// TestInstrumentation: the obs handles see encode/decode latency, byte
// counters and the conn gauge.
func TestInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Instrument(reg)
	if err := n.Bind("n:1", func(req transport.Request) (any, error) {
		return req.Body.(uint64), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := n.Send(transport.Request{ID: nextID(), To: "n:1", Kind: wire.KindCPF, Body: uint64(i)}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if v := reg.Counter("tcpnet.bytes.in").Value(); v == 0 {
		t.Fatal("bytes.in counter idle")
	}
	if v := reg.Counter("tcpnet.bytes.out").Value(); v == 0 {
		t.Fatal("bytes.out counter idle")
	}
	if reg.Histogram("tcpnet.encode.seconds", 0, 0.001, 200).Snapshot().Count() == 0 {
		t.Fatal("encode histogram idle")
	}
	if reg.Histogram("tcpnet.decode.seconds", 0, 0.001, 200).Snapshot().Count() == 0 {
		t.Fatal("decode histogram idle")
	}
	if reg.Gauge("tcpnet.conns.open").Value() == 0 {
		t.Fatal("conns gauge idle")
	}
}

// TestDedupBoundOverSocket: the socket fabric uses the same bounded dedup
// table as the memory switch — a long-lived endpoint's cache must not grow
// with total traffic.
func TestDedupBoundOverSocket(t *testing.T) {
	n := newNet(t)
	if err := n.Bind("n:1", func(req transport.Request) (any, error) {
		return req.Body.(uint64), nil
	}); err != nil {
		t.Fatal(err)
	}
	const calls = transport.DefaultDedupCap * 2
	for i := 0; i < calls; i++ {
		if _, err := n.Send(transport.Request{ID: nextID(), To: "n:1", Kind: wire.KindCPF, Body: uint64(i)}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.DedupEntries(); got > transport.DefaultDedupCap {
		t.Fatalf("dedup cache holds %d entries after %d calls, cap %d", got, calls, transport.DefaultDedupCap)
	}
}

// TestPoolHealthStats: PoolStats is an exact walk of the outbound pools,
// and the tcpnet.pool.* gauges surface the same health transitions —
// live conns after traffic, calls in flight and calls that had to share a
// busy conn, a cooldown entry after a dead dial.
func TestPoolHealthStats(t *testing.T) {
	reg := obs.NewRegistry()
	n := newNet(t)
	n.Instrument(reg)
	if err := n.Bind("n:echo", func(req transport.Request) (any, error) {
		return req.Body.(uint64), nil
	}); err != nil {
		t.Fatal(err)
	}

	if ps := n.PoolStats(); ps != (PoolStats{}) {
		t.Fatalf("idle fabric has pool stats %+v", ps)
	}
	if _, err := n.Send(transport.Request{ID: nextID(), To: "n:echo", Kind: wire.KindCPF, Body: uint64(1)}, time.Second); err != nil {
		t.Fatal(err)
	}
	ps := n.PoolStats()
	if ps.Pools != 1 || ps.Conns < 1 {
		t.Fatalf("after one call: %+v, want 1 pool with a live conn", ps)
	}
	if ps.Dialing != 0 || ps.Cooling != 0 {
		t.Fatalf("healthy pool reports dialing/cooling: %+v", ps)
	}
	if v := reg.Gauge("tcpnet.pool.dialing").Value(); v != 0 {
		t.Fatalf("pool.dialing gauge %d after dial completed", v)
	}

	// "Is my pool too small?": PoolSize+1 calls held in their handlers are
	// all in flight, and exactly the one past PoolSize had to share a conn.
	started, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // a failure below must not leave Close waiting on held handlers
	if err := n.Bind("n:hold", func(req transport.Request) (any, error) {
		started <- struct{}{}
		<-held
		return uint64(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	calls := n.cfg.PoolSize + 1
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Send(transport.Request{ID: nextID(), To: "n:hold", Kind: wire.KindTotal}, time.Minute); err != nil {
				t.Error(err)
			}
		}()
		<-started
	}
	if ps := n.PoolStats(); ps.InFlight != calls || ps.Conns != n.cfg.PoolSize {
		t.Fatalf("with %d calls held: %+v", calls, ps)
	}
	if v := reg.Gauge("tcpnet.pool.inflight").Value(); v != int64(calls) {
		t.Fatalf("pool.inflight gauge %d, want %d", v, calls)
	}
	if ws, c := n.WireStats(), reg.Counter("tcpnet.pool.shared").Value(); ws.Shared != 1 || c != 1 {
		t.Fatalf("Shared = %d, pool.shared counter %d, want 1 and 1", ws.Shared, c)
	}
	release()
	wg.Wait()
	if ps, v := n.PoolStats(), reg.Gauge("tcpnet.pool.inflight").Value(); ps.InFlight != 0 || v != 0 {
		t.Fatalf("after the replies: %+v, pool.inflight gauge %d", ps, v)
	}

	// A dead destination fails its dial attempts and leaves its pool with a
	// cooldown. The window itself is a few milliseconds, so what is checked is
	// the pool's state and the transition-maintained gauge, which stays up
	// until the next call to that pool sees the window over.
	if err := n.Route("x:", "127.0.0.1:1"); err != nil {
		t.Fatalf("Route: %v", err)
	}
	if _, err := n.Send(transport.Request{ID: nextID(), To: "x:gone", Kind: wire.KindProbe, Body: uint64(0)}, time.Second); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dead dial: %v, want ErrUnreachable", err)
	}
	if ps := n.PoolStats(); ps.Pools != 2 {
		t.Fatalf("after dead dial: %+v, want 2 pools", ps)
	}
	dead := n.pool("127.0.0.1:1")
	dead.mu.Lock()
	cooling := !dead.coolDown.IsZero()
	dead.mu.Unlock()
	if !cooling {
		t.Fatal("the dead destination's pool has no cooldown after its dials failed")
	}
	if v := reg.Gauge("tcpnet.pool.cooldown").Value(); v != 1 {
		t.Fatalf("pool.cooldown gauge %d, want 1", v)
	}
	// The healthy pool still serves while the dead one cools.
	if _, err := n.Send(transport.Request{ID: nextID(), To: "n:echo", Kind: wire.KindCPF, Body: uint64(2)}, time.Second); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEcho is the fabric's floor under a tcp-token token: one
// one-token group arrive over loopback to a handler that answers at once,
// as the component it stands for would, one caller at a time, through the
// endpoint's at-most-once table like every call. What a dist token pays
// beyond this (BenchmarkTokenDistTCP at the repository root) is the
// cluster's.
func BenchmarkEcho(b *testing.B) {
	n, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	if err := n.Bind("c:echo", func(req transport.Request) (any, error) {
		g := req.Body.(wire.GroupArrive)
		return wire.GroupArriveRes{Status: wire.StatusProcessed, Outs: []int{g.Wires[0]}}, nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := wire.GroupArrive{Wires: []int{i & 63}}
		reply, err := n.Send(transport.Request{ID: uint64(i + 1), From: "t:1", To: "c:echo", Kind: wire.KindGroupArrive, Body: body}, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if out := reply.(wire.GroupArriveRes).Outs; len(out) != 1 || out[0] != i&63 {
			b.Fatalf("echo of wire %d: %v", i&63, out)
		}
	}
}
