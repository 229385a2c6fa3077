package dist

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

// hideCaps wraps a fabric the way a wrapper that only interposes on the
// Transport methods does: none of the optional capabilities — Placer among
// them — is forwarded, so every hop behind it is a message.
type hideCaps struct{ transport.Transport }

// tokenPath predicts the components the next token injected on wire in
// visits, and the input wire it arrives on at each, from the quiescent
// cluster's current snapshot and component totals.
func tokenPath(cl *Cluster, in int) (comps []*comp, wires []int) {
	tp := cl.topo.Load()
	for at := tp.rt.Entry(in); !at.Exited(); {
		cm := tp.live[at.Comp]
		comps, wires = append(comps, cm), append(wires, int(at.Wire))
		cm.mu.Lock()
		out := int(cm.total % uint64(cm.c.Width))
		cm.mu.Unlock()
		at = tp.rt.Next(at.Comp, out)
	}
	return comps, wires
}

// requireEvents checks a span's events — kind, detail and value, not
// their times — against want, in order.
func requireEvents(t *testing.T, got []obs.Event, want ...obs.Event) {
	t.Helper()
	untimed := make([]obs.Event, len(got))
	for i, e := range got {
		untimed[i] = obs.Event{Kind: e.Kind, Detail: e.Detail, V: e.V}
	}
	if !reflect.DeepEqual(untimed, want) {
		t.Fatalf("span events\n got %+v\nwant %+v", untimed, want)
	}
}

// TestTokenPaysCrossings is the PR's headline as a count, and the
// differential oracle for the chained path: the same arrival sequence
// through a cluster on the bare in-memory switch and through one behind a
// wrapper that hides the fabric's placement knowledge leaves every token on
// the same output wire, for one RPC per token on the first (one fabric, no
// crossings) and one per component on the second (effective depth: 6 at the
// level-2 cut of BITONIC[64]). The sibling of TestBurstPaysCrossings.
func TestTokenPaysCrossings(t *testing.T) {
	const w = 64
	for _, tc := range []struct {
		name    string
		cut     tree.Cut
		uniform bool // every path crosses as many components as the cut is deep
	}{
		{"uniform2", mustCut(t, w, 2), true},
		{"random", tree.RandomCut(w, 0.5, rand.New(rand.NewSource(8))), false},
	} {
		chained, err := New(w, tc.cut)
		if err != nil {
			t.Fatal(err)
		}
		perHop, err := New(w, tc.cut, WithTransport(hideCaps{transport.NewMem()}))
		if err != nil {
			t.Fatal(err)
		}
		depth, err := chained.EffectiveDepth()
		if err != nil {
			t.Fatal(err)
		}
		if tc.uniform && depth != 6 {
			t.Fatalf("%s: effective depth %d, want 6", tc.name, depth)
		}
		for i, in := range randomWires(41, 400, w) {
			visits, _ := tokenPath(perHop, in)
			_, c0 := chained.NetStats()
			_, p0 := perHop.NetStats()
			a, err := chained.Inject(in)
			if err != nil {
				t.Fatal(err)
			}
			b, err := perHop.Inject(in)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("%s: token %d (wire %d) left on %d chained, %d hop by hop", tc.name, i, in, a, b)
			}
			_, c1 := chained.NetStats()
			_, p1 := perHop.NetStats()
			if got := c1.Sub(c0).Calls; got != 1 {
				t.Fatalf("%s: token %d cost %d RPCs on one fabric, want 1", tc.name, i, got)
			}
			if got := p1.Sub(p0).Calls; got != uint64(len(visits)) || (tc.uniform && len(visits) != depth) {
				t.Fatalf("%s: token %d cost %d RPCs behind the wrapper for %d components on its path (depth %d)",
					tc.name, i, got, len(visits), depth)
			}
		}
		if err := chained.CheckStep(); err != nil {
			t.Fatal(err)
		}
		if err := perHop.CheckStep(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChainStopsAtFrozen: a single token's chain meets a frozen component
// mid-path. RPC 1 steps exactly the components before it and reports the
// token's position; RPC 2 is the token's own message to the frozen
// component, which stores it under the token's endpoint address; after the
// component is replaced and killed the resume brings the token back and it
// runs out the rest of its path in one more RPC.
func TestChainStopsAtFrozen(t *testing.T) {
	const w, in = 64, 13
	cut := mustCut(t, w, 2)
	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Inject(in)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(1, 16)
	path, wires := tokenPath(cl, in)
	if len(path) != 6 {
		t.Fatalf("path of %d components, want 6", len(path))
	}
	frozen := path[2]
	reply, err := cl.ctl(frozen, kindFreeze, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reply.(wire.FreezeRes)

	_, before := cl.NetStats()
	done := make(chan int, 1)
	go func() {
		out, err := cl.Inject(in)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	var q queuedToken
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		frozen.mu.Lock()
		n := len(frozen.queue)
		if n > 0 {
			q = frozen.queue[0]
		}
		frozen.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the token never reached the frozen component")
		}
	}
	if _, mid := cl.NetStats(); mid.Sub(before).Calls != 2 {
		t.Fatalf("%d RPCs until the token was stored, want 2 (the chain, then the arrive it was told to send)", mid.Sub(before).Calls)
	}
	if !strings.HasPrefix(string(q.tok), "t:") || q.wire != wires[2] {
		t.Fatalf("stored %+v, want the token's endpoint address and wire %d", q, wires[2])
	}
	for i, cm := range path {
		cm.mu.Lock()
		total := cm.total
		cm.mu.Unlock()
		stepped := uint64(0)
		if i < 2 {
			stepped = 1
		}
		if total != stepped {
			t.Fatalf("component %d of the path (%v) has total %d after the chain stopped at component 2", i, cm.c, total)
		}
	}

	// Replace the frozen incarnation by a fresh one built from its freeze
	// snapshot, then kill it: the stored token is released to its endpoint.
	repl := &comp{c: frozen.c, state: stateActive, total: snap.Total, arrived: snap.Processed}
	if err := cl.bind(repl); err != nil {
		t.Fatal(err)
	}
	if err := cl.publish([]*comp{frozen}, []*comp{repl}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ctl(frozen, kindKill, nil); err != nil {
		t.Fatal(err)
	}
	if out := <-done; out != want {
		t.Fatalf("token left on wire %d, want %d", out, want)
	}
	p := string(frozen.c.Path)
	requireEvents(t, batchEvents(t, tr),
		obs.Event{Kind: "inject", V: 1},
		obs.Event{Kind: "group", Detail: string(path[0].c.Path), V: 2},
		obs.Event{Kind: "queued", Detail: p, V: 1},
		obs.Event{Kind: "group", Detail: p, V: 4},
	)
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// gatedMem is the in-memory switch with a hook on the placement question,
// which a chain asks once before every step: the hook is where a test holds
// a chain still between two steps.
type gatedMem struct {
	*transport.Net
	gate func(transport.Addr)
}

func (g *gatedMem) Site(a transport.Addr) string {
	if g.gate != nil {
		g.gate(a)
	}
	return g.Net.Site(a)
}

// TestChainStopsAtDead: a component mid-path is split — frozen, replaced by
// its children in a published snapshot, killed — while a single token's
// chain that routes by the older snapshot is two steps in. The chain finds it dead, reports
// the token's position, and the token's endpoint descends from there into
// the children: two RPCs, no bounce off the dead incarnation.
func TestChainStopsAtDead(t *testing.T) {
	const w, in = 64, 13
	cut := mustCut(t, w, 2)
	fabric := &gatedMem{Net: transport.NewMem()}
	cl, err := New(w, cut, WithTransport(fabric))
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(1, 16)
	path, _ := tokenPath(cl, in)
	victim := path[2]

	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	refPath, _ := tokenPath(ref, in)
	want, err := ref.Inject(in)
	if err != nil {
		t.Fatal(err)
	}

	asked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fabric.gate = func(a transport.Addr) {
		if a == victim.addr {
			once.Do(func() {
				close(asked)
				<-release
			})
		}
	}
	done := make(chan int, 1)
	go func() {
		out, err := cl.Inject(in)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	<-asked
	if err := cl.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	close(release)
	if out := <-done; out != want {
		t.Fatalf("token left on wire %d, want %d", out, want)
	}
	evs := batchEvents(t, tr)[1:] // after the inject event
	if len(evs) != 2 || evs[0].Kind != "group" || evs[1].Kind != "group" {
		t.Fatalf("span events %+v, want two group RPCs", evs)
	}
	if evs[0].Detail != string(path[0].c.Path) || evs[0].V != 2 {
		t.Fatalf("first RPC: %+v, want 2 steps from %q", evs[0], path[0].c.Path)
	}
	child := evs[1].Detail
	if !strings.HasPrefix(child, string(victim.c.Path)) || len(child) != len(victim.c.Path)+1 {
		t.Fatalf("second RPC entered at %q, want a child of %q", child, victim.c.Path)
	}
	if got := evs[0].V + evs[1].V; got != int64(len(refPath)) {
		t.Fatalf("the two RPCs stepped %d components, the path has %d", got, len(refPath))
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestChainStaleIncarnationOneStep: a single token's group arrive bound for
// an incarnation that the current snapshot no longer holds is stepped there
// — the incarnation is still active, its successor has not been told of the
// token — and answered at once with the output wire, since the snapshot the
// handler would chain by says nothing about that incarnation's wires. The
// same request at the incarnation the snapshot does hold runs to the exit.
func TestChainStaleIncarnationOneStep(t *testing.T) {
	const w, in = 64, 13
	cl, err := New(w, mustCut(t, w, 2))
	if err != nil {
		t.Fatal(err)
	}
	tp := cl.topo.Load()
	at := tp.rt.Entry(in)
	stale := tp.live[at.Comp]
	cur := &comp{c: stale.c, state: stateActive, arrived: make([]uint64, stale.c.Width)}
	if err := cl.bind(cur); err != nil {
		t.Fatal(err)
	}
	if err := cl.publish([]*comp{stale}, []*comp{cur}); err != nil {
		t.Fatal(err)
	}
	req := transport.Request{Kind: kindGroupArrive, Body: wire.GroupArrive{Token: "t:test", Wires: []int{int(at.Wire)}, Seqs: []uint64{1}}}

	reply, err := cl.compRPC(stale, req)
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusProcessed || !slices.Equal(res.Outs, []int{0}) || res.Steps != 0 || res.Paths != nil {
		t.Fatalf("stale incarnation replied %+v, want one step to output wire 0", res)
	}
	if stale.total != 1 {
		t.Fatalf("stale incarnation total %d, want 1", stale.total)
	}
	for _, cm := range cl.topo.Load().live {
		if cm.total != 0 {
			t.Fatalf("%v was stepped by a handler whose snapshot does not hold the incarnation it serves", cm.c)
		}
	}

	reply, err = cl.compRPC(cur, req)
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusExited || res.Steps != 6 || len(res.Outs) != 1 || res.Outs[0] < 0 || res.Outs[0] >= w {
		t.Fatalf("current incarnation replied %+v, want an exit after 6 steps", res)
	}
}

// slowArrive is a tcpnet fabric whose component endpoints take their time
// over every group arrive, so the caller's deadline passes while the
// handler — the whole chain — is still running.
type slowArrive struct {
	*tcpnet.Net
	delay time.Duration
}

func (s *slowArrive) Bind(a transport.Addr, h transport.Handler) error {
	return s.Net.Bind(a, func(req transport.Request) (any, error) {
		if req.Kind == kindGroupArrive {
			time.Sleep(s.delay)
		}
		return h(req)
	})
}

// TestChainAtMostOnceOverTCP: a single token's chain is one request. When its reply misses
// the retry deadline, the re-sent arrive is answered from the entry
// incarnation's dedup table — it waits for the original to finish and gets
// its reply — so the chain runs once: every component ends with the total
// it has after the same tokens on the ideal fabric.
func TestChainAtMostOnceOverTCP(t *testing.T) {
	const w, tokens = 64, 3
	const timeout = 30 * time.Millisecond
	cut := mustCut(t, w, 2)
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	fabric := &slowArrive{Net: tn, delay: 5 * timeout / 2}
	if _, ok := transport.Transport(fabric).(transport.Placer); !ok {
		t.Fatal("the slow fabric lost the placement capability; the test would not chain")
	}
	cl, err := New(w, cut, WithTransport(fabric), WithRetry(transport.RetryConfig{
		Timeout: timeout, MaxRetries: 10, Backoff: time.Millisecond, BackoffCap: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range randomWires(5, tokens, w) {
		want, err := ref.Inject(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Inject(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("token %d left on wire %d, want %d", i, got, want)
		}
	}
	st, cs := cl.NetStats()
	if cs.Calls != tokens || cs.Failures != 0 {
		t.Fatalf("client stats %+v, want %d calls, none failed", cs, tokens)
	}
	if cs.Retries < tokens || st.DedupHits < tokens {
		t.Fatalf("client %+v, fabric %+v: the slow chains were not retried into the dedup table", cs, st)
	}
	if st.Delivered != tokens {
		t.Fatalf("%d handler runs for %d tokens", st.Delivered, tokens)
	}
	refLive := ref.topo.Load().live
	for i, cm := range cl.topo.Load().live {
		if cm.total != refLive[i].total {
			t.Fatalf("%v stepped %d tokens, %d on the ideal fabric: a retried chain ran again", cm.c, cm.total, refLive[i].total)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectAllocs pins what a warm single-token Inject allocates over the
// ideal fabric at the level-2 cut of BITONIC[64], where it is one group
// arrive RPC: the request's wire and sequence-number slices and its boxed
// body (payloads are never recycled: a fabric may hold a request after Send
// returns), and the handler's output-wire slice and boxed reply (the dedup
// table may keep a reply). Its input and output wires live on its stack.
func TestInjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cl, err := New(64, mustCut(t, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ins := randomWires(9, 256, 64)
	for _, in := range ins { // warm the endpoint pool
		if _, err := cl.Inject(in); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := cl.Inject(ins[i%len(ins)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 5 {
		t.Fatalf("a warm Inject allocates %.1f times, pinned at 5", allocs)
	}
}
