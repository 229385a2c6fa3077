package dist

import (
	"math/rand"
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

// The group analogues of arrive_test.go's chain tests: a group handler's
// chain against a frozen component, against one killed between two of its
// visits, at a stale incarnation, under retries, and against the two
// oracles (a fabric without placement knowledge, and the sequential path).

// batchEvents returns the events of the one batch span tr retains.
func batchEvents(t *testing.T, tr *obs.Tracer) []obs.Event {
	t.Helper()
	var evs []obs.Event
	found := 0
	for _, s := range tr.Spans() {
		if s.Name == "batch" {
			evs = s.Events
			found++
		}
	}
	if found != 1 {
		t.Fatalf("%d batch spans retained, want 1", found)
	}
	return evs
}

// requireSameTotals checks that every component of cl has stepped as many
// tokens as the component at the same path of ref.
func requireSameTotals(t *testing.T, cl, ref *Cluster) {
	t.Helper()
	live, refLive := cl.topo.Load().live, ref.topo.Load().live
	if len(live) != len(refLive) {
		t.Fatalf("%d live components, the reference has %d", len(live), len(refLive))
	}
	for i, cm := range live {
		cm.mu.Lock()
		total := cm.total
		cm.mu.Unlock()
		if rc := refLive[i]; cm.c.Path != rc.c.Path || total != rc.total {
			t.Fatalf("%v stepped %d tokens, the reference's %v stepped %d", cm.c, total, rc.c, rc.total)
		}
	}
}

// TestGroupChainStopsAtFrozen: a burst's chains meet a frozen component in
// the third layer. Round 1 steps every token up to it or out of the network
// and reports the ones standing at it by position; round 2 is their own
// message to the frozen component, which stores them under the batch
// endpoint's address; once the component is replaced and killed the resumes
// bring them back and they run out the rest of their paths.
func TestGroupChainStopsAtFrozen(t *testing.T) {
	const w, tokens = 64, 128
	cut := mustCut(t, w, 2)
	ins := randomWires(19, tokens, w)
	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	cl, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(1, 16)
	path, _ := tokenPath(cl, ins[0])
	frozen := path[2]
	// Arrival counts do not depend on interleaving: the reference says how
	// many of the burst's tokens pass through the frozen component.
	stopped := int(ref.topo.Load().at(frozen.c.Path).total)
	if stopped == 0 || stopped == tokens {
		t.Fatalf("%d of %d tokens pass through %v: the burst does not exercise both cases", stopped, tokens, frozen.c)
	}
	reply, err := cl.ctl(frozen, kindFreeze, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reply.(wire.FreezeRes)

	_, before := cl.NetStats()
	done := make(chan error, 1)
	go func() {
		_, err := cl.InjectBatch(ins)
		done <- err
	}()
	var queue []queuedToken
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		frozen.mu.Lock()
		queue = append(queue[:0], frozen.queue...)
		frozen.mu.Unlock()
		if len(queue) == stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d tokens stored at the frozen component, want %d", len(queue), stopped)
		}
	}
	if _, mid := cl.NetStats(); mid.Sub(before).Calls != 2 {
		t.Fatalf("%d RPCs until the tokens were stored, want 2: one fabric, so one message a round (the burst, then the group it was told to send)", mid.Sub(before).Calls)
	}
	for _, q := range queue {
		if !strings.HasPrefix(string(q.tok), "t:") || q.tok != queue[0].tok {
			t.Fatalf("stored %+v, want every token under the batch endpoint's address", q)
		}
	}
	if frozen.total != 0 {
		t.Fatalf("the frozen component stepped %d tokens", frozen.total)
	}

	// Replace the frozen incarnation by a fresh one built from its freeze
	// snapshot, then kill it: the stored tokens are released to the endpoint.
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
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Events: the burst, its one message whose chain steps 6 components for
	// a token that misses the frozen one and 2 for one that meets it, the
	// group stored whole, then the resumed tokens — in as many groups as
	// their resumes happened to arrive in — stepping the 4 components left.
	evs := batchEvents(t, tr)
	p := string(frozen.c.Path)
	if len(evs) < 4 || evs[0].Kind != "inject" || evs[0].V != tokens {
		t.Fatalf("batch span events %+v", evs)
	}
	var late int64
	if e, want := evs[1], int64(6*(tokens-stopped)+2*stopped); e.Kind != "group" || e.Detail == p || e.V != want {
		t.Fatalf("event %+v, want the burst's message stepping %d components", e, want)
	}
	if e := evs[2]; e.Kind != "queued" || e.Detail != p || e.V != int64(stopped) {
		t.Fatalf("event %+v, want %d tokens queued at %q", e, stopped, p)
	}
	for _, e := range evs[3:] {
		if e.Kind != "group" || e.Detail != p {
			t.Fatalf("event %+v, want a group of resumed tokens at %q", e, p)
		}
		late += e.V
	}
	if late != int64(4*stopped) {
		t.Fatalf("the resumed tokens stepped %d components, want %d", late, 4*stopped)
	}
	requireSameTotals(t, cl, ref)
	if got, want := cl.OutCounts(), ref.OutCounts(); !slices.Equal(got, want) {
		t.Fatalf("output counts %v, want %v", got, want)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupChainStopsAtDead: a third-layer component is split — frozen,
// replaced by its children in a published snapshot, killed — between two
// visits of a chain that routes by the older snapshot. The chain finds it
// dead and reports the tokens standing at it by position; their endpoint
// descends from there into the children. Nothing is sent to the dead
// incarnation, so nothing bounces.
func TestGroupChainStopsAtDead(t *testing.T) {
	const w, tokens = 64, 128
	cut := mustCut(t, w, 2)
	ins := randomWires(19, tokens, w)
	fabric := &gatedMem{Net: transport.NewMem()}
	cl, err := New(w, cut, WithTransport(fabric))
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(1, 16)
	path, _ := tokenPath(cl, ins[0])
	victim := path[2]

	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InjectBatch(ins); err != nil {
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
	done := make(chan error, 1)
	go func() {
		_, err := cl.InjectBatch(ins)
		done <- err
	}()
	<-asked // a chain is two visits in and about to visit the victim
	if err := cl.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if victim.total != 0 {
		t.Fatalf("the dead incarnation stepped %d tokens", victim.total)
	}
	steps := int64(0)
	for _, e := range batchEvents(t, tr)[1:] {
		if e.Kind != "group" {
			t.Fatalf("event %+v: a token bounced instead of descending from its reported position", e)
		}
		steps += e.V
	}
	// A token that passes through the split component visits one or two of
	// its three children in its place; the reference counts the visits.
	want := int64(0)
	for _, cm := range ref.topo.Load().live {
		want += int64(cm.total)
	}
	if steps != want {
		t.Fatalf("the burst's group events step %d components, its tokens' paths hold %d", steps, want)
	}
	requireSameTotals(t, cl, ref)
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupChainStaleIncarnationOneStep: a group arrive bound for an
// incarnation the current snapshot no longer holds is stepped there and
// answered at once with its output wires, as TestChainStaleIncarnationOneStep
// has it for one token; the same request at the incarnation the snapshot
// does hold runs every token to its exit.
func TestGroupChainStaleIncarnationOneStep(t *testing.T) {
	const w = 64
	cl, err := New(w, mustCut(t, w, 2))
	if err != nil {
		t.Fatal(err)
	}
	tp := cl.topo.Load()
	at := tp.rt.Entry(13)
	stale := tp.live[at.Comp]
	cur := &comp{c: stale.c, state: stateActive, arrived: make([]uint64, stale.c.Width)}
	if err := cl.bind(cur); err != nil {
		t.Fatal(err)
	}
	if err := cl.publish([]*comp{stale}, []*comp{cur}); err != nil {
		t.Fatal(err)
	}
	req := transport.Request{Kind: kindGroupArrive, Body: wire.GroupArrive{Token: "t:test", Wires: []int{3, 3, 0}, Seqs: []uint64{1, 2, 3}}}

	reply, err := cl.compRPC(stale, req)
	if err != nil {
		t.Fatal(err)
	}
	res := reply.(wire.GroupArriveRes)
	if res.Status != wire.StatusProcessed || len(res.Outs) != 3 || res.Outs[0] != 0 || res.Outs[1] != 1 || res.Outs[2] != 2 || res.Steps != 0 || res.Paths != nil {
		t.Fatalf("stale incarnation replied %+v, want one visit to output wires 0, 1, 2", res)
	}
	if stale.total != 3 {
		t.Fatalf("stale incarnation total %d, want 3", stale.total)
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
	res = reply.(wire.GroupArriveRes)
	if res.Status != wire.StatusExited || res.Steps != 18 || len(res.Outs) != 3 || res.Paths != nil || res.Wires != nil {
		t.Fatalf("current incarnation replied %+v, want three exits after 18 steps", res)
	}
	for _, out := range res.Outs {
		if out < 0 || out >= w {
			t.Fatalf("current incarnation replied %+v, want three network output wires", res)
		}
	}
}

// TestGroupChainAtMostOnceOverTCP: a burst on one fabric is one request —
// RPCs per round = destination fabrics — whose handler serves four visits
// and one chain. When every group handler is slower than the retry
// deadline, each re-sent group arrive is answered from the dedup table of
// the incarnation it is addressed to, the first visit's — it waits for the
// original to finish and gets its reply — so no visit and no chain runs
// twice: as many handler runs as logical calls, and every component ends
// with the total it has after the same bursts on the ideal fabric.
func TestGroupChainAtMostOnceOverTCP(t *testing.T) {
	const w, bursts = 64, 2
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
	for seed := int64(0); seed < bursts; seed++ {
		ins := randomWires(seed, 128, w)
		if _, err := ref.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	st, cs := cl.NetStats()
	if cs.Calls != bursts || cs.Failures != 0 {
		t.Fatalf("client stats %+v, want %d calls, none failed", cs, bursts)
	}
	if cs.Retries < cs.Calls || st.DedupHits < cs.Calls {
		t.Fatalf("client %+v, fabric %+v: the slow chains were not retried into the dedup table", cs, st)
	}
	if st.Delivered != cs.Calls {
		t.Fatalf("%d handler runs for %d group RPCs", st.Delivered, cs.Calls)
	}
	requireSameTotals(t, cl, ref)
	if got, want := cl.OutCounts(), ref.OutCounts(); !slices.Equal(got, want) {
		t.Fatalf("output counts %v, want %v", got, want)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupChainMatchesOracles is the differential test of the chained batch
// path: the same seeded bursts through a cluster on the bare in-memory
// switch (chains as long as the cut is deep), through one behind a wrapper
// that hides the fabric's placement knowledge (every chain one visit long)
// and through the sequential path leave the same count on every output wire
// and the same total at every component, on the uniform cuts and on 20
// random ones. On the uniform cuts and four of the random ones a last burst
// holds more tokens than one message carries (wire.MaxSlice): on one fabric
// it goes out as two messages, the first ending in the middle of some
// component's tokens.
func TestGroupChainMatchesOracles(t *testing.T) {
	const w = 32
	cuts := map[string]tree.Cut{"root": tree.RootCut(), "leaf": tree.LeafCut(w)}
	long := map[string]bool{}
	for level := 1; level <= 3; level++ {
		name := "uniform" + string(rune('0'+level))
		cuts[name], long[name] = mustCut(t, w, level), true
	}
	for seed := int64(0); seed < 20; seed++ {
		name := "random" + string(rune('a'+seed))
		cuts[name], long[name] = tree.RandomCut(w, 0.5, rand.New(rand.NewSource(seed))), seed < 4
	}
	for name, cut := range cuts {
		chained, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		perVisit, err := New(w, cut, WithTransport(hideCaps{transport.NewMem()}))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(cut))))
		bursts := 6
		if long[name] {
			bursts++
		}
		for burst := 0; burst < bursts; burst++ {
			n := 1 + rng.Intn(200)
			if burst == 6 {
				n += wire.MaxSlice
			}
			ins := randomBatch(rng, n, w)
			_, before := chained.NetStats()
			if _, err := chained.InjectBatch(ins); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// One fabric, one round: a message per MaxSlice tokens, whatever
			// components they stand at.
			if _, after := chained.NetStats(); after.Sub(before).Calls != uint64((n+wire.MaxSlice-1)/wire.MaxSlice) {
				t.Fatalf("%s: %d RPCs for %d tokens", name, after.Sub(before).Calls, n)
			}
			if _, err := perVisit.InjectBatch(ins); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := injectEach(seq, ins); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for oracle, ref := range map[string]*Cluster{"placement hidden": perVisit, "sequential": seq} {
			if got, want := chained.OutCounts(), ref.OutCounts(); !slices.Equal(got, want) {
				t.Fatalf("%s: output counts %v chained, %v %s", name, got, want, oracle)
			}
			requireSameTotals(t, chained, ref)
		}
		if err := chained.CheckStep(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, cc := chained.NetStats()
		_, pc := perVisit.NetStats()
		if len(cut) > 1 && cc.Calls >= pc.Calls {
			t.Fatalf("%s: %d RPCs chained, %d one per visit: the chained cluster did not chain", name, cc.Calls, pc.Calls)
		}
	}
}

// TestGroupHopEventsSumToDepth pins what a sampled batch's span shows: one
// group event per group RPC, carrying the token-steps that RPC performed,
// so a burst's group events always sum to the components on its tokens'
// paths — 128 x 6 at the level-2 cut of BITONIC[64]. On one fabric that is
// 1 event of 768 (and 1 server-side rpc:agroup span); behind a wrapper that
// hides the fabric's placement knowledge it is one event per component
// visit, each of the size of its group.
func TestGroupHopEventsSumToDepth(t *testing.T) {
	const w, tokens = 64, 128
	cut := mustCut(t, w, 2)
	for _, tc := range []struct {
		name string
		opts []Option
		rpcs int
	}{
		{"one fabric", nil, 1},
		{"placement hidden", []Option{WithTransport(hideCaps{transport.NewMem()})}, 24},
	} {
		cl, err := New(w, cut, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr := cl.Trace(1, 64)
		if tc.opts == nil && !cl.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{Tracer: tr})) {
			t.Fatal("fabric does not support InstrumentRPC")
		}
		if _, err := cl.InjectBatch(randomWires(23, tokens, w)); err != nil {
			t.Fatal(err)
		}
		groups, steps, visited := 0, int64(0), int64(0)
		for _, e := range batchEvents(t, tr) {
			if e.Kind == "group" {
				groups++
				steps += e.V
			}
		}
		for _, cm := range cl.topo.Load().live {
			visited += int64(cm.total)
		}
		if groups != tc.rpcs || steps != 6*tokens || visited != steps {
			t.Fatalf("%s: %d group events summing to %d steps, want %d summing to %d (components stepped %d tokens)",
				tc.name, groups, steps, tc.rpcs, 6*tokens, visited)
		}
		served := 0
		for _, s := range tr.Spans() {
			if s.Name == "rpc:"+kindGroupArrive {
				served++
			}
		}
		if tc.opts == nil && served != tc.rpcs {
			t.Fatalf("%s: %d server-side group arrive spans for %d RPCs", tc.name, served, tc.rpcs)
		}
	}
}
