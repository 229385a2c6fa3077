package dist

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

// mustCut builds a uniform cut or fails the test.
func mustCut(t *testing.T, w, level int) tree.Cut {
	t.Helper()
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

// TestGroupBatchMatchesSequentialCounts is the group-routing exactness
// contract: for the same token multiset on the same cut, the group-routed
// InjectBatch and token-by-token Inject produce identical
// per-output-wire counts. A balancer component's per-wire output depends
// only on how many tokens arrived, never on their interleaving, so
// delivering a group in one message must be count-for-count the same.
func TestGroupBatchMatchesSequentialCounts(t *testing.T) {
	w := 8
	cuts := map[string]tree.Cut{
		"root":     tree.RootCut(),
		"leaf":     tree.LeafCut(w),
		"uniform1": mustCut(t, w, 1),
		"uniform2": mustCut(t, w, 2),
	}
	rng := rand.New(rand.NewSource(77))
	ins := make([]int, 500)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	for name, cut := range cuts {
		grp, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(w, cut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grp.InjectBatch(ins); err != nil {
			t.Fatalf("%s: group batch: %v", name, err)
		}
		if err := injectEach(seq, ins); err != nil {
			t.Fatalf("%s: sequential batch: %v", name, err)
		}
		g, s := grp.OutCounts(), seq.OutCounts()
		for i := range g {
			if g[i] != s[i] {
				t.Fatalf("%s: output counts diverge: group %v vs sequential %v", name, g, s)
			}
		}
		if err := grp.CheckStep(); err != nil {
			t.Fatalf("%s: group batch: %v", name, err)
		}
	}
}

// TestGroupBatchOneRPCPerComponentVisit is the batching cost contract: RPCs
// per round = destination fabrics. On a root-only cut every token's
// traversal is one visit to one component, so a whole batch must cost
// exactly ONE group arrive RPC — not one per token. On a finer cut over one
// fabric it is still one: the message visits every component the batch
// enters at and its handler steps the group on in place. Behind a wrapper
// that hides the fabric's placement knowledge every component is a
// destination of its own, and it is one per component visited.
func TestGroupBatchOneRPCPerComponentVisit(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 200)
	for i := range ins {
		ins[i] = i % w
	}
	_, before := cl.NetStats()
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after := cl.NetStats()
	if got := after.Sub(before).Calls; got != 1 {
		t.Fatalf("root-only batch of %d tokens issued %d RPCs, want exactly 1", len(ins), got)
	}

	// Finer cut. On this uniform cut every component is visited in one
	// round, so behind the wrapper it is one RPC each, whatever the batch
	// size. The sequential path is priced per token: over one fabric a token
	// is one RPC however many components it passes (TestTokenPaysCrossings),
	// so there the count is the batch size.
	cl2, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := New(w, tree.LeafCut(w), WithTransport(hideCaps{transport.NewMem()}))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	entries := map[int32]bool{}
	for _, in := range ins {
		entries[cl2.topo.Load().rt.Entry(in).Comp] = true
	}
	if len(entries) != w/2 {
		t.Fatalf("the batch enters at %d balancers, want all %d of the first layer", len(entries), w/2)
	}
	_, before = cl2.NetStats()
	if _, err := cl2.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after = cl2.NetStats()
	if got := after.Sub(before).Calls; got != 1 {
		t.Fatalf("group batch issued %d RPCs on one fabric, want 1 for all %d entry balancers", got, len(entries))
	}

	_, before = hidden.NetStats()
	if _, err := hidden.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	_, after = hidden.NetStats()
	if got := after.Sub(before).Calls; got != uint64(hidden.Size()) {
		t.Fatalf("group batch issued %d RPCs with placement hidden on a leaf cut of %d balancers, want one per component visit", got, hidden.Size())
	}

	_, before = seq.NetStats()
	if err := injectEach(seq, ins); err != nil {
		t.Fatal(err)
	}
	_, after = seq.NetStats()
	if got := after.Sub(before).Calls; got != uint64(len(ins)) {
		t.Fatalf("sequential batch of %d tokens issued %d RPCs on one fabric, want one per token", len(ins), got)
	}
}

// TestGroupArriveHandlerStates pins the group handler's three component
// states: a dead incarnation answers StatusDead without recording
// arrivals, a frozen one stores the WHOLE group (each token individually
// resumable, none counted as processed), and an active one routes the
// group in arrival order.
func TestGroupArriveHandlerStates(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	group := wire.GroupArrive{Token: "t:test", Wires: []int{0, 2, 2}, Seqs: []uint64{10, 11, 12}}

	dead := &comp{c: tree.MustRoot(4), state: stateDead, arrived: make([]uint64, 4)}
	reply, err := cl.compRPC(dead, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusDead {
		t.Fatalf("dead status = %v", res.Status)
	}
	if dead.arrived[0] != 0 {
		t.Fatal("dead component recorded a group arrival")
	}

	frozen := &comp{c: tree.MustRoot(4), state: stateFrozen, arrived: make([]uint64, 4)}
	reply, err = cl.compRPC(frozen, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusQueued {
		t.Fatalf("frozen status = %v", res.Status)
	}
	if frozen.arrived[0] != 1 || frozen.arrived[2] != 2 || len(frozen.queue) != 3 {
		t.Fatalf("frozen group not fully stored: %+v", frozen)
	}
	if q := frozen.queue[1]; q.wire != 2 || q.seq != 11 || q.tok != "t:test" {
		t.Fatalf("queued token = %+v", q)
	}
	for _, p := range frozen.processedPerWireLocked() {
		if p != 0 {
			t.Fatal("stored group counted as processed")
		}
	}

	active := &comp{c: tree.MustRoot(4), state: stateActive, arrived: make([]uint64, 4)}
	reply, err = cl.compRPC(active, transport.Request{Kind: kindGroupArrive, Body: group})
	if err != nil {
		t.Fatal(err)
	}
	res := reply.(wire.GroupArriveRes)
	if res.Status != wire.StatusProcessed {
		t.Fatalf("active status = %v", res.Status)
	}
	// Round-robin from total 0: outputs 0, 1, 2 in arrival order.
	if len(res.Outs) != 3 || res.Outs[0] != 0 || res.Outs[1] != 1 || res.Outs[2] != 2 {
		t.Fatalf("active outs = %v", res.Outs)
	}
	if active.total != 3 {
		t.Fatalf("active total = %d", active.total)
	}

	// Malformed groups are errors, not silent misroutes.
	if _, err := cl.compRPC(active, transport.Request{Kind: kindGroupArrive,
		Body: wire.GroupArrive{Token: "t:x", Wires: []int{0, 1}, Seqs: []uint64{1}}}); err == nil {
		t.Fatal("mismatched wires/seqs accepted")
	}
	if _, err := cl.compRPC(active, transport.Request{Kind: kindGroupArrive,
		Body: wire.GroupArrive{Token: "t:x", Wires: []int{7}, Seqs: []uint64{1}}}); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

// TestGroupBatchDuringReconfig races group-routed batches against
// split/merge cycles: groups landing on frozen components are stored whole
// and resume token by token, and counting stays exact throughout.
func TestGroupBatchDuringReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 3, func(_ int, rng *rand.Rand) error {
		_, err := cl.InjectBatch(randomBatch(rng, 16, w))
		return err
	})
	for cycle := 0; cycle < 4; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("1"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// tcpCluster builds a cluster whose every message — token, group, control,
// resume — crosses a real loopback socket, optionally through the fault
// injector on top.
func tcpCluster(t *testing.T, w int, cut tree.Cut, drop float64) (*Cluster, *tcpnet.Net) {
	t.Helper()
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	var tr transport.Transport = tn
	if drop > 0 {
		tr = transport.NewFaulty(tn, transport.FaultConfig{
			Seed:          17,
			DropRate:      drop,
			DupRate:       drop,
			LatencyBase:   5 * time.Microsecond,
			LatencyJitter: 50 * time.Microsecond,
		})
	}
	cl, err := New(w, cut, WithTransport(tr), WithRetry(transport.RetryConfig{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 12,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return cl, tn
}

// TestCountingOverTCP is the fabric-substitution contract: the dist engine
// run unchanged over tcpnet — single tokens, group batches, and a
// split/merge cycle against live traffic — keeps counting exact, and the
// bytes actually cross the socket.
func TestCountingOverTCP(t *testing.T) {
	w := 8
	cl, tn := tcpCluster(t, w, tree.RootCut(), 0)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 20)
			for round := 0; round < 5; round++ {
				for i := range batch {
					batch[i] = rng.Intn(w)
				}
				if _, err := cl.InjectBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if ws := tn.WireStats(); ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Fatalf("no bytes crossed the socket: %+v", ws)
	}
}

// TestNewEnablesDedup pins the at-most-once wiring: New must switch on
// receiver-side dedup when the fabric can time out a delivered call
// (transport.Redeliverer), because the retry client re-sends past its
// deadline and a re-executed arrive handler double-counts the token — a
// conservation break that wedges the next merge's drain phase forever.
// (Observed as a rare TestCountingOverTCP hang under -race, where handler
// latency can exceed the 25ms retry deadline.) The in-memory fabric is
// deliberately exempt: its Send never times out, so retries cannot occur.
func TestNewEnablesDedup(t *testing.T) {
	w := 8
	cl, tn := tcpCluster(t, w, tree.RootCut(), 0)
	if _, err := cl.Inject(3); err != nil {
		t.Fatal(err)
	}
	if tn.DedupEntries() == 0 {
		t.Fatal("New left receiver-side dedup off: retried calls would re-execute handlers")
	}
}

// TestCountingUnderFaultyTCP is the E24 exactness property with tcpnet
// substituted for the in-memory switch: loss, duplication and jitter on
// top of a real socket, retries and receiver-side dedup underneath, and
// the count must still be exact after a reconfiguration cycle under load.
func TestCountingUnderFaultyTCP(t *testing.T) {
	w := 8
	cl, _ := tcpCluster(t, w, tree.RootCut(), 0.03)

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 10)
			for round := 0; round < 3; round++ {
				for i := range batch {
					batch[i] = rng.Intn(w)
				}
				if _, err := cl.InjectBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	st, cs := cl.NetStats()
	if st.Dropped == 0 {
		t.Fatalf("faults not exercised: %+v", st)
	}
	if cs.Failures != 0 {
		t.Fatalf("client stats %+v: retries exhausted", cs)
	}
	if st.DedupHits == 0 {
		t.Fatal("no dedup hits over faulty TCP; at-most-once untested")
	}
}
