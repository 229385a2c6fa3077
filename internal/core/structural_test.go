package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/tree"
)

// This file holds the tests that license PR 24's deletions: structural
// operations reconcile, reconstruct and publish only what they touch, and
// the cold token path walks a stack buffer — with the protocol's meters,
// placements and counter values exactly as the whole-network versions left
// them. The whole-network versions live on below as the references.

// reconcileFullSweepLocked is membership reconciliation as every join and
// leave did it before: every live component's name is rebuilt, hashed and
// looked up.
func (n *Network) reconcileFullSweepLocked() {
	for p, lc := range n.comps {
		host, err := n.ring.Owner(lc.st.Comp.Name())
		if err != nil || host == lc.host {
			continue
		}
		lc.unhostLocked(p)
		n.rehostLocked(p, lc, host)
		n.metrics.moves.Add(1)
	}
}

// addNodeFullSweep is AddNode with the full sweep.
func addNodeFullSweep(n *Network) (id chord.NodeID) {
	_ = structural(n, func() error {
		id = n.ring.Join()
		n.nodes[id] = &nodeInfo{comps: make(map[tree.Path]bool)}
		n.reconcileFullSweepLocked()
		return nil
	})
	return id
}

// removeNodeFullSweep is RemoveNode with the full sweep.
func removeNodeFullSweep(n *Network, id chord.NodeID) error {
	return structural(n, func() error {
		node := n.nodes[id]
		if err := n.ring.Remove(id); err != nil {
			return err
		}
		delete(n.nodes, id)
		for p := range node.comps {
			lc := n.comps[p]
			host, err := n.ring.Owner(lc.st.Comp.Name())
			if err != nil {
				return err
			}
			n.rehostLocked(p, lc, host)
			n.metrics.moves.Add(1)
		}
		n.reconcileFullSweepLocked()
		return nil
	})
}

// checkPlacement verifies the invariants the local reconciliation rests
// on: every live component sits on the owner of its name with its cached
// hash right, the per-node books mirror the directory, the published
// snapshot is the directory, and inner is exactly the cut's internal nodes.
func checkPlacement(n *Network) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	hosted := 0
	for id, node := range n.nodes {
		if !n.ring.Contains(id) {
			return fmt.Errorf("node %d is on the books but not in the ring", id)
		}
		for p := range node.comps {
			if lc := n.comps[p]; lc == nil || lc.node != node || lc.host != id {
				return fmt.Errorf("node %d lists %q, the directory has %+v", id, p, lc)
			}
		}
		hosted += len(node.comps)
	}
	if hosted != len(n.comps) {
		return fmt.Errorf("nodes host %d components, the directory has %d", hosted, len(n.comps))
	}
	topo := n.topo.Load().comps
	if len(topo) != len(n.comps) {
		return fmt.Errorf("snapshot has %d components, the directory %d", len(topo), len(n.comps))
	}
	inner := make(map[tree.Path]bool)
	ancestors := func(p tree.Path) {
		for l := 0; l < len(p); l++ {
			inner[p[:l]] = true
		}
	}
	for p, lc := range n.comps {
		name := lc.st.Comp.Name()
		if lc.hash != chord.Hash(name) {
			return fmt.Errorf("%s: cached hash %d, name hashes to %d", name, lc.hash, chord.Hash(name))
		}
		if owner, err := n.ring.Owner(name); err != nil || owner != lc.host {
			return fmt.Errorf("%s sits on %d, its name's owner is %d (%v)", name, lc.host, owner, err)
		}
		if lc.removed || lc.st.Comp.Path != p || topo[p] != lc {
			return fmt.Errorf("%s: removed=%v, directory key %q, snapshot %p != %p", name, lc.removed, p, topo[p], lc)
		}
		ancestors(p)
	}
	for p := range n.lost {
		ancestors(p)
	}
	if len(inner) != len(n.inner) {
		return fmt.Errorf("cut has %d internal nodes, inner lists %d", len(inner), len(n.inner))
	}
	for p, hash := range n.inner {
		c, err := tree.ComponentAt(n.cfg.Width, p)
		if err != nil || !inner[p] || hash != chord.Hash(c.Name()) {
			return fmt.Errorf("inner[%q] = %d: internal=%v, name hashes to %d (%v)", p, hash, inner[p], chord.Hash(c.Name()), err)
		}
	}
	return nil
}

// samePlacement reports the first difference between where a and b put
// their components and nodes.
func samePlacement(a, b *Network) error {
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != len(bn) {
		return fmt.Errorf("%d nodes against %d", len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return fmt.Errorf("node %d is %d against %d", i, an[i], bn[i])
		}
	}
	if len(a.comps) != len(b.comps) {
		return fmt.Errorf("%d components against %d", len(a.comps), len(b.comps))
	}
	for p, lc := range a.comps {
		if other := b.comps[p]; other == nil || other.host != lc.host || other.st.Total() != lc.st.Total() {
			return fmt.Errorf("%q: host %d total %d against %+v", p, lc.host, lc.st.Total(), other)
		}
	}
	if am, bm := a.Metrics(), b.Metrics(); am.Moves != bm.Moves || am.Splits != bm.Splits || am.Merges != bm.Merges || am.Repairs != bm.Repairs {
		return fmt.Errorf("structural meters %+v against %+v", am, bm)
	}
	return nil
}

// TestLocalReconcileMatchesFullSweep drives a network and its same-seed
// twin through a seeded random schedule of joins, batch joins, leaves,
// crashes, repairs and maintenance with tokens in between. The network
// reconciles a join against the successor and a leave against the leaver;
// the twin sweeps the whole directory by name as every operation used to.
// After every step the placement invariants hold and the two agree on
// every host, total, move and counter value.
func TestLocalReconcileMatchesFullSweep(t *testing.T) {
	var all Metrics
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{Width: 64, Seed: seed, InitialNodes: 6}
		n, twin := mustNew(t, cfg), mustNew(t, cfg)
		nc, tc := mustClient(t, n), mustClient(t, twin)
		rng := rand.New(rand.NewSource(seed))
		victim := func() chord.NodeID {
			ids := n.Nodes()
			return ids[rng.Intn(len(ids))]
		}
		both := func(step int, what string, f func(net *Network, sweep bool) error) {
			t.Helper()
			if err := f(n, false); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, what, err)
			}
			if err := f(twin, true); err != nil {
				t.Fatalf("seed %d step %d %s (twin): %v", seed, step, what, err)
			}
		}
		for step := 0; step < 120; step++ {
			what := ""
			switch op := rng.Intn(10); {
			case op < 2:
				what = "join"
				both(step, what, func(net *Network, sweep bool) error {
					if sweep {
						addNodeFullSweep(net)
					} else {
						net.AddNode()
					}
					return nil
				})
			case op < 4:
				k := 2 + rng.Intn(6)
				what = fmt.Sprintf("batch join of %d", k)
				both(step, what, func(net *Network, sweep bool) error {
					if !sweep {
						net.AddNodes(k)
						return nil
					}
					for i := 0; i < k; i++ {
						addNodeFullSweep(net)
					}
					return nil
				})
			case op < 6 && n.NumNodes() > 2:
				id := victim()
				what = "leave"
				both(step, what, func(net *Network, sweep bool) error {
					if sweep {
						return removeNodeFullSweep(net, id)
					}
					return net.RemoveNode(id)
				})
			case op < 7 && n.NumNodes() > 2:
				id := victim()
				what = "crash"
				both(step, what, func(net *Network, _ bool) error { return net.CrashNode(id) })
			case op < 8:
				what = "stabilize"
				both(step, what, func(net *Network, _ bool) error { _, err := net.Stabilize(); return err })
			default:
				if n.Lost() > 0 {
					what = "stabilize"
					both(step, what, func(net *Network, _ bool) error { _, err := net.Stabilize(); return err })
				}
				what += " maintain"
				both(step, what, func(net *Network, _ bool) error { _, err := net.Maintain(); return err })
			}
			if err := checkPlacement(n); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
			}
			if err := samePlacement(n, twin); err != nil {
				t.Fatalf("seed %d step %d after %s: network against full-sweep twin: %v", seed, step, what, err)
			}
			if n.Lost() > 0 {
				continue // tokens cannot cross a hole in the cut
			}
			for i := 0; i < 40; i++ {
				in := rng.Intn(cfg.Width)
				got, err := nc.InjectAt(in)
				if err != nil {
					t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
				}
				want, err := tc.InjectAt(in)
				if err != nil {
					t.Fatalf("seed %d step %d after %s (twin): %v", seed, step, what, err)
				}
				if got != want {
					t.Fatalf("seed %d step %d after %s: token on wire %d: %+v, twin %+v", seed, step, what, in, got, want)
				}
			}
		}
		if _, err := n.Stabilize(); err != nil {
			t.Fatal(err)
		}
		if err := n.CheckStep(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m := n.Metrics()
		all.Moves, all.Splits, all.Merges, all.Repairs = all.Moves+m.Moves, all.Splits+m.Splits, all.Merges+m.Merges, all.Repairs+m.Repairs
	}
	if all.Moves < 100 || all.Splits == 0 || all.Merges == 0 || all.Repairs == 0 {
		t.Fatalf("the schedules exercised too little: %+v", all)
	}
	t.Logf("%d moves, %d splits, %d merges, %d repairs", all.Moves, all.Splits, all.Merges, all.Repairs)
}

// TestAddNodesIsOneOperation: a batch join ends exactly where the same
// joins one by one end — node identifiers, hosts, moves, counter values —
// and costs one exclusive acquisition of the structural lock and one epoch.
func TestAddNodesIsOneOperation(t *testing.T) {
	cfg := Config{Width: 64, Seed: 5, InitialNodes: 8}
	n, twin := mustNew(t, cfg), mustNew(t, cfg)
	for _, net := range []*Network{n, twin} {
		if _, err := net.MaintainToFixpoint(100); err != nil {
			t.Fatal(err)
		}
	}
	nc, tc := mustClient(t, n), mustClient(t, twin)
	injectBoth(t, nc, tc, 4, "before the joins")

	m0, e0 := n.Metrics(), n.TopologyEpoch()
	batch := n.AddNodes(16)
	if m := n.Metrics().Sub(m0); m.StructHolds != 1 || n.TopologyEpoch() != e0+1 {
		t.Fatalf("AddNodes(16) took %d exclusive acquisitions and %d epochs, want 1 and 1", m.StructHolds, n.TopologyEpoch()-e0)
	}
	m0, e0 = twin.Metrics(), twin.TopologyEpoch()
	for i, want := range batch {
		if got := twin.AddNode(); got != want {
			t.Fatalf("join %d: batch made node %d, one by one %d", i, want, got)
		}
	}
	if m := twin.Metrics().Sub(m0); m.StructHolds != 16 || twin.TopologyEpoch() != e0+16 || m.Moves == 0 {
		t.Fatalf("16 x AddNode took %d acquisitions, %d epochs, %d moves", m.StructHolds, twin.TopologyEpoch()-e0, m.Moves)
	}
	if err := samePlacement(n, twin); err != nil {
		t.Fatalf("batch against one by one: %v", err)
	}
	if err := checkPlacement(n); err != nil {
		t.Fatal(err)
	}
	injectBoth(t, nc, tc, 4, "after the joins")
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishSharesUnchangedDirectory: an operation that moves components
// but creates and removes none publishes the previous snapshot's map; one
// that changes the component set publishes a fresh one.
func TestPublishSharesUnchangedDirectory(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 2, InitialNodes: 8})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	same := func(a, b *topology) bool {
		return reflect.ValueOf(a.comps).Pointer() == reflect.ValueOf(b.comps).Pointer()
	}
	t0 := n.topo.Load()
	n.AddNodes(4)
	if _, err := n.RemoveRandomNode(); err != nil {
		t.Fatal(err)
	}
	t1 := n.topo.Load()
	if t1.epoch != t0.epoch+2 || !same(t0, t1) {
		t.Fatalf("a join and a leave: epochs %d -> %d, directory shared: %v", t0.epoch, t1.epoch, same(t0, t1))
	}
	if n.Metrics().Moves == 0 {
		t.Fatal("the joins moved nothing")
	}
	n.AddNodes(40)
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	if t2 := n.topo.Load(); same(t1, t2) || len(t2.comps) == len(t1.comps) {
		t.Fatalf("growth published the old directory (%d -> %d components)", len(t1.comps), len(t2.comps))
	}
	if err := checkPlacement(n); err != nil {
		t.Fatal(err)
	}
}

// TestStructHoldAccounting: every membership, maintenance and repair
// operation is one exclusive hold; with a registry each is timed into
// core.struct.hold.seconds and Metrics.StructHoldNanos, without one the
// clock is never read; tokens, audits and fault injection are not holds.
func TestStructHoldAccounting(t *testing.T) {
	for _, reg := range []*obs.Registry{obs.NewRegistry(), nil} {
		n := mustNew(t, Config{Width: 16, Seed: 3, InitialNodes: 12, Obs: reg})
		want := uint64(0)
		op := func(what string, f func() error) {
			t.Helper()
			if err := f(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want++; n.Metrics().StructHolds != want {
				t.Fatalf("after %s: %d holds, want %d", what, n.Metrics().StructHolds, want)
			}
		}
		op("MaintainToFixpoint", func() error { _, err := n.MaintainToFixpoint(32); return err })
		op("AddNodes", func() error { n.AddNodes(3); return nil })
		op("AddNode", func() error { n.AddNode(); return nil })
		op("Maintain", func() error { _, err := n.Maintain(); return err })
		op("RemoveRandomNode", func() error { _, err := n.RemoveRandomNode(); return err })
		op("CrashRandomNode", func() error { _, err := n.CrashRandomNode(); return err })
		op("Stabilize", func() error { _, err := n.Stabilize(); return err })

		injectSeq(t, mustClient(t, n), 0, 50)
		if _, err := n.Audit(true); err != nil {
			t.Fatal(err)
		}
		if err := n.RemoveNode(12345); err == nil {
			t.Fatal("removing an unknown node succeeded")
		}
		want++ // a refused operation still held the lock to find out
		m := n.Metrics()
		if m.StructHolds != want {
			t.Fatalf("%d holds after tokens, an audit and a refused leave, want %d", m.StructHolds, want)
		}
		if reg == nil {
			if m.StructHoldNanos != 0 {
				t.Fatalf("no registry, yet %d ns of holds were timed", m.StructHoldNanos)
			}
			continue
		}
		h := reg.Snapshot().Histograms["core.struct.hold.seconds"]
		if uint64(h.Count) != want || m.StructHoldNanos == 0 {
			t.Fatalf("%d hold samples and %d ns for %d holds", h.Count, m.StructHoldNanos, want)
		}
		if sum := h.Raw.Sum * 1e9; sum < 0.99*float64(m.StructHoldNanos) || sum > 1.01*float64(m.StructHoldNanos) {
			t.Fatalf("histogram sums to %.0f ns, Metrics to %d", sum, m.StructHoldNanos)
		}
	}
}

// TestProtocolMetersPinned: the protocol's meters over a fixed seeded run —
// 5 000 tokens around a growth that splits, a shrinkage that merges and a
// lone join — are the constants the run produced before structural
// operations and the cold path were rewritten (PR 24's parent commit). The
// cold path may get cheaper; it may not try, look up, hit or miss
// differently.
func TestProtocolMetersPinned(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 28, InitialNodes: 24})
	fix := func() {
		t.Helper()
		if _, err := n.MaintainToFixpoint(100); err != nil {
			t.Fatal(err)
		}
	}
	fix()
	c := mustClient(t, n)
	var sum Metrics
	next := 0
	inject := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			tr, err := c.InjectAt(next * 37 % 64)
			if err != nil {
				t.Fatal(err)
			}
			next++
			tally(&sum, tr)
		}
	}
	inject(1000)
	n.AddNodes(8) // growth: 5 splits
	fix()
	inject(1500)
	for i := 0; i < 8; i++ { // shrinkage: 4 merges
		if _, err := n.RemoveRandomNode(); err != nil {
			t.Fatal(err)
		}
	}
	fix()
	inject(1500)
	n.AddNode() // a join on its own: moves, no maintenance
	inject(1000)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	want := Metrics{Tokens: 5000, EntryTries: 8167, WireHops: 23752, NameLookups: 70, LookupHops: 201,
		CacheHits: 18679, CacheMisses: 12, LCacheHits: 8200, LCacheMisses: 70}
	if sum != want {
		t.Fatalf("sum of traces %+v, pinned %+v", sum, want)
	}
	got := n.Metrics()
	if got.Splits != 7 || got.Merges != 4 || got.Moves != 16 || got.MaintainRuns != 7 || got.MsgsSent != 479 {
		t.Fatalf("structural meters %+v, pinned 7 splits, 4 merges, 16 moves, 7 rounds, 479 messages", got)
	}
}

// TestColdPathAllocations pins what re-resolving costs in objects. Input
// reconstruction for a width-256 split allocates per call, not per wire and
// level. A cold hop whose neighbour the component remembers allocates
// nothing; one that has to ask the (warm) lookup cache allocates its
// address record and the chain's key; the slot array comes once per
// component.
func TestColdPathAllocations(t *testing.T) {
	n, _, c, _ := memoTwins(t, 1<<10, 24, 2, 7) // the uniform cut at level 2: 24 components of width 256
	injectSeq(t, c, 0, 4<<10)

	wide := n.comps["20"].st.Comp // a MERGER[256] fed by the MIX children of both BITONIC[512]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := n.inputCountsLocked(wide); err != nil {
			t.Fatal(err)
		}
	}); wide.Width != 256 || allocs > 4 {
		t.Fatalf("input reconstruction of %v allocates %.0f objects", wide, allocs)
	}

	n.mu.RLock()
	defer n.mu.RUnlock()
	topo := n.topo.Load()
	var tr TokenTrace
	// Output wire 0 of a component that feeds another one.
	var from *liveComp
	for _, lc := range topo.comps {
		if next, _, err := n.hop(topo, lc, 0, &tr, nil); err == nil && next != nil {
			from = lc
			break
		}
	}
	if from == nil {
		t.Fatal("no component forwards wire 0 to another component")
	}
	coldHop := func(forget func()) float64 {
		return testing.AllocsPerRun(50, func() {
			forget()
			if next, _, err := n.resolveNext(topo, from, 0, &tr, nil); err != nil || next == nil {
				t.Fatalf("resolveNext: %v, %v", next, err)
			}
		})
	}
	if allocs := coldHop(func() { (*from.slots.Load())[0].Store(nil) }); allocs != 0 {
		t.Fatalf("a cold hop to a remembered neighbour allocates %.0f objects", allocs)
	}
	if allocs := coldHop(func() { from.nbrs = from.nbrs[:0] }); allocs > 2 {
		t.Fatalf("a cold hop through the lookup cache allocates %.0f objects", allocs)
	}
	if allocs := coldHop(func() { from.nbrs = from.nbrs[:0]; from.slots.Store(nil) }); allocs > 4 {
		t.Fatalf("the first hop out of a component allocates %.0f objects", allocs)
	}
}
