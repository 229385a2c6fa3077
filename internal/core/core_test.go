package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/tree"
)

func mustNew(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustClient(t *testing.T, n *Network) *Client {
	t.Helper()
	c, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// injectSeq injects count tokens sequentially and verifies the counter
// values are exactly 0,1,2,... (the distributed-counter contract under
// sequential use).
func injectSeq(t *testing.T, c *Client, start, count int) {
	t.Helper()
	w := c.net.cfg.Width
	for i := start; i < start+count; i++ {
		tr, err := c.Inject()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Value != uint64(i) {
			t.Fatalf("token %d got value %d (out wire %d, %d comps, %d nodes)",
				i, tr.Value, tr.OutWire, c.net.NumComponents(), c.net.NumNodes())
		}
		if tr.OutWire != i%w {
			t.Fatalf("token %d exited wire %d, want %d", i, tr.OutWire, i%w)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Width: 7}); err == nil {
		t.Fatal("invalid width accepted")
	}
	if _, err := New(Config{Width: 8, InitialNodes: -1}); err == nil {
		t.Fatal("negative node count accepted")
	}
}

func TestSingleNodeSingleComponent(t *testing.T) {
	n := mustNew(t, Config{Width: 16, Seed: 1})
	if n.NumNodes() != 1 || n.NumComponents() != 1 {
		t.Fatalf("nodes/comps = %d/%d, want 1/1", n.NumNodes(), n.NumComponents())
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 40)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.Tokens != 40 {
		t.Fatalf("tokens = %d, want 40", m.Tokens)
	}
}

func TestMaintainSplitsAsSystemGrows(t *testing.T) {
	n := mustNew(t, Config{Width: 256, Seed: 2})
	c := mustClient(t, n)
	injectSeq(t, c, 0, 100)

	n.AddNodes(63) // 64 nodes
	rounds, err := n.MaintainToFixpoint(50)
	if err != nil {
		t.Fatal(err)
	}
	if rounds == 0 {
		t.Fatal("expected structural changes after growth")
	}
	if n.NumComponents() < 6 {
		t.Fatalf("components = %d, expected the network to split", n.NumComponents())
	}
	if err := n.Cut().Validate(256); err != nil {
		t.Fatalf("cut invalid after maintenance: %v", err)
	}
	// The counter sequence continues unbroken across the reconfiguration.
	injectSeq(t, c, 100, 200)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainMergesAsSystemShrinks(t *testing.T) {
	n := mustNew(t, Config{Width: 256, Seed: 3, InitialNodes: 128})
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	grown := n.NumComponents()
	c := mustClient(t, n)
	injectSeq(t, c, 0, 300)

	for n.NumNodes() > 2 {
		if _, err := n.RemoveRandomNode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	if n.NumComponents() >= grown {
		t.Fatalf("components did not shrink: %d -> %d", grown, n.NumComponents())
	}
	if n.Metrics().Merges == 0 {
		t.Fatal("expected merges during shrink")
	}
	injectSeq(t, c, 300, 300)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestLemma34ComponentLevelsWithinNodeLevels: after convergence, every
// live component's level lies within [min l_v, max l_v].
func TestLemma34ComponentLevelsWithinNodeLevels(t *testing.T) {
	for _, nodes := range []int{8, 64, 256} {
		n := mustNew(t, Config{Width: 1 << 14, Seed: int64(nodes), InitialNodes: nodes})
		if _, err := n.MaintainToFixpoint(80); err != nil {
			t.Fatal(err)
		}
		levels, err := n.NodeLevels()
		if err != nil {
			t.Fatal(err)
		}
		lmin, lmax := levels[0], levels[0]
		for _, l := range levels {
			if l < lmin {
				lmin = l
			}
			if l > lmax {
				lmax = l
			}
		}
		for _, cl := range n.ComponentLevels() {
			// Leaves may sit above every node's level if the tree bottoms
			// out; every other component must respect the invariant.
			if cl > lmax && cl < tree.MaxLevel(n.Width()) {
				t.Fatalf("nodes=%d: component level %d above max node level %d", nodes, cl, lmax)
			}
			if cl < lmin {
				t.Fatalf("nodes=%d: component level %d below min node level %d", nodes, cl, lmin)
			}
		}
	}
}

// TestLemma33LevelEstimateRange: node level estimates are within l* +- 4.
func TestLemma33LevelEstimateRange(t *testing.T) {
	n := mustNew(t, Config{Width: 1 << 14, Seed: 9, InitialNodes: 512})
	levels, err := n.NodeLevels()
	if err != nil {
		t.Fatal(err)
	}
	lstar := estimate.IdealLevel(512, 1<<14)
	for _, l := range levels {
		if l < lstar-4 || l > lstar+4 {
			t.Fatalf("node level %d outside l* +- 4 (l* = %d)", l, lstar)
		}
	}
}

// TestLemma35ComponentCounts: total components Theta(N) and per-node
// counts are small after convergence.
func TestLemma35ComponentCounts(t *testing.T) {
	nodes := 256
	n := mustNew(t, Config{Width: 1 << 14, Seed: 4, InitialNodes: nodes})
	if _, err := n.MaintainToFixpoint(80); err != nil {
		t.Fatal(err)
	}
	comps := n.NumComponents()
	if comps < nodes/243 || comps > 1296*nodes {
		t.Fatalf("components = %d for %d nodes, outside Lemma 3.5's [N/6^5, 6^4 N]", comps, nodes)
	}
	perNode := n.ComponentsPerNode()
	maxPer := 0
	total := 0
	for _, k := range perNode {
		total += k
		if k > maxPer {
			maxPer = k
		}
	}
	if total != comps {
		t.Fatalf("per-node sum %d != components %d", total, comps)
	}
	// O(log N / log log N) with a generous constant.
	logN := math.Log2(float64(nodes))
	bound := int(8*logN/math.Log2(logN)) + 4
	if maxPer > bound {
		t.Fatalf("max components per node = %d, above bound %d", maxPer, bound)
	}
}

// TestTheorem36WidthDepth: effective depth O(log^2 N) and effective width
// within the theorem's shape for a converged network.
func TestTheorem36WidthDepth(t *testing.T) {
	nodes := 128
	n := mustNew(t, Config{Width: 1 << 14, Seed: 5, InitialNodes: nodes})
	if _, err := n.MaintainToFixpoint(80); err != nil {
		t.Fatal(err)
	}
	depth, err := n.EffectiveDepth()
	if err != nil {
		t.Fatal(err)
	}
	width, err := n.EffectiveWidth()
	if err != nil {
		t.Fatal(err)
	}
	log2N := math.Log2(float64(nodes))
	if float64(depth) > 3*log2N*log2N {
		t.Fatalf("depth %d not O(log^2 N) (log^2 N = %.0f)", depth, log2N*log2N)
	}
	if width < 2 {
		t.Fatalf("width %d: expected real parallelism at N=%d", width, nodes)
	}
	// l* - 4 lower bound from Lemma 2.3 + Lemma 3.3.
	lstar := estimate.IdealLevel(nodes, 1<<14)
	if lb := lstar - 4; lb > 0 && width < 1<<lb {
		t.Fatalf("width %d below 2^(l*-4) = %d", width, 1<<lb)
	}
}

func TestCounterContinuesAcrossChurn(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 6})
	c := mustClient(t, n)
	token := 0
	step := func(count int) {
		injectSeq(t, c, token, count)
		token += count
	}
	step(50)
	n.AddNodes(15)
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	step(50)
	n.AddNodes(48)
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	step(50)
	for i := 0; i < 40; i++ {
		if _, err := n.RemoveRandomNode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	step(50)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().Moves == 0 {
		t.Fatal("expected component moves during churn")
	}
}

func TestCrashAndStabilize(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 7, InitialNodes: 32})
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 100)

	crashed := 0
	for i := 0; i < 5; i++ {
		if _, err := n.CrashRandomNode(); err != nil {
			t.Fatal(err)
		}
		crashed++
	}
	if n.Lost() == 0 {
		t.Skip("crashed nodes hosted no components; rerun with another seed")
	}
	repaired, err := n.Stabilize()
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 || uint64(repaired) != n.Metrics().Repairs {
		t.Fatalf("repaired = %d, metrics say %d", repaired, n.Metrics().Repairs)
	}
	if n.Lost() != 0 {
		t.Fatalf("still %d lost components", n.Lost())
	}
	// The repaired network continues the exact counter sequence: the
	// reconstruction recovered every lost component's state exactly.
	injectSeq(t, c, 100, 100)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainRefusesWithLostComponents(t *testing.T) {
	n := mustNew(t, Config{Width: 32, Seed: 8, InitialNodes: 16})
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	for n.Lost() == 0 {
		if _, err := n.CrashRandomNode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Maintain(); err == nil {
		t.Fatal("Maintain should refuse while components are lost")
	}
	if _, err := n.Stabilize(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Maintain(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveErrors(t *testing.T) {
	n := mustNew(t, Config{Width: 8, Seed: 10})
	if err := n.RemoveNode(12345); err == nil {
		t.Fatal("removing unknown node should fail")
	}
	id := n.Nodes()[0]
	if err := n.RemoveNode(id); err == nil {
		t.Fatal("removing the last node should fail")
	}
	if err := n.CrashNode(id); err == nil {
		t.Fatal("crashing the last node should fail")
	}
}

func TestEntryTriesBounded(t *testing.T) {
	n := mustNew(t, Config{Width: 256, Seed: 11, InitialNodes: 64})
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	bound := tree.MaxLevel(256) + 2 // leaf + every ancestor + remembered try
	for i := 0; i < 200; i++ {
		tr, err := c.Inject()
		if err != nil {
			t.Fatal(err)
		}
		if tr.EntryTries > bound {
			t.Fatalf("entry tries %d above bound %d", tr.EntryTries, bound)
		}
	}
}

func TestCacheReducesLookups(t *testing.T) {
	run := func(disable bool) Metrics {
		n := mustNew(t, Config{Width: 128, Seed: 12, InitialNodes: 32, DisableCache: disable})
		if _, err := n.MaintainToFixpoint(50); err != nil {
			t.Fatal(err)
		}
		c := mustClient(t, n)
		for i := 0; i < 400; i++ {
			if _, err := c.Inject(); err != nil {
				t.Fatal(err)
			}
		}
		return n.Metrics()
	}
	withCache := run(false)
	without := run(true)
	if withCache.NameLookups >= without.NameLookups {
		t.Fatalf("cache did not reduce lookups: %d vs %d", withCache.NameLookups, without.NameLookups)
	}
	if withCache.CacheHits == 0 {
		t.Fatal("expected cache hits")
	}
}

func TestDisableMergeAblation(t *testing.T) {
	n := mustNew(t, Config{Width: 256, Seed: 13, InitialNodes: 64, DisableMerge: true})
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	grown := n.NumComponents()
	for n.NumNodes() > 2 {
		if _, err := n.RemoveRandomNode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.MaintainToFixpoint(50); err != nil {
		t.Fatal(err)
	}
	if n.NumComponents() < grown {
		t.Fatalf("merge-disabled network shrank: %d -> %d", grown, n.NumComponents())
	}
	if n.Metrics().Merges != 0 {
		t.Fatal("merges happened despite DisableMerge")
	}
}

func TestOutNeighborCountsSmall(t *testing.T) {
	n := mustNew(t, Config{Width: 1 << 12, Seed: 14, InitialNodes: 128})
	if _, err := n.MaintainToFixpoint(80); err != nil {
		t.Fatal(err)
	}
	counts, err := n.OutNeighborCounts()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, k := range counts {
		sum += k
		if k > 8 {
			t.Fatalf("component with %d out-neighbors; expected O(1)", k)
		}
	}
	if len(counts) == 0 || sum == 0 {
		t.Fatal("no component graph")
	}
}

func TestInjectAtValidation(t *testing.T) {
	n := mustNew(t, Config{Width: 8, Seed: 15})
	c := mustClient(t, n)
	if _, err := c.InjectAt(-1); err == nil {
		t.Fatal("negative wire accepted")
	}
	if _, err := c.InjectAt(8); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

func TestAuditCleanNetwork(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 20, InitialNodes: 32})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 100)
	bad, err := n.Audit(false)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("clean network reported %d inconsistencies", bad)
	}
}

func TestAuditDetectsAndRepairsCorruption(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 21, InitialNodes: 32})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 100)

	// Corrupt three components (transient memory faults).
	cut := n.Cut().Paths()
	if len(cut) < 3 {
		t.Skip("network too small to corrupt three components")
	}
	for i, p := range cut[:3] {
		if err := n.InjectFault(p, uint64(1000+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := n.Audit(false)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("audit missed the corruption")
	}
	repaired, err := n.Audit(true)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("audit repaired nothing")
	}
	// A single topological sweep must fully heal the network...
	if bad, err = n.Audit(false); err != nil || bad != 0 {
		t.Fatalf("network not healed: %d inconsistencies, err=%v", bad, err)
	}
	// ...and the counter continues exactly where it left off.
	injectSeq(t, c, 100, 100)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectFaultUnknownPath(t *testing.T) {
	n := mustNew(t, Config{Width: 8, Seed: 22})
	if err := n.InjectFault("3", 1); err == nil {
		t.Fatal("fault injection on a non-live path should fail")
	}
}

// TestDeterminism: identical configuration implies identical metrics and
// structure — the property every experiment table relies on.
func TestDeterminism(t *testing.T) {
	run := func() (Metrics, int, int) {
		n := mustNew(t, Config{Width: 512, Seed: 77, InitialNodes: 48})
		if _, err := n.MaintainToFixpoint(100); err != nil {
			t.Fatal(err)
		}
		c := mustClient(t, n)
		for i := 0; i < 200; i++ {
			if _, err := c.Inject(); err != nil {
				t.Fatal(err)
			}
		}
		return n.Metrics(), n.NumComponents(), n.NumNodes()
	}
	m1, c1, n1 := run()
	m2, c2, n2 := run()
	if m1 != m2 || c1 != c2 || n1 != n2 {
		t.Fatalf("non-deterministic run: %+v/%d/%d vs %+v/%d/%d", m1, c1, n1, m2, c2, n2)
	}
}

func TestAccessors(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 30, InitialNodes: 8})
	if n.Width() != 64 {
		t.Fatalf("width = %d", n.Width())
	}
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 50)
	loads := n.TokenLoadPerNode()
	var total uint64
	for _, l := range loads {
		total += l
	}
	if total != n.Metrics().WireHops {
		t.Fatalf("per-node loads sum %d != wire hops %d", total, n.Metrics().WireHops)
	}
	ests, err := n.SizeEstimates()
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != n.NumNodes() {
		t.Fatalf("estimates for %d nodes, want %d", len(ests), n.NumNodes())
	}
	for _, e := range ests {
		if e < 0.8 || e > 80 {
			t.Fatalf("size estimate %v wildly off for 8 nodes", e)
		}
	}
}

// TestTokenLoadSumsToWireHops pins TokenLoadPerNode as exact although no
// token counts it: read off the component totals, the per-node loads sum to
// the wire hops the tokens metered across joins (moves), splits, a merge
// and both injection paths, and a fault and its repair add no load.
func TestTokenLoadSumsToWireHops(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 31, InitialNodes: 2})
	c := mustClient(t, n)
	check := func(when string) {
		t.Helper()
		var sum uint64
		for _, l := range n.TokenLoadPerNode() {
			sum += l
		}
		if hops := n.Metrics().WireHops; sum != hops {
			t.Fatalf("%s: per-node loads sum to %d, wire hops %d", when, sum, hops)
		}
	}
	inject := func(when string) {
		t.Helper()
		ins := make([]int, 100)
		for i := range ins {
			if _, err := c.Inject(); err != nil {
				t.Fatal(err)
			}
			ins[i] = 7 * i % 64
		}
		if _, err := c.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
		check(when)
	}

	inject("root cut")
	n.AddNodes(30)
	inject("after joins")
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	inject("after splits")
	n.AddNodes(10)
	inject("after more joins")
	// No join lowers an estimate enough to merge, so merge the deepest split
	// component directly.
	var deepest tree.Path
	for p := range n.inner {
		if len(p) > len(deepest) || len(p) == len(deepest) && p < deepest {
			deepest = p
		}
	}
	if err := structural(n, func() error { return n.mergeLocked(deepest) }); err != nil {
		t.Fatal(err)
	}
	inject("after a merge")
	if m := n.Metrics(); m.Moves == 0 || m.Splits == 0 || m.Merges == 0 {
		t.Fatalf("vacuous: %d moves, %d splits, %d merges", m.Moves, m.Splits, m.Merges)
	}

	if err := n.InjectFault(n.Cut().Paths()[0], 1<<20); err != nil {
		t.Fatal(err)
	}
	check("after a fault")
	if fixed, err := n.Audit(true); err != nil || fixed == 0 {
		t.Fatalf("audit repaired %d: %v", fixed, err)
	}
	check("after its repair")
	inject("after the repair")
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestWidthExhausted: when N far exceeds the parallelism the width can
// express, levels clamp at the leaves and the network stabilizes as the
// fully expanded cut; maintenance still converges and counting still works.
func TestWidthExhausted(t *testing.T) {
	n := mustNew(t, Config{Width: 8, Seed: 40, InitialNodes: 256})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	if got, want := n.NumComponents(), len(tree.LeafCut(8)); got != want {
		t.Fatalf("components = %d, want fully expanded %d", got, want)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 64)
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	// Further maintenance is a no-op.
	changed, err := n.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("maintenance changed a bottomed-out network")
	}
}

// TestConcurrentClients: multiple clients injecting from goroutines get
// globally unique values and leave a step-consistent network.
func TestConcurrentClients(t *testing.T) {
	n := mustNew(t, Config{Width: 128, Seed: 41, InitialNodes: 32})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 150
	values := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client, err := n.NewClient()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				tr, err := client.Inject()
				if err != nil {
					t.Error(err)
					return
				}
				values[g] = append(values[g], tr.Value)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, vs := range values {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("duplicate counter value %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("distinct values = %d, want %d", len(seen), workers*per)
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestClientReattachesAfterAccessPointLeaves: a client whose overlay
// access point departs transparently reattaches to another node.
func TestClientReattachesAfterAccessPointLeaves(t *testing.T) {
	n := mustNew(t, Config{Width: 32, Seed: 42, InitialNodes: 4})
	c := mustClient(t, n)
	injectSeq(t, c, 0, 10)
	// Remove the client's access point specifically.
	if err := n.RemoveNode(c.at); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	injectSeq(t, c, 10, 10)
}

func TestMetricsSub(t *testing.T) {
	n := mustNew(t, Config{Width: 8, Seed: 1, InitialNodes: 8})
	if _, err := n.MaintainToFixpoint(32); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	before := n.Metrics()
	injectSeq(t, c, 0, 20)
	delta := n.Metrics().Sub(before)
	if delta.Tokens != 20 {
		t.Fatalf("delta.Tokens = %d, want 20", delta.Tokens)
	}
	if delta.Splits != 0 || delta.MaintainRuns != 0 {
		t.Fatalf("injection-only phase shows structural work: %+v", delta)
	}
	if delta.WireHops == 0 || delta.EntryTries == 0 {
		t.Fatalf("injection-only phase shows no routing work: %+v", delta)
	}
	zero := n.Metrics().Sub(n.Metrics())
	if zero != (Metrics{}) {
		t.Fatalf("self-difference not zero: %+v", zero)
	}
}

func TestObservabilityWiring(t *testing.T) {
	reg := obs.NewRegistry()
	n := mustNew(t, Config{Width: 8, Seed: 2, InitialNodes: 8,
		Obs: reg, TraceEvery: 1, TraceRetain: 16})
	if _, err := n.MaintainToFixpoint(32); err != nil {
		t.Fatal(err)
	}
	c := mustClient(t, n)
	injectSeq(t, c, 0, 30)

	snap := reg.Snapshot()
	m := n.Metrics()
	for name, want := range map[string]int{
		"core.token.seconds":    int(m.Tokens),
		"core.token.wirehops":   int(m.Tokens),
		"core.token.lookups":    int(m.Tokens),
		"core.token.entrytries": int(m.Tokens),
		"chord.lookup.hops":     0, // just present; count checked below
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q missing from registry", name)
		}
		if want > 0 && h.Count != want {
			t.Fatalf("%s count = %d, want %d", name, h.Count, want)
		}
	}
	// Aggregate consistency: the wire-hop histogram total equals the counter.
	wh := snap.Histograms["core.token.wirehops"].Raw
	if got := uint64(wh.Sum); got != m.WireHops {
		t.Fatalf("wirehops histogram sum %d != metric %d", got, m.WireHops)
	}
	// Every lookup the network issued passed through the chord histogram
	// (maintenance estimates don't issue lookups; tokens do).
	if got := snap.Histograms["chord.lookup.hops"].Count; uint64(got) != m.NameLookups {
		t.Fatalf("chord hop samples %d != NameLookups %d", got, m.NameLookups)
	}
	if snap.Histograms["core.split.seconds"].Count == 0 {
		t.Fatal("maintenance splits were not timed")
	}

	tr := n.Tracer()
	if tr == nil {
		t.Fatal("TraceEvery set but Tracer() is nil")
	}
	if tr.Sampled() != 30 {
		t.Fatalf("sampled %d spans with TraceEvery=1 and 30 tokens", tr.Sampled())
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("retained %d spans, want TraceRetain=16", len(spans))
	}
	for _, s := range spans {
		kinds := map[string]int{}
		for _, e := range s.Events {
			kinds[e.Kind]++
		}
		if kinds["entry-try"] == 0 || kinds["comp"] == 0 || kinds["exit"] != 1 {
			t.Fatalf("span missing journey events: %v", kinds)
		}
		if kinds["lookup"] == 0 && kinds["cache-hit"] == 0 {
			t.Fatalf("span shows neither lookups nor cache hits: %v", kinds)
		}
	}
}

func TestRepairTimingInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	n := mustNew(t, Config{Width: 8, Seed: 3, InitialNodes: 12, Obs: reg})
	if _, err := n.MaintainToFixpoint(32); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CrashRandomNode(); err != nil {
		t.Fatal(err)
	}
	if n.Lost() == 0 {
		t.Skip("crashed node hosted no components")
	}
	repaired, err := n.Stabilize()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Histograms["core.repair.seconds"].Count; got != repaired {
		t.Fatalf("repair timing samples = %d, want %d", got, repaired)
	}
}
