package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chord"
	"repro/internal/tree"
)

// memoTwins builds two identically seeded networks forced to the uniform
// cut at the given level: one with the memos on, one with DisableCache (no
// memo of any kind), each with one client. Equal seeds give equal rings, so
// the same structural operation can be replayed on both and the uncached
// twin serves as the routing oracle.
func memoTwins(t *testing.T, width, nodes, level int, seed int64) (memo, ref *Network, mc, rc *Client) {
	t.Helper()
	mk := func(disable bool) (*Network, *Client) {
		n := mustNew(t, Config{Width: width, Seed: seed, InitialNodes: nodes, DisableCache: disable})
		err := structural(n, func() error {
			for {
				var shallow []tree.Path
				for p := range n.comps {
					if p.Level() < level {
						shallow = append(shallow, p)
					}
				}
				if len(shallow) == 0 {
					return nil
				}
				for _, p := range shallow {
					if err := n.splitLocked(p, false); err != nil {
						return err
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, mustClient(t, n)
	}
	memo, mc = mk(false)
	ref, rc = mk(true)
	return memo, ref, mc, rc
}

// structural runs f as one structural operation of n.
func structural(n *Network, f func() error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.publishLocked()
	return f()
}

// injectBoth sends rounds round-robin sweeps over every input wire through
// both twins and fails on the first token whose (OutWire, Value) differs.
func injectBoth(t *testing.T, mc, rc *Client, rounds int, when string) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for in := 0; in < mc.net.cfg.Width; in++ {
			got, err := mc.InjectAt(in)
			if err != nil {
				t.Fatalf("%s: memo twin: %v", when, err)
			}
			want, err := rc.InjectAt(in)
			if err != nil {
				t.Fatalf("%s: uncached twin: %v", when, err)
			}
			if got.OutWire != want.OutWire || got.Value != want.Value || got.WireHops != want.WireHops {
				t.Fatalf("%s: round %d wire %d: memo twin (out %d, value %d, %d hops), uncached twin (out %d, value %d, %d hops)",
					when, r, in, got.OutWire, got.Value, got.WireHops, want.OutWire, want.Value, want.WireHops)
			}
		}
	}
}

// tally adds one token's trace to the Metrics fields tokens feed.
func tally(m *Metrics, tr TokenTrace) {
	m.Tokens++
	m.WireHops += uint64(tr.WireHops)
	m.NameLookups += uint64(tr.NameLookups)
	m.LookupHops += uint64(tr.LookupHops)
	m.EntryTries += uint64(tr.EntryTries)
	m.CacheHits += uint64(tr.CacheHits)
	m.CacheMisses += uint64(tr.CacheMisses)
	m.LCacheHits += uint64(tr.LCacheHits)
	m.LCacheMisses += uint64(tr.LCacheMisses)
}

// wireRef names one output wire of one component.
type wireRef struct {
	lc *liveComp
	o  int
}

// memosInto lists the output wires of live components memoized to target
// and the input wires whose entry memo is target.
func memosInto(n *Network, target *liveComp) (wires []wireRef, entries []int) {
	for _, lc := range n.comps {
		slots := lc.slots.Load()
		if slots == nil {
			continue
		}
		for o := range *slots {
			if m := (*slots)[o].Load(); m != nil && m.next == target {
				wires = append(wires, wireRef{lc, o})
			}
		}
	}
	for in := range n.entry {
		if n.entry[in].Load() == target {
			entries = append(entries, in)
		}
	}
	return wires, entries
}

// TestMemoStaleness memoizes a neighbor (or an entry), invalidates it in
// each of the ways the structure can change under a memo, and checks the
// next tokens over those wires still count exactly as the uncached twin's
// do, that every wire that pointed at the old component was re-resolved to
// a live one, and that a removed component dropped its own slots.
func TestMemoStaleness(t *testing.T) {
	// On the uniform level-2 cut of BITONIC[16], "00" is an input component
	// and "20" (an entry child of the top merger) is fed only by non-sibling
	// components, so merging its parent leaves its in-neighbors standing.
	targets := []struct {
		name string
		path tree.Path
	}{{"entry", "00"}, {"neighbor", "20"}}
	cases := []struct {
		name    string
		removes bool // the operation replaces the target's liveComp
		do      func(n *Network, p tree.Path, host chord.NodeID) error
	}{
		{"split", true, func(n *Network, p tree.Path, _ chord.NodeID) error {
			return structural(n, func() error { return n.splitLocked(p, false) })
		}},
		{"merge away", true, func(n *Network, p tree.Path, _ chord.NodeID) error {
			parent, _, _ := p.Parent()
			return structural(n, func() error { return n.mergeLocked(parent) })
		}},
		{"move", false, func(n *Network, _ tree.Path, host chord.NodeID) error {
			return n.RemoveNode(host)
		}},
		{"crash and stabilize", true, func(n *Network, _ tree.Path, host chord.NodeID) error {
			if err := n.CrashNode(host); err != nil {
				return err
			}
			_, err := n.Stabilize()
			return err
		}},
		{"split then merge back", true, func(n *Network, p tree.Path, _ chord.NodeID) error {
			return structural(n, func() error {
				if err := n.splitLocked(p, false); err != nil {
					return err
				}
				return n.mergeLocked(p)
			})
		}},
	}
	for _, tg := range targets {
		for _, tc := range cases {
			t.Run(tg.name+"/"+tc.name, func(t *testing.T) {
				memo, ref, mc, rc := memoTwins(t, 16, 16, 2, 5)
				injectBoth(t, mc, rc, 8, "warm-up")

				old := memo.comps[tg.path]
				if old == nil {
					t.Fatalf("no live component at %q", tg.path)
				}
				oldHost := old.host
				wires, entries := memosInto(memo, old)
				if tg.name == "entry" && len(entries) == 0 || tg.name == "neighbor" && len(wires) == 0 {
					t.Fatalf("warm-up memoized nothing into %q (%d wires, %d entries)", tg.path, len(wires), len(entries))
				}
				for _, n := range []*Network{memo, ref} {
					if err := tc.do(n, tg.path, oldHost); err != nil {
						t.Fatal(err)
					}
				}

				if old.removed != tc.removes {
					t.Fatalf("old component removed = %v, want %v", old.removed, tc.removes)
				}
				if tc.removes && old.slots.Load() != nil {
					t.Fatal("a removed component kept its slot array")
				}
				if !tc.removes && old.host == oldHost {
					t.Fatal("the move left the component on its host")
				}

				injectBoth(t, mc, rc, 8, "after "+tc.name)

				checked := 0
				for _, w := range wires {
					if w.lc.removed {
						continue // the operation took the in-neighbor too
					}
					m := (*w.lc.slots.Load())[w.o].Load()
					if m.next == nil || m.next.removed || uint64(m.next.host) != m.host.Load() ||
						memo.comps[m.next.st.Comp.Path] != m.next {
						t.Fatalf("wire %d of %v still holds a stale memo into %v", w.o, w.lc.st.Comp, m.next)
					}
					checked++
				}
				if len(wires) > 0 && checked == 0 {
					t.Fatal("no in-neighbor of the target survived; the memo refresh went unchecked")
				}
				for _, in := range entries {
					m := memo.entry[in].Load()
					if m.removed || memo.comps[m.st.Comp.Path] != m || m.resolvedAt.Load() != memo.ring.Version() {
						t.Fatalf("input wire %d still holds a stale entry memo: %v", in, m.st.Comp)
					}
				}
				for _, n := range []*Network{memo, ref} {
					if err := n.CheckStep(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestMemoMatchesUncachedAcrossChurn replays one seeded schedule of token
// bursts and membership changes on a memoizing network and on its uncached
// twin: every token must leave on the same wire with the same value.
func TestMemoMatchesUncachedAcrossChurn(t *testing.T) {
	memo, ref, mc, rc := memoTwins(t, 32, 6, 0, 21)
	rng := rand.New(rand.NewSource(22))
	for step := 0; step < 40; step++ {
		op := rng.Intn(4)
		for _, n := range []*Network{memo, ref} {
			var err error
			switch op {
			case 0:
				n.AddNodes(3)
			case 1:
				if n.NumNodes() > 2 {
					_, err = n.RemoveRandomNode()
				}
			case 2:
				if n.NumNodes() > 2 {
					if _, err = n.CrashRandomNode(); err == nil {
						_, err = n.Stabilize()
					}
				}
			}
			if err == nil {
				_, err = n.MaintainToFixpoint(100)
			}
			if err != nil {
				t.Fatalf("step %d op %d: %v", step, op, err)
			}
		}
		injectBoth(t, mc, rc, 2, fmt.Sprintf("step %d (op %d)", step, op))
	}
	mm, rm := memo.Metrics(), ref.Metrics()
	if mm.Splits == 0 || mm.Merges == 0 || mm.Moves == 0 || mm.Repairs == 0 {
		t.Fatalf("schedule exercised too little: %+v", mm)
	}
	if mm.Tokens != rm.Tokens || mm.WireHops != rm.WireHops {
		t.Fatalf("twins diverged: memo %d tokens / %d hops, uncached %d / %d", mm.Tokens, mm.WireHops, rm.Tokens, rm.WireHops)
	}
	if mm.CacheHits == 0 || mm.NameLookups >= rm.NameLookups {
		t.Fatalf("memos saved nothing: memo %+v, uncached %+v", mm, rm)
	}
}

// TestWarmTokenMetering pins what a warm token reports on a static cut —
// one memoized entry (one try, one lookup-cache hit) and a cache hit per
// forward, no lookups — and that Metrics, Metrics.Sub and LookupCacheStats
// are the sums of those traces across more clients than there are stripes.
func TestWarmTokenMetering(t *testing.T) {
	memo, _, mc, rc := memoTwins(t, 64, 16, 2, 9)
	injectBoth(t, mc, rc, 32, "warm-up")

	clients := []*Client{mc}
	for len(clients) <= numStripes {
		c := mustClient(t, memo)
		// A fresh client walks the entry chain once; after that it
		// remembers the level and is warm.
		if _, err := c.InjectAt(0); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	m0, l0 := memo.Metrics(), memo.LookupCacheStats()
	var want Metrics
	for i, c := range clients {
		for in := i % 4; in < 64; in += 4 {
			tr, err := c.InjectAt(in)
			if err != nil {
				t.Fatal(err)
			}
			if tr.WireHops < 2 || tr.CacheHits != tr.WireHops-1 || tr.EntryTries != 1 || tr.LCacheHits != 1 ||
				tr.NameLookups != 0 || tr.LookupHops != 0 || tr.CacheMisses != 0 || tr.LCacheMisses != 0 {
				t.Fatalf("client %d wire %d: warm token reported %+v", i, in, tr)
			}
			tally(&want, tr)
		}
	}
	if got := memo.Metrics().Sub(m0); got != want {
		t.Fatalf("Metrics delta %+v, sum of traces %+v", got, want)
	}
	if hits := memo.LookupCacheStats().Hits - l0.Hits; hits != want.LCacheHits {
		t.Fatalf("LookupCacheStats counted %d hits, traces %d", hits, want.LCacheHits)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := mc.InjectAt(5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm InjectAt allocates %.1f objects per token", allocs)
	}
}

// TestMemosUnderConcurrentChurn runs four clients beside a churner that
// joins, leaves and re-runs maintenance, so memo publication and validation
// race real structural changes (meaningful under -race and -cpu > 1). At
// quiescence counting is exact, values are unique and the striped counters
// add up to what the clients' traces reported.
func TestMemosUnderConcurrentChurn(t *testing.T) {
	n := mustNew(t, Config{Width: 64, Seed: 13, InitialNodes: 4})
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 3000
	traces := make([][]TokenTrace, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		c := mustClient(t, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr, err := c.Inject()
				if err != nil {
					t.Error(err)
					return
				}
				traces[g] = append(traces[g], tr)
			}
		}()
	}
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 0; i < 12; i++ {
			if i%4 < 2 {
				n.AddNodes(3)
			} else if _, err := n.RemoveRandomNode(); err != nil {
				t.Error(err)
				return
			}
			if _, err := n.MaintainToFixpoint(100); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-churned
	if t.Failed() {
		return
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, workers*per)
	var want Metrics
	for _, trs := range traces {
		for _, tr := range trs {
			if seen[tr.Value] {
				t.Fatalf("counter value %d issued twice", tr.Value)
			}
			seen[tr.Value] = true
			tally(&want, tr)
		}
	}
	got := n.Metrics()
	if got.Splits == 0 || got.Moves == 0 {
		t.Fatalf("churn drove no splits or moves: %+v", got)
	}
	got.Splits, got.Merges, got.Moves, got.MaintainRuns = 0, 0, 0, 0
	got.StructHolds, got.StructHoldNanos = 0, 0
	got.MsgsSent = 0
	if got != want {
		t.Fatalf("Metrics %+v, sum of traces %+v", got, want)
	}
}
