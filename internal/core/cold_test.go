package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/component"
	"repro/internal/tree"
)

// This file keeps the cold path as it was before rows and fills — every
// (component, output wire) and every input wire resolved on its own first
// token, tree.Chain.OutChain per wire, one memo per resolution — as a twin
// the row-and-fill path is held to token by token, and as the cost it is
// measured against.

// perWireInject is InjectAt on the per-wire cold path (no spans, no
// histograms, no yields: none of them is metered).
func perWireInject(c *Client, in int) (TokenTrace, error) {
	n := c.net
	defer n.mu.runlockStriped(c.stripe, n.mu.rlockStriped(c.stripe))
	t := n.topo.Load()
	if err := c.reattach(); err != nil {
		return TokenTrace{}, err
	}
	var tr TokenTrace
	lc, err := perWireEnter(n, t, c, in, &tr)
	if err != nil {
		return TokenTrace{}, err
	}
	n.injected[in].Add(1)
	for {
		tr.WireHops++
		o := lc.st.Step()
		next, netOut, err := perWireHop(n, t, lc, o, &tr)
		if err != nil {
			return TokenTrace{}, err
		}
		if next == nil {
			tr.OutWire = netOut
			m := n.out[netOut].Add(1) - 1
			tr.Value = m*uint64(n.cfg.Width) + uint64(netOut)
			c.stripe.add(&tr)
			return tr, nil
		}
		lc = next
	}
}

// perWireEnter is Network.enter memoizing only the wire it resolved.
func perWireEnter(n *Network, t *topology, c *Client, in int, tr *TokenTrace) (*liveComp, error) {
	if n.entry == nil {
		return n.findEntry(t, c, in, tr, nil)
	}
	v := n.ring.Version()
	m := n.entry[in].Load()
	if m != nil && !m.removed && m.resolvedAt.Load() == v && c.hasLast && c.lastLevel == m.st.Comp.Level() {
		tr.EntryTries++
		tr.LCacheHits++
		c.stripe.entryMemoHits.Add(1)
		return m, nil
	}
	lc, err := n.findEntry(t, c, in, tr, nil)
	if err != nil {
		return nil, err
	}
	lc.resolvedAt.Store(v)
	n.entry[in].Store(lc)
	return lc, nil
}

// perWireHop is Network.hop over perWireResolve.
func perWireHop(n *Network, t *topology, lc *liveComp, o int, tr *TokenTrace) (*liveComp, int, error) {
	if slots := lc.slots.Load(); slots != nil {
		if m := (*slots)[o].Load(); m != nil {
			if m.next == nil {
				return nil, m.netOut, nil
			}
			if !m.next.removed && uint64(m.next.host) == m.host.Load() {
				tr.CacheHits++
				return m.next, 0, nil
			}
		}
	}
	return perWireResolve(n, t, lc, o, tr)
}

// perWireResolve resolves output wire o of lc alone: its climb and full
// descent (OutChain), the records on that chain, the metered DHT walk, and
// a memo on o only.
func perWireResolve(n *Network, t *topology, lc *liveComp, o int, tr *TokenTrace) (*liveComp, int, error) {
	n.coldResolves.Add(1)
	var ch tree.Chain
	if err := ch.Resolve(n.cfg.Width, lc.st.Comp.Path); err != nil {
		return nil, 0, err
	}
	var buf [tree.MaxPathLen]byte
	leaf, top, exit, netOut := ch.OutChain(o, buf[:])
	if exit {
		if !n.cfg.DisableCache {
			lc.slotArray()[o].Store(&n.exits[netOut])
		}
		return nil, netOut, nil
	}
	var moved *nbrAddr
	if !n.cfg.DisableCache {
		lc.nbrsMu.Lock()
		for from := top; ; {
			i := nbrOnLeafLocked(lc, leaf, from)
			if i < 0 {
				break
			}
			m := lc.nbrs[i]
			p := m.next.st.Comp.Path
			got := t.comps[p]
			if got != nil && uint64(got.host) == m.host.Load() {
				if m.next != got {
					m = newNbrAddr(got)
					lc.nbrs[i] = m
				}
				lc.nbrsMu.Unlock()
				tr.CacheHits++
				lc.slotArray()[o].Store(m)
				return got, 0, nil
			}
			tr.CacheMisses++
			last := len(lc.nbrs) - 1
			lc.nbrs[i], lc.nbrs[last] = lc.nbrs[last], nil
			lc.nbrs = lc.nbrs[:last]
			if m.next == got {
				moved = m
			}
			from = len(p) + 1
		}
		lc.nbrsMu.Unlock()
	}
	chain := tree.Path(leaf)
	for k := top; k <= len(chain); k++ {
		got, err := n.lookup(t, lc.host, chain[:k], tr, nil)
		if err != nil {
			return nil, 0, err
		}
		if got == nil {
			continue
		}
		if !n.cfg.DisableCache {
			m := moved
			if m != nil && m.next == got {
				m.host.Store(uint64(got.host))
			} else {
				m = newNbrAddr(got)
			}
			lc.nbrsMu.Lock()
			lc.setNbrLocked(m)
			lc.nbrsMu.Unlock()
			lc.slotArray()[o].Store(m)
		}
		return got, 0, nil
	}
	return nil, 0, fmt.Errorf("no live component covers %q", chain[:top])
}

// nbrOnLeafLocked is nbrOnChainLocked over a fully descended chain.
func nbrOnLeafLocked(lc *liveComp, leaf []byte, from int) int {
	best, bestLen := -1, len(leaf)+1
	for i, m := range lc.nbrs {
		p := m.next.st.Comp.Path
		if from <= len(p) && len(p) < bestLen && string(leaf[:len(p)]) == string(p) {
			best, bestLen = i, len(p)
		}
	}
	return best
}

// scanFill is liveComp.fill as a scan of every output wire of lc, walking
// each one that enters the sibling down to m's component
// (tree.Component.Reaches): the twin the fill kernel is held to.
func scanFill(lc *liveComp, row *tree.Row, sib int32, m *nbrAddr) {
	slots := lc.slotArray()
	s, p := row.Sibs[sib], m.next.st.Comp.Path
	for o, h := range row.Next {
		if h.Comp == sib && s.Reaches(int(h.Wire), p) {
			slots[o].Store(m)
		}
	}
}

// TestFillMatchesScan: for every member of every uniform cut up to w 256
// and of random cuts up to w 1024, every sibling its row enters and every
// record it could hold below that sibling, fill (run twice: the second
// finds every slot already holding the record) memoizes the record on
// exactly the wires scanFill does.
func TestFillMatchesScan(t *testing.T) {
	reached, unreached := 0, 0 // records some wire of the component reaches, and the others
	check := func(w int, c tree.Component) {
		t.Helper()
		var ch tree.Chain
		if err := ch.Resolve(w, c.Path); err != nil {
			t.Fatal(err)
		}
		row := ch.OutRow()
		for sib, s := range row.Sibs {
			// s and every component an input wire of s can enter below it.
			recs := []tree.Component{s}
			for i := 0; i < len(recs); i++ {
				if d := recs[i]; !d.IsLeaf() {
					for ci := range 2 {
						recs = append(recs, tree.Component{Kind: d.Kind, Width: d.Width / 2, Path: d.Path.Child(ci)})
					}
				}
			}
			// Each record is a fresh pointer, so the slots that hold it are
			// the ones its fill wrote, whatever earlier records left.
			lc, twin := &liveComp{st: component.New(c)}, &liveComp{st: component.New(c)}
			for _, d := range recs {
				m := newNbrAddr(&liveComp{st: component.New(d)})
				lc.fill(&row, int32(sib), m)
				lc.fill(&row, int32(sib), m)
				scanFill(twin, &row, int32(sib), m)
				filled := 0
				for o := range c.Width {
					got, want := lc.slotArray()[o].Load() == m, twin.slotArray()[o].Load() == m
					if got != want {
						t.Fatalf("w=%d %v: record %v under %v: wire %d memoized %v, by the scan %v", w, c, d, s, o, got, want)
					}
					if got {
						filled++
					}
				}
				if filled == 0 {
					unreached++
				} else {
					reached++
				}
			}
		}
	}
	for w := 2; w <= 256; w *= 2 {
		for level := 0; level <= tree.MaxLevel(w); level++ {
			cut, err := tree.UniformCut(w, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range cut.Paths() {
				c, err := tree.ComponentAt(w, p)
				if err != nil {
					t.Fatal(err)
				}
				check(w, c)
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		w := 256 << (seed % 3)
		rng := rand.New(rand.NewSource(seed))
		for p := range tree.RandomCut(w, 0.3, rng) {
			c, err := tree.ComponentAt(w, p)
			if err != nil {
				t.Fatal(err)
			}
			check(w, c)
		}
	}
	if reached == 0 || unreached == 0 {
		t.Fatalf("%d records reached, %d not", reached, unreached)
	}
	t.Logf("%d records reached, %d not", reached, unreached)
}

// lockstep injects the same wires through a network (InjectAt) and its
// per-wire twin (perWireInject), client by client, and fails on the first
// token whose trace differs in any field.
func lockstep(t *testing.T, cs, ts []*Client, wires []int, when string) {
	t.Helper()
	for k, in := range wires {
		i := k % len(cs)
		got, err := cs[i].InjectAt(in)
		if err != nil {
			t.Fatalf("%s: token %d: %v", when, k, err)
		}
		want, err := perWireInject(ts[i], in)
		if err != nil {
			t.Fatalf("%s: token %d: per-wire twin: %v", when, k, err)
		}
		if got != want {
			t.Fatalf("%s: token %d (client %d, wire %d): %+v, per-wire twin %+v", when, k, i, in, got, want)
		}
	}
}

// coldBudget is what a sweep of n may resolve once the components in
// touched have settled: for each, its row and each neighbor record it now
// holds, and for each entry component among them, its entry search.
func coldBudget(touched []*liveComp) (budget int) {
	for _, lc := range touched {
		budget += 1 + len(lc.nbrs)
		if _, ok := lc.st.Comp.NetInput(0); ok {
			budget++
		}
	}
	return budget
}

// holdsRecordOf lists the live components that hold a neighbor record of
// a component in gone.
func holdsRecordOf(n *Network, gone []*liveComp) (in []*liveComp) {
	for _, lc := range n.comps {
		if slices.ContainsFunc(lc.nbrs, func(m *nbrAddr) bool { return slices.Contains(gone, m.next) }) {
			in = append(in, lc)
		}
	}
	return in
}

// TestColdBudget: on a converged network a sweep over every input wire
// resolves each component once (its row), each neighbor record once and
// each entry component once; its per-wire twin resolves nearly every
// (component, wire) and every input wire, over the budget. After one split
// and after one merge the extra resolutions are bounded by the touched
// components — the new ones and those that held a record of a removed one
// — and their neighbor counts; the twin's are proportional to the removed
// component's width.
func TestColdBudget(t *testing.T) {
	const w = 1 << 10
	mk := func() (*Network, *Client) {
		n := mustNew(t, Config{Width: w, Seed: 3, InitialNodes: 32})
		if _, err := n.MaintainToFixpoint(100); err != nil {
			t.Fatal(err)
		}
		return n, mustClient(t, n)
	}
	n, c := mk()
	twin, tc := mk()
	wires := make([]int, 2*w)
	for i := range wires {
		wires[i] = i % w
	}
	sweep := func(when string) (cold, twinCold int) {
		n0, t0 := n.coldResolves.Load(), twin.coldResolves.Load()
		lockstep(t, []*Client{c}, []*Client{tc}, wires, when)
		return int(n.coldResolves.Load() - n0), int(twin.coldResolves.Load() - t0)
	}
	var all []*liveComp
	sumWidths := 0
	for _, lc := range n.comps {
		all = append(all, lc)
		sumWidths += lc.st.Comp.Width
	}
	cold, twinCold := sweep("warm-up")
	budget := coldBudget(all)
	t.Logf("warm-up: %d components, Σ widths %d, budget %d; cold resolutions %d, per-wire twin %d", len(all), sumWidths, budget, cold, twinCold)
	if cold > budget || twinCold <= budget {
		t.Fatalf("warm-up resolved %d times (per-wire twin %d), budget %d", cold, twinCold, budget)
	}

	// Split a component that other components feed, then merge it back.
	var x tree.Path
	for _, p := range slices.Sorted(func(yield func(tree.Path) bool) {
		for p := range n.comps {
			if !yield(p) {
				return
			}
		}
	}) {
		if lc := n.comps[p]; lc.st.Comp.Width >= 16 && len(holdsRecordOf(n, []*liveComp{lc})) > 0 {
			x = p
			break
		}
	}
	if x == "" {
		t.Fatal("no component fed by another one")
	}
	for _, op := range []struct {
		name string
		do   func(n *Network) error
	}{
		{"split", func(n *Network) error { return n.splitLocked(x, false) }},
		{"merge", func(n *Network) error { return n.mergeLocked(x) }},
	} {
		var gone []*liveComp
		before := make(map[*liveComp]bool, len(n.comps))
		for _, lc := range n.comps {
			before[lc] = true
		}
		for _, nn := range []*Network{n, twin} {
			if err := structural(nn, func() error { return op.do(nn) }); err != nil {
				t.Fatal(err)
			}
		}
		for lc := range before {
			if lc.removed {
				gone = append(gone, lc)
			}
		}
		cold, twinCold := sweep("after " + op.name)
		touched := holdsRecordOf(n, gone) // still-stale records, if any
		for _, lc := range n.comps {
			if !before[lc] || slices.ContainsFunc(lc.nbrs, func(m *nbrAddr) bool { return !before[m.next] }) {
				touched = append(touched, lc)
			}
		}
		budget, width := coldBudget(touched), 0
		for _, lc := range gone {
			width += lc.st.Comp.Width
		}
		t.Logf("%s of %q: %d components removed (Σ widths %d), %d touched, budget %d; cold resolutions %d, per-wire twin %d",
			op.name, x, len(gone), width, len(touched), budget, cold, twinCold)
		if cold == 0 || cold > budget || twinCold <= budget {
			t.Fatalf("%s resolved %d times (per-wire twin %d), budget %d", op.name, cold, twinCold, budget)
		}
	}
}

// TestRowsMatchPerWireTwin runs 24 seeded schedules of joins, leaves,
// crashes with Stabilize, maintenance to a fixpoint and explicit splits and
// merges on a network and its same-seed per-wire twin, with two clients
// each, and requires every token's trace — output wire, value and every
// protocol meter — to be equal. A fill that memoized a wire whose next
// cold hop would have met another record, or missed a bounce, shows as a
// differing CacheHits, CacheMisses or lookup count.
func TestRowsMatchPerWireTwin(t *testing.T) {
	var total Metrics
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			w := 32 << (seed % 3)
			mk := func() (*Network, []*Client) {
				n := mustNew(t, Config{Width: w, Seed: seed, InitialNodes: 4})
				return n, []*Client{mustClient(t, n), mustClient(t, n)}
			}
			n, cs := mk()
			twin, ts := mk()
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 24; step++ {
				op := rng.Intn(6)
				paths := slices.Sorted(func(yield func(tree.Path) bool) {
					for p := range n.comps {
						if !yield(p) {
							return
						}
					}
				})
				pick := paths[rng.Intn(len(paths))]
				for _, nn := range []*Network{n, twin} {
					var err error
					switch op {
					case 0:
						nn.AddNodes(1 + int(seed+int64(step))%3)
					case 1:
						if nn.NumNodes() > 2 {
							_, err = nn.RemoveRandomNode()
						}
					case 2:
						if nn.NumNodes() > 2 {
							if _, err = nn.CrashRandomNode(); err == nil {
								_, err = nn.Stabilize()
							}
						}
					case 3:
						_, err = nn.MaintainToFixpoint(100)
					case 4:
						if !nn.comps[pick].st.Comp.IsLeaf() {
							err = structural(nn, func() error { return nn.splitLocked(pick, false) })
						}
					case 5:
						if parent, _, ok := pick.Parent(); ok {
							err = structural(nn, func() error { return nn.mergeLocked(parent) })
						}
					}
					if err != nil {
						t.Fatalf("step %d op %d: %v", step, op, err)
					}
				}
				wires := make([]int, 3*w)
				for i := range wires {
					wires[i] = rng.Intn(w)
				}
				lockstep(t, cs, ts, wires, fmt.Sprintf("step %d (op %d)", step, op))
			}
			m := n.Metrics()
			if m.Splits == 0 || m.Merges == 0 || m.CacheHits == 0 {
				t.Fatalf("schedule exercised too little: %+v", m)
			}
			if err := n.CheckStep(); err != nil {
				t.Fatal(err)
			}
			total.CacheMisses += m.CacheMisses
			total.Moves += m.Moves
			total.Repairs += m.Repairs
		})
	}
	if total.CacheMisses == 0 || total.Moves == 0 || total.Repairs == 0 {
		t.Fatalf("no schedule bounced a record, moved or repaired a component: %+v", total)
	}
}
