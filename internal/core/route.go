package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/tree"
)

// TokenTrace reports the per-token protocol costs of one injection.
type TokenTrace struct {
	// Value is the counter value the token carries out: for the m-th token
	// emitted on output wire j, the value is m*w + j.
	Value uint64
	// OutWire is the network output wire.
	OutWire int
	// EntryTries is the number of names tried to find a live input
	// component (Section 3.5: at most log(w)-1).
	EntryTries int
	// WireHops is the number of components the token passed through.
	WireHops int
	// NameLookups is the number of DHT lookups issued for this token.
	NameLookups int
	// LookupHops is the number of overlay hops those lookups cost.
	LookupHops int
	// CacheHits and CacheMisses count out-neighbor cache use.
	CacheHits, CacheMisses int
	// LCacheHits and LCacheMisses count DHT lookup-cache use: a hit
	// resolved a name with zero overlay messages (and is therefore not
	// counted in NameLookups/LookupHops), a miss fell through to a real
	// metered lookup.
	LCacheHits, LCacheMisses int
}

// Client injects tokens into the network. It remembers the input component
// it last used (Section 3.5: "if it remembers the component that it had
// sent its previous tokens to") and issues its DHT lookups from a fixed
// overlay node, the client's access point.
//
// A Client is not safe for concurrent use — it models one token-issuing
// process. Concurrent load comes from many clients: each goroutine makes
// its own with NewClient, and their injections proceed in parallel (tokens
// hold the network's structural lock only in read mode).
type Client struct {
	net *Network
	rng *rand.Rand
	at  chord.NodeID
	// atVersion is the ring membership version at was last checked
	// against: the access point can only have left if it moved since.
	atVersion uint64
	// lastLevel is the tree level of the input component the previous
	// token entered through; hasLast is false until there was one.
	lastLevel int
	hasLast   bool
	// stripe receives this client's per-token protocol counters and holds
	// the structural lock in read mode for its tokens.
	stripe *tokenStripe
	// sinceYield counts InjectAt calls since the client last yielded its
	// processor (see yieldEvery).
	sinceYield int
}

// NewClient creates a client whose lookups start at a random overlay node.
func (n *Network) NewClient() (*Client, error) {
	n.rngMu.Lock()
	at, err := n.ring.RandomNode(n.rng)
	seed := n.rng.Int63()
	n.rngMu.Unlock()
	if err != nil {
		return nil, err
	}
	stripe := &n.stripes[n.nextStripe.Add(1)%numStripes]
	return &Client{net: n, rng: rand.New(rand.NewSource(seed)), at: at, stripe: stripe}, nil
}

// Inject sends one token into a random input wire and returns its trace.
func (c *Client) Inject() (TokenTrace, error) {
	return c.InjectAt(c.rng.Intn(c.net.cfg.Width))
}

// yieldEvery is how many tokens a client injects between two yields of its
// processor. A warm InjectAt never blocks, so a client that injects back to
// back never enters the scheduler, and with as many such clients as
// processors nothing else does either: timers fire when the runtime's
// 10 ms preemption tick comes round, and the membership and maintenance
// goroutines they wake run late and bunched. One yield per 256 tokens (a
// few hundred microseconds of warm injection, under a nanosecond per token)
// keeps those wake-ups on time.
const yieldEvery = 256

// InjectAt sends one token into the given network input wire.
//
// The traversal is designed to run concurrently with other tokens: the
// structural lock is held in read mode on the client's own stripe (tokens
// never exclude each other), entry and every hop follow a memo
// (Network.enter, Network.hop), wire assignment is the component's
// lock-free compare-and-swap, and the protocol counters go to the client's
// stripe too. What a warm token writes that other clients' tokens also
// write is only what counting needs: the CAS word of each component it
// passes and the injected/out counters of its two network wires.
func (c *Client) InjectAt(in int) (TokenTrace, error) {
	n := c.net
	if in < 0 || in >= n.cfg.Width {
		return TokenTrace{}, fmt.Errorf("core: input wire %d out of range [0,%d)", in, n.cfg.Width)
	}
	if c.sinceYield++; c.sinceYield == yieldEvery {
		c.sinceYield = 0
		runtime.Gosched()
	}
	defer n.mu.runlockStriped(c.stripe, n.mu.rlockStriped(c.stripe))
	t := n.topo.Load()
	if err := c.reattach(); err != nil {
		return TokenTrace{}, err
	}

	sp := n.tracer.Start("token")
	var start time.Time
	if sp != nil || n.hTokE2E != nil {
		start = time.Now()
	}

	var tr TokenTrace
	lc, err := n.enter(t, c, in, &tr, sp)
	if err != nil {
		return TokenTrace{}, err
	}
	n.injected[in].Add(1)

	for {
		tr.WireHops++
		o, ok := lc.st.TryStep()
		if !ok {
			// Unreachable: core freezes components only under the exclusive
			// structural lock, which cannot be held while tokens traverse.
			return TokenTrace{}, fmt.Errorf("core: component %v frozen mid-route", lc.st.Comp)
		}
		if sp != nil {
			sp.Event("comp", string(lc.st.Comp.Path), int64(o))
		}
		next, netOut, err := n.hop(t, lc, o, &tr, sp)
		if err != nil {
			return TokenTrace{}, err
		}
		if next == nil {
			tr.OutWire = netOut
			m := n.out[netOut].Add(1) - 1
			tr.Value = m*uint64(n.cfg.Width) + uint64(netOut)
			c.stripe.add(1, &tr)
			if n.hTokE2E != nil {
				n.hTokE2E.Observe(time.Since(start).Seconds())
				n.hTokWire.Observe(float64(tr.WireHops))
				n.hTokLook.Observe(float64(tr.NameLookups))
				n.hTokTry.Observe(float64(tr.EntryTries))
			}
			if sp != nil {
				sp.Event("exit", fmt.Sprintf("wire %d value %d", netOut, tr.Value), int64(tr.WireHops))
				sp.Finish()
			}
			return tr, nil
		}
		lc = next
	}
}

// reattach moves the client to a random access point if its own left the
// ring. Membership is re-read only when the ring's version moved since the
// last check. The caller holds the structural lock (read mode suffices:
// membership changes only under the exclusive lock).
func (c *Client) reattach() error {
	ring := c.net.ring
	v := ring.Version()
	if v == c.atVersion {
		return nil
	}
	if !ring.Contains(c.at) {
		at, err := ring.RandomNode(c.rng)
		if err != nil {
			return err
		}
		c.at = at
	}
	c.atVersion = v
	return nil
}

// enter locates the live input component covering input wire in. Warm, it
// is answered by the wire's entry memo: the remembered component is still
// live, its name has been resolved since the ring last changed (so the
// lookup cache would answer for it), and it sits at the level this client
// would try first — exactly the case in which findEntry would spend one try
// and one lookup-cache hit, which is how the memo hit is metered. Anything
// else is findEntry's metered search, whose result refreshes the memo of
// every input wire the found component covers: the memo check above holds
// for each of them exactly when findEntry, starting from that wire, would
// also have spent one try and one lookup-cache hit on the same name.
func (n *Network) enter(t *topology, c *Client, in int, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	if n.entry == nil {
		return n.findEntry(t, c, in, tr, sp)
	}
	// The structural read lock pins the membership version for the whole
	// injection, so v is also the version findEntry resolves at.
	v := n.ring.Version()
	m := n.entry[in].Load()
	if m != nil && !m.removed && m.resolvedAt.Load() == v && c.hasLast && c.lastLevel == m.st.Comp.Level() {
		tr.EntryTries++
		tr.LCacheHits++
		c.stripe.entryMemoHits.Add(1)
		n.cLCHits.Inc()
		if sp != nil {
			key := string(m.st.Comp.Path)
			sp.Event("entry-try", key, 0)
			sp.Event("lookup-cached", key, 0)
		}
		return m, nil
	}
	lc, err := n.findEntry(t, c, in, tr, sp)
	if err != nil {
		return nil, err
	}
	if lc.resolvedAt.Load() != v {
		lc.resolvedAt.Store(v)
	}
	if m != lc {
		for j := range lc.st.Comp.Width {
			if netIn, ok := lc.st.Comp.NetInput(j); ok {
				n.entry[netIn].Store(lc)
			}
		}
	}
	return lc, nil
}

// lookup meters one DHT lookup for the component name at path p issued
// from node at, and returns the component if it is live in snapshot t (nil
// if not). The lookup cache absorbs repeat resolutions: a hit costs zero
// overlay messages and is excluded from the NameLookups/LookupHops meters,
// which count only lookups the ring actually performed.
func (n *Network) lookup(t *topology, at chord.NodeID, p tree.Path, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	key := string(p)
	_, v, ok := n.lcache.Get(key)
	if ok {
		tr.LCacheHits++
		if sp != nil {
			sp.Event("lookup-cached", key, 0)
		}
		return t.comps[p], nil
	}
	c, err := tree.ComponentAt(n.cfg.Width, p)
	if err != nil {
		return nil, err
	}
	owner, hops, err := n.ring.Lookup(at, chord.Hash(c.Name()))
	if err != nil {
		return nil, err
	}
	tr.NameLookups++
	tr.LookupHops += hops
	if n.lcache != nil {
		tr.LCacheMisses++
		// v carries the pre-lookup membership version; Put drops the entry
		// if churn raced the lookup.
		n.lcache.Put(v, key, owner)
	}
	if sp != nil {
		sp.Event("lookup", key, int64(hops))
	}
	return t.comps[p], nil
}

// findEntry locates the live input component covering input wire in by
// trying names on the input balancer's ancestor chain (Section 3.5 bounds
// this by the chain length).
func (n *Network) findEntry(t *topology, c *Client, in int, tr *TokenTrace, sp *obs.Span) (*liveComp, error) {
	n.coldResolves.Add(1)
	// The input balancer for wire in is a pure function of the width,
	// precomputed at construction.
	leaf := n.entryLeaf(in)
	maxLevel := len(leaf)

	try := func(lvl int) (*liveComp, error) {
		p := leaf[:lvl]
		tr.EntryTries++
		if sp != nil {
			sp.Event("entry-try", string(p), 0)
		}
		lc, err := n.lookup(t, c.at, p, tr, sp)
		if lc != nil {
			c.lastLevel, c.hasLast = lvl, true
		}
		return lc, err
	}

	// The unique live component covering the leaf is at exactly one level
	// of its ancestor chain. A client that remembers where its previous
	// token entered tries that level first, then zigzags outward — in
	// steady state one try suffices; a fresh client walks the chain from
	// the leaf upward (at most log(w) tries, Section 3.5). The tried-set
	// is a bitmask: levels are < 64 for any realizable width.
	if c.hasLast {
		last := c.lastLevel
		var tried uint64
		for delta := 0; delta <= maxLevel; delta++ {
			for _, lvl := range []int{last + delta, last - delta} {
				if lvl < 0 || lvl > maxLevel || tried&(1<<uint(lvl)) != 0 {
					continue
				}
				tried |= 1 << uint(lvl)
				if lc, err := try(lvl); lc != nil || err != nil {
					return lc, err
				}
				if delta == 0 {
					break // the two candidates coincide
				}
			}
		}
		return nil, fmt.Errorf("core: no input component covers wire %d", in)
	}

	for lvl := maxLevel; lvl >= 0; lvl-- {
		if lc, err := try(lvl); lc != nil || err != nil {
			return lc, err
		}
	}
	return nil, fmt.Errorf("core: no input component covers wire %d", in)
}

// hop resolves where a token leaving component lc on output wire o goes:
// the next live component, or (next == nil) the network exit wire netOut.
// It is the one forwarding step of both InjectAt and InjectBatch.
//
// Warm, it is the Section 3.5 direct send: the wire's memo is lc's address
// record of the next component, and the send succeeds if that component is
// still in the network on the host the record names — fields only
// structural operations and bounced tokens write. A network exit is pure
// wire algebra and never goes stale. A missing or stale memo falls through
// to resolveNext, which meters the bounce and memoizes the fresh
// resolution; with DisableCache no memo is ever published, so every hop
// takes that path.
func (n *Network) hop(t *topology, lc *liveComp, o int, tr *TokenTrace, sp *obs.Span) (next *liveComp, netOut int, err error) {
	if slots := lc.slots.Load(); slots != nil {
		if m := (*slots)[o].Load(); m != nil {
			if m.next == nil {
				return nil, m.netOut, nil
			}
			if !m.next.removed && uint64(m.next.host) == m.host.Load() {
				tr.CacheHits++
				if sp != nil {
					sp.Event("cache-hit", string(m.next.st.Comp.Path), 0)
				}
				return m.next, 0, nil
			}
		}
	}
	return n.resolveNext(t, lc, o, tr, sp)
}

// resolveNext is hop's cold path: it resolves output wire o of lc from the
// wire algebra and lc's out-neighbor address cache, and memoizes the
// answer.
//
// The wire algebra is lc's row (tree.Chain.OutRow: where each wire climbs
// out to), built by the first cold hop out of lc; the DHT is needed only to
// learn which component below the sibling the wire enters is live and where
// it is hosted. A cached neighbor on the wire's chain therefore forwards
// with zero lookups; a stale entry bounces (metered as a cache miss) and
// triggers a fresh resolution.
func (n *Network) resolveNext(t *topology, lc *liveComp, o int, tr *TokenTrace, sp *obs.Span) (next *liveComp, netOut int, err error) {
	n.coldResolves.Add(1)
	row := lc.row.Load()
	if row == nil {
		if row, err = n.buildRow(lc); err != nil {
			return nil, 0, err
		}
	}
	h := row.Next[o]
	if h.Exited() { // memoized by buildRow
		return nil, int(h.Wire), nil
	}
	return n.descendToLive(t, lc, row, h, tr, sp)
}

// buildRow resolves lc's row and installs it; when a concurrent token
// installed one first, both use that one. It memoizes every exit wire at
// once: an exit is pure wire algebra, never stale and never metered.
func (n *Network) buildRow(lc *liveComp) (*tree.Row, error) {
	var ch tree.Chain
	if err := ch.Resolve(n.cfg.Width, lc.st.Comp.Path); err != nil {
		return nil, err
	}
	row := ch.OutRow()
	if !lc.row.CompareAndSwap(nil, &row) {
		return lc.row.Load(), nil
	}
	if !n.cfg.DisableCache {
		slots := lc.slotArray()
		for o, h := range row.Next {
			if h.Exited() {
				slots[o].Store(&n.exits[h.Wire])
			}
		}
	}
	return &row, nil
}

// descendToLive finds the live component on the chain of a wire of lc that
// enters row sibling h.Comp on its input wire h.Wire — the sibling and its
// entry descendants along that wire, of which the cut holds one —
// consulting the sender's neighbor cache before issuing DHT lookups, and
// memoizes the record it ends at on every wire of lc that leads to it. The
// neighbor cache is guarded by the sending component's own mutex (lock
// striping): tokens leaving different components never contend.
func (n *Network) descendToLive(t *topology, lc *liveComp, row *tree.Row, h tree.Hop, tr *TokenTrace, sp *obs.Span) (*liveComp, int, error) {
	sib, in := row.Sibs[h.Comp], int(h.Wire)
	// moved is the record of a neighbor that is live but no longer where
	// lc remembers it; re-resolving it rewrites the record in place.
	var moved *nbrAddr
	if !n.cfg.DisableCache {
		lc.nbrsMu.Lock()
		// Try the records on the chain from the top down, as a probe of
		// every chain level would meet them.
		for from := len(sib.Path); ; {
			i := lc.nbrOnChainLocked(sib, in, from)
			if i < 0 {
				break
			}
			m := lc.nbrs[i]
			p := m.next.st.Comp.Path
			got := t.comps[p]
			if got != nil && uint64(got.host) == m.host.Load() {
				if m.next != got { // removed and re-created at the same path
					m = newNbrAddr(got)
					lc.nbrs[i] = m
				}
				lc.nbrsMu.Unlock()
				tr.CacheHits++
				if sp != nil {
					sp.Event("cache-hit", string(p), 0)
				}
				lc.fill(row, h.Comp, m)
				return got, 0, nil
			}
			// Stale: the direct send bounces; re-resolve below.
			tr.CacheMisses++
			if sp != nil {
				sp.Event("cache-miss", string(p), 0)
			}
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

	// Cold or stale: walk the chain with metered DHT lookups. The lookup
	// cache keeps the keys it is given, so the chain becomes a string here.
	var buf [tree.MaxPathLen]byte
	chain := tree.Path(sib.InputLeaf(in, buf[:]))
	for k := len(sib.Path); k <= len(chain); k++ {
		got, err := n.lookup(t, lc.host, chain[:k], tr, sp)
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
			lc.fill(row, h.Comp, m)
		}
		return got, 0, nil
	}
	return nil, 0, fmt.Errorf("core: no live component covers %v wire %d", sib, in)
}

// fill memoizes m on every output wire of lc whose climb enters row
// sibling sib and whose chain holds m's component. These are the wires a
// later cold hop would resolve to m with one cache hit, which is what a
// memo hit meters, so the fill moves no meter: the chains of all of them
// start at the same sibling, and the records the resolution just bounced
// above m are exactly the ones each of them would have met first.
//
// It finds them from m's side, by inverting the wiring from m's input
// wires (tree.Row.Feeders), so a fill visits only the wires it memoizes. A
// slot that already holds m is not written again.
func (lc *liveComp) fill(row *tree.Row, sib int32, m *nbrAddr) {
	slots := lc.slotArray()
	row.Feeders(sib, m.next.st.Comp, func(o int) {
		if slots[o].Load() != m {
			slots[o].Store(m)
		}
	})
}

// nbrOnChainLocked returns the index in lc.nbrs of the record of the
// shallowest component at level from or deeper on the chain of input wire
// in of sib, or -1 if lc remembers none of them.
func (lc *liveComp) nbrOnChainLocked(sib tree.Component, in, from int) int {
	best, bestLen := -1, tree.MaxPathLen+1
	for i, m := range lc.nbrs {
		p := m.next.st.Comp.Path
		if from <= len(p) && len(p) < bestLen && sib.Reaches(in, p) {
			best, bestLen = i, len(p)
		}
	}
	return best
}

// setNbrLocked records m, replacing lc's record of the same neighbor path
// if a concurrent token has left one.
func (lc *liveComp) setNbrLocked(m *nbrAddr) {
	for i, old := range lc.nbrs {
		if old.next.st.Comp.Path == m.next.st.Comp.Path {
			lc.nbrs[i] = m
			return
		}
	}
	lc.nbrs = append(lc.nbrs, m)
}

// newNbrAddr records that lc sits on its current host.
func newNbrAddr(lc *liveComp) *nbrAddr {
	m := &nbrAddr{next: lc}
	m.host.Store(uint64(lc.host))
	return m
}
