// Package core implements the paper's contribution: an adaptive bitonic
// counting network layered on a Chord-style peer-to-peer overlay
// (Sections 2 and 3).
//
// The network is a cut of the decomposition tree T_w whose components are
// mapped to overlay nodes by the distributed hash function (component b
// lives on node h(b)). Each node locally estimates the system size
// (Section 3.1), derives a level estimate l_v, and maintains the local
// invariant that every component it hosts is at level >= l_v by splitting
// components (Section 3.2); when its level estimate decreases it merges
// components it previously split. Tokens enter through input components
// located by trying at most log(w)-1 names (Section 3.5), traverse
// components over cached out-neighbor addresses, and exit with a counter
// value.
//
// Concurrency model. The paper's whole point (Sections 1 and 2) is that a
// counting network's throughput scales with its width, so between churn
// events a warm token does exactly what Section 3.5 describes — a direct
// send to a cached out-neighbor address: each hop follows one atomically
// published per-output-wire memo to the next component and claims its wire
// with one lock-free compare-and-swap (internal/component); entry is one
// per-input-wire memo. No map is probed, no mutex is taken and no
// process-wide counter is bumped. The writes tokens still share are the
// protocol itself: the CAS word of every component the token passes and
// the per-wire injected/out counters. The structural lock's read mode and
// the per-token protocol counters live on a cache-line-padded stripe
// chosen per Client, and per-node token load is read off the component
// totals rather than counted per hop. Cold or stale
// hops fall back to the metered resolution (per-component neighbor cache
// under a per-component mutex, DHT lookups absorbed by the bounded
// churn-invalidated internal/chord.LookupCache). Structural operations
// (split/merge/churn/repair) are the only writers of the topology: they
// take the network's structural lock exclusively, which drains in-flight
// tokens (tokens hold it in read mode; a token held back by a structural
// operation yields its processor rather than parking, see structLock),
// mutate the authoritative component directory, and publish a fresh
// immutable epoch snapshot. This matches the
// engine's discrete-simulation semantics — every structural operation sees
// a quiescent network, the freeze protocol of Section 2.2 collapsed to a
// reader/writer drain. The message-level asynchronous protocol (freeze
// queues, in-flight draining, non-blocking reconfiguration) is exercised
// separately in internal/dist.
//
// All overlay costs (DHT lookups, their hop counts, inter-component wire
// hops) are metered rather than incurred, so experiments measure the
// protocol, not the host machine.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chord"
	"repro/internal/component"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Config configures an adaptive counting network.
type Config struct {
	// Width is w, the maximum-parallelism width of BITONIC[w]. Must be a
	// power of two >= 2.
	Width int
	// Seed drives all randomness (node identifiers, workload choices).
	Seed int64
	// EstimatorMult is the multiplier in the size estimator's second step
	// (the paper uses 4). Zero means 4.
	EstimatorMult int
	// DisableCache turns off the Section 3.5 caching layer — both the
	// out-neighbor address cache and the DHT lookup cache — so every token
	// forwarding and entry try pays a fresh DHT lookup (E13 ablation).
	DisableCache bool
	// DisableMerge turns off the merge rule (E18 ablation).
	DisableMerge bool
	// InitialNodes is the number of nodes at construction time (>= 1).
	// Zero means 1, the paper's initial state: the whole network on one
	// node.
	InitialNodes int
	// Obs, if non-nil, receives latency and hop-count distributions from
	// every layer: per-token end-to-end seconds, wire hops, lookups, entry
	// tries, split/merge/repair timing, plus the chord ring's lookup
	// histograms and the transport client's RTT/retry distributions. Nil
	// disables distribution collection (the counters in Metrics are always
	// on); the disabled path costs one pointer test per site.
	Obs *obs.Registry
	// TraceEvery enables per-token trace spans, sampling one token in
	// TraceEvery (1 = trace every token). Zero disables tracing. Finished
	// spans are kept in a bounded ring readable via Tracer().
	TraceEvery int
	// TraceRetain bounds how many finished spans the tracer keeps (zero
	// means 64).
	TraceRetain int
}

func (c Config) withDefaults() Config {
	if c.EstimatorMult == 0 {
		c.EstimatorMult = 4
	}
	if c.InitialNodes == 0 {
		c.InitialNodes = 1
	}
	return c
}

// Metrics are cumulative protocol counters.
type Metrics struct {
	Tokens       uint64 // tokens injected (and emitted)
	Splits       uint64 // component splits
	Merges       uint64 // component merges
	WireHops     uint64 // tokens forwarded component-to-component
	NameLookups  uint64 // DHT name lookups issued (cache hits excluded)
	LookupHops   uint64 // overlay hops spent in those lookups
	EntryTries   uint64 // names tried to locate an input component
	CacheHits    uint64 // out-neighbor cache hits
	CacheMisses  uint64 // out-neighbor cache misses (stale or cold)
	LCacheHits   uint64 // DHT lookup-cache hits (lookup avoided entirely)
	LCacheMisses uint64 // DHT lookup-cache misses (fell through to the ring)
	Moves        uint64 // components transferred due to joins/leaves
	Repairs      uint64 // components reconstructed after crashes
	MaintainRuns uint64 // maintenance rounds executed

	// StructHolds counts exclusive acquisitions of the structural lock by
	// membership, maintenance and repair operations; StructHoldNanos sums
	// how long they held it — from acquisition, so what tokens wait for,
	// not the operation's own wait — and is measured only when Config.Obs
	// is set (histogram core.struct.hold.seconds).
	StructHolds     uint64
	StructHoldNanos uint64

	// MsgsSent counts the messages the overlay handed to its in-memory
	// fabric, filled from the ring's NetStats when the snapshot is taken:
	// LookupHops plus estimate probes.
	MsgsSent uint64
}

// Sub returns the field-wise difference m - prev: the activity between two
// Metrics snapshots of the same network. Taking prev before a phase and
// subtracting it after isolates the phase's costs from the cumulative
// totals (per-phase amortized costs, steady-state vs. convergence splits).
func (m Metrics) Sub(prev Metrics) Metrics {
	return Metrics{
		Tokens:       m.Tokens - prev.Tokens,
		Splits:       m.Splits - prev.Splits,
		Merges:       m.Merges - prev.Merges,
		WireHops:     m.WireHops - prev.WireHops,
		NameLookups:  m.NameLookups - prev.NameLookups,
		LookupHops:   m.LookupHops - prev.LookupHops,
		EntryTries:   m.EntryTries - prev.EntryTries,
		CacheHits:    m.CacheHits - prev.CacheHits,
		CacheMisses:  m.CacheMisses - prev.CacheMisses,
		LCacheHits:   m.LCacheHits - prev.LCacheHits,
		LCacheMisses: m.LCacheMisses - prev.LCacheMisses,
		Moves:        m.Moves - prev.Moves,
		Repairs:      m.Repairs - prev.Repairs,
		MaintainRuns: m.MaintainRuns - prev.MaintainRuns,

		StructHolds:     m.StructHolds - prev.StructHolds,
		StructHoldNanos: m.StructHoldNanos - prev.StructHoldNanos,

		MsgsSent: m.MsgsSent - prev.MsgsSent,
	}
}

// counters holds the structural-operation counters of Metrics; the
// per-token counters live on tokenStripes.
type counters struct {
	splits       atomic.Uint64
	merges       atomic.Uint64
	moves        atomic.Uint64
	repairs      atomic.Uint64
	maintainRuns atomic.Uint64

	structHolds     atomic.Uint64
	structHoldNanos atomic.Uint64
}

// numStripes bounds the per-token counter stripes: clients are dealt
// stripes round-robin, so up to numStripes concurrent clients never share
// a counter cache line.
const numStripes = 64

// tokenStripe is one stripe of the per-token protocol counters. Every
// Client adds to the stripe it was dealt at NewClient and Metrics sums
// them, so concurrent clients do not bounce one counter block between
// cores. entryMemoHits counts the lookup-cache hits the entry memo
// answered without consulting the LookupCache (see LookupCacheStats);
// readers counts the stripe's tokens in flight, the structural lock's
// striped read mode. The padding rounds a stripe up to two cache lines,
// keeping adjacent-line prefetch from coupling neighbours.
type tokenStripe struct {
	readers       atomic.Int64
	tokens        atomic.Uint64
	wireHops      atomic.Uint64
	nameLookups   atomic.Uint64
	lookupHops    atomic.Uint64
	entryTries    atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	lcacheHits    atomic.Uint64
	lcacheMisses  atomic.Uint64
	entryMemoHits atomic.Uint64
	_             [128 - 11*8]byte
}

// add folds one token's costs into the stripe.
func (s *tokenStripe) add(tr *TokenTrace) {
	s.tokens.Add(1)
	addNonZero(&s.wireHops, tr.WireHops)
	addNonZero(&s.nameLookups, tr.NameLookups)
	addNonZero(&s.lookupHops, tr.LookupHops)
	addNonZero(&s.entryTries, tr.EntryTries)
	addNonZero(&s.cacheHits, tr.CacheHits)
	addNonZero(&s.cacheMisses, tr.CacheMisses)
	addNonZero(&s.lcacheHits, tr.LCacheHits)
	addNonZero(&s.lcacheMisses, tr.LCacheMisses)
}

// addNonZero spares a warm token the atomics of the meters it left at zero
// (lookups, lookup hops and both miss counters).
func addNonZero(c *atomic.Uint64, v int) {
	if v != 0 {
		c.Add(uint64(v))
	}
}

// liveComp is a component currently in the network. host, node, base and
// removed are written only under the exclusive structural lock, so tokens
// (which hold it in read mode) read them plainly.
type liveComp struct {
	st      *component.State
	hash    chord.NodeID // chord.Hash of the component's name: its ring position
	host    chord.NodeID
	node    *nodeInfo // the per-node view of host
	base    uint64    // st's total when it came onto host (see nodeInfo.served)
	removed bool      // left the directory: split, merged away, or crashed

	// resolvedAt is the ring membership version at which an entry search
	// last resolved this component's name (Network.enter).
	resolvedAt atomic.Uint64

	// slots memoizes, per output wire, where the wire leads: the network
	// exit, or lc's address record of the next live component (Section
	// 3.5's cached out-neighbor address, held as the pointer a direct send
	// would reach). A warm forward is one atomic load and the validity check
	// of Network.hop — no map, no lock, no tree algebra. The array is
	// allocated by the first token that leaves the component, so splits and
	// merges do not pay for wires no token uses, and dropped together with
	// row and nbrs when the component is removed, so a stale memo retains
	// one dead component, never a chain.
	slots atomic.Pointer[[]atomic.Pointer[nbrAddr]]

	// row is where every output wire leads in the wire algebra: the exit,
	// or the sibling subtree and input wire its climb enters
	// (tree.Chain.OutRow). The first cold hop out of the component builds
	// it, under the structural lock's read mode, and installs it by CAS;
	// every later cold hop reads it, and a resolved neighbor record is
	// memoized through it on all the wires that lead to that neighbor
	// (liveComp.fill), so a component pays one resolution per out-neighbor,
	// not one per wire.
	row atomic.Pointer[tree.Row]

	// nbrs is the out-neighbor address cache (Section 3.5: "the addresses
	// of the out-neighbors can be cached"): one record per out-neighbor
	// path, shared by every wire that leads to it. It is consulted only on
	// the cold path: a wire whose memo is missing or stale is re-resolved
	// through it, which is where cache hits after a re-resolution, misses
	// and evictions are metered. A component has O(1) distinct
	// out-neighbors, so it is a short list; records are validated on use
	// and dropped when the neighbor splits or merges.
	nbrsMu sync.Mutex
	nbrs   []*nbrAddr
}

// nbrAddr is what one component remembers about one out-neighbor: the
// neighbor and the host it was last resolved on. next and netOut never
// change; host is rewritten in place when a token bounces off the old
// address and re-resolves the neighbor, which revalidates every wire that
// shares the record at once, as a per-component address cache does. A
// record with next == nil stands for the network exit wire netOut (pure
// wire algebra, never stale; Network.exits holds one per wire).
type nbrAddr struct {
	next   *liveComp
	host   atomic.Uint64 // a chord.NodeID
	netOut int
}

// slotArray returns lc's memo slots, allocating them on first use.
func (lc *liveComp) slotArray() []atomic.Pointer[nbrAddr] {
	slots := lc.slots.Load()
	if slots == nil {
		fresh := make([]atomic.Pointer[nbrAddr], lc.st.Comp.Width)
		if lc.slots.CompareAndSwap(nil, &fresh) {
			slots = &fresh
		} else {
			slots = lc.slots.Load() // a concurrent token installed the array
		}
	}
	return *slots
}

// nodeInfo is the per-node view: structural state, written only under the
// exclusive structural lock. Tokens write none of it. A node's token load
// (the component-processing events it served) is read off the component
// totals instead: served banks the load of components that have left the
// node, and each component still on it adds st.Total() - base
// (TokenLoadPerNode).
type nodeInfo struct {
	comps    map[tree.Path]bool
	level    int
	estimate float64
	served   uint64
}

// topology is one immutable epoch snapshot of the cut. Tokens resolve
// every component and liveness question against one snapshot; structural
// operations publish a fresh snapshot (copy-on-write) instead of mutating
// what tokens see.
type topology struct {
	epoch uint64
	comps map[tree.Path]*liveComp
}

// Network is a simulated adaptive counting network.
type Network struct {
	cfg    Config
	ring   *chord.Ring
	lcache *chord.LookupCache // nil when disabled

	// entryLeaves holds the leaf path of the input balancer covering each
	// network input wire, leafDepth bytes per wire (Network.entryLeaf): the
	// descent from the root is a pure function of the width, so it is
	// precomputed once instead of being re-derived on every injection, and
	// every leaf has the same depth, so all of them share one string.
	entryLeaves string
	leafDepth   int
	// entry[in] memoizes the component input wire `in` last entered
	// through (see Network.enter); nil when the lookup cache is disabled.
	entry []atomic.Pointer[liveComp]
	// exits[j] is the memo of every wire that leaves the network on output
	// wire j; nil when the out-neighbor cache is disabled.
	exits []nbrAddr

	// Observability handles, fixed at construction (nil when cfg.Obs is
	// nil); safe to read without the lock.
	tracer   *obs.Tracer
	hTokE2E  *obs.Hist // per-token injection-to-exit seconds
	hTokWire *obs.Hist // per-token wire hops (components traversed)
	hTokLook *obs.Hist // per-token DHT lookups
	hTokTry  *obs.Hist // per-token entry tries
	hSplit   *obs.Hist // per-split seconds
	hMerge   *obs.Hist // per-merge seconds
	hRepair  *obs.Hist // per-component repair seconds
	hHold    *obs.Hist // per-structural-operation exclusive hold seconds
	// cLCHits is the registry's chord.lcache.hits counter, so entry-memo
	// hits show where the LookupCache's own hits do.
	cLCHits *obs.Counter

	// mu is the structural lock. Tokens hold it in read mode for their
	// whole traversal (concurrent with each other, counted on their
	// client's stripe while no writer holds or waits); structural operations
	// hold it exclusively, so they always observe a quiescent network.
	// comps is the authoritative directory, mutated only under the write
	// lock; topo is its published epoch snapshot, readable lock-free.
	// compsChanged: a component appeared or vanished since that snapshot.
	// inner maps the split-but-unmerged components (the internal nodes of
	// the cut) to their name hashes.
	mu           structLock
	topo         atomic.Pointer[topology]
	comps        map[tree.Path]*liveComp
	compsChanged bool
	inner        map[tree.Path]chord.NodeID
	nodes        map[chord.NodeID]*nodeInfo
	lost         map[tree.Path]bool // components destroyed by crashes, pending repair

	rngMu sync.Mutex
	rng   *rand.Rand

	injected []atomic.Uint64
	out      []atomic.Uint64
	metrics  counters

	// stripes is allocated on its own (numStripes × 128 bytes) so that it
	// starts on a cache-line boundary and no two stripes share a line; mu
	// holds the same slice for its striped read mode.
	stripes    []tokenStripe
	nextStripe atomic.Uint32 // deals stripes to new clients

	// faulted is set, under the exclusive structural lock, by the first
	// InjectFault and never cleared: from then on no split takes the
	// pristine shortcut (pristineLocked).
	faulted bool
	// reconstructions counts inputCountsLocked calls: the per-input-wire
	// reconstructions splits, repairs and audits pay. Not a protocol meter.
	reconstructions atomic.Uint64

	// coldResolves counts the hops and entries a token had to resolve
	// rather than follow a memo (resolveNext and findEntry calls): the cold
	// path's work, which is not a protocol meter.
	coldResolves atomic.Uint64
}

// New creates an adaptive network of the given width with
// cfg.InitialNodes nodes; the entire BITONIC[w] starts as a single root
// component on the owner of its name.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	root, err := tree.Root(cfg.Width)
	if err != nil {
		return nil, err
	}
	if cfg.InitialNodes < 1 {
		return nil, fmt.Errorf("core: InitialNodes %d < 1", cfg.InitialNodes)
	}
	stripes := make([]tokenStripe, numStripes)
	n := &Network{
		mu:       structLock{stripes: stripes},
		stripes:  stripes,
		cfg:      cfg,
		ring:     chord.NewRing(cfg.Seed),
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		comps:    make(map[tree.Path]*liveComp),
		inner:    make(map[tree.Path]chord.NodeID),
		nodes:    make(map[chord.NodeID]*nodeInfo),
		lost:     make(map[tree.Path]bool),
		injected: make([]atomic.Uint64, cfg.Width),
		out:      make([]atomic.Uint64, cfg.Width),
	}
	if !cfg.DisableCache {
		n.lcache = chord.NewLookupCache(n.ring, chord.DefaultLookupCacheSize)
		n.entry = make([]atomic.Pointer[liveComp], cfg.Width)
		n.exits = make([]nbrAddr, cfg.Width)
		for j := range n.exits {
			n.exits[j].netOut = j
		}
	}
	if n.entryLeaves, n.leafDepth, err = tree.EntryLeaves(cfg.Width); err != nil {
		return nil, err
	}
	if reg := cfg.Obs; reg != nil {
		n.ring.Instrument(reg)
		n.lcache.Instrument(reg)
		n.cLCHits = reg.Counter("chord.lcache.hits")
		n.hTokE2E = reg.Histogram("core.token.seconds", 0, 0.01, 1000)
		n.hTokWire = reg.Histogram("core.token.wirehops", 0, 128, 128)
		n.hTokLook = reg.Histogram("core.token.lookups", 0, 64, 64)
		n.hTokTry = reg.Histogram("core.token.entrytries", 0, 32, 32)
		n.hSplit = reg.Histogram("core.split.seconds", 0, 0.01, 200)
		n.hMerge = reg.Histogram("core.merge.seconds", 0, 0.01, 200)
		n.hRepair = reg.Histogram("core.repair.seconds", 0, 0.01, 200)
		n.hHold = reg.Histogram("core.struct.hold.seconds", 0, 0.01, 1000)
	}
	if cfg.TraceEvery > 0 {
		n.tracer = obs.NewTracer(cfg.TraceEvery, cfg.TraceRetain)
		// Registered as a trace source so an instrumented network's spans
		// surface on the registry's /debug/acn/trace Perfetto export.
		cfg.Obs.AddTraceSource(n.tracer.Spans)
	}
	for i := 0; i < cfg.InitialNodes; i++ {
		id := n.ring.Join()
		n.nodes[id] = &nodeInfo{comps: make(map[tree.Path]bool)}
	}
	if err := n.placeLocked(component.New(root)); err != nil {
		return nil, err
	}
	n.publishLocked()
	return n, nil
}

// entryLeaf returns the leaf path of the input balancer covering network
// input wire in.
func (n *Network) entryLeaf(in int) tree.Path {
	return tree.Path(n.entryLeaves[in*n.leafDepth : (in+1)*n.leafDepth])
}

// lockStruct takes the structural lock exclusively for one membership,
// maintenance or repair operation; unlockStruct releases it and accounts
// the hold. Use as `defer n.unlockStruct(n.lockStruct())`. The clock is
// read only when a registry was configured.
func (n *Network) lockStruct() (acquired time.Time) {
	n.mu.Lock()
	n.metrics.structHolds.Add(1)
	if n.hHold != nil {
		acquired = time.Now()
	}
	return acquired
}

func (n *Network) unlockStruct(acquired time.Time) {
	if n.hHold != nil {
		held := time.Since(acquired)
		n.hHold.Observe(held.Seconds())
		n.metrics.structHoldNanos.Add(uint64(held))
	}
	n.mu.Unlock()
}

// publishLocked publishes a fresh immutable snapshot of the authoritative
// component directory. Called at the end of every structural operation
// (under the write lock); tokens pick up the new epoch on their next
// injection. After an operation that created and removed no component (a
// join, a leave, an idle maintenance round) the new snapshot shares the
// last one's map instead of copying the directory.
func (n *Network) publishLocked() {
	old := n.topo.Load()
	t := &topology{epoch: 1}
	if old != nil {
		t.epoch, t.comps = old.epoch+1, old.comps
	}
	if old == nil || n.compsChanged {
		t.comps = make(map[tree.Path]*liveComp, len(n.comps))
		for p, lc := range n.comps {
			t.comps[p] = lc
		}
		n.compsChanged = false
	}
	n.topo.Store(t)
}

// topologyEpoch returns the current snapshot epoch: it increases by one
// per structural operation — one epoch per batch, however many nodes an
// AddNodes joined or rounds a MaintainToFixpoint ran — and is the version
// the routing path resolves against.
func (n *Network) topologyEpoch() uint64 {
	return n.topo.Load().epoch
}

// Width returns the network width w.
func (n *Network) Width() int { return n.cfg.Width }

// NumNodes returns the current number of overlay nodes.
func (n *Network) NumNodes() int { return n.ring.Size() }

// NumComponents returns the current number of live components.
func (n *Network) NumComponents() int {
	return len(n.topo.Load().comps)
}

// Metrics returns a snapshot of the cumulative counters, including the
// overlay transport's message-level counters.
func (n *Network) Metrics() Metrics {
	m := Metrics{
		Splits:       n.metrics.splits.Load(),
		Merges:       n.metrics.merges.Load(),
		Moves:        n.metrics.moves.Load(),
		Repairs:      n.metrics.repairs.Load(),
		MaintainRuns: n.metrics.maintainRuns.Load(),

		StructHolds:     n.metrics.structHolds.Load(),
		StructHoldNanos: n.metrics.structHoldNanos.Load(),
	}
	for i := range n.stripes {
		s := &n.stripes[i]
		m.Tokens += s.tokens.Load()
		m.WireHops += s.wireHops.Load()
		m.NameLookups += s.nameLookups.Load()
		m.LookupHops += s.lookupHops.Load()
		m.EntryTries += s.entryTries.Load()
		m.CacheHits += s.cacheHits.Load()
		m.CacheMisses += s.cacheMisses.Load()
		m.LCacheHits += s.lcacheHits.Load()
		m.LCacheMisses += s.lcacheMisses.Load()
	}
	st, _ := n.ring.NetStats()
	m.MsgsSent = st.Sent
	return m
}

// LookupCacheStats returns the DHT lookup cache's hit/miss/flush counters
// (all zero when the cache is disabled). Hits include the entry
// resolutions the per-input-wire memo answered in the cache's stead.
func (n *Network) LookupCacheStats() chord.LookupCacheStats {
	st := n.lcache.Stats()
	for i := range n.stripes {
		st.Hits += n.stripes[i].entryMemoHits.Load()
	}
	return st
}

// Nodes returns the current overlay node identifiers.
func (n *Network) Nodes() []chord.NodeID { return n.ring.Nodes() }

// Tracer returns the per-token span sampler, or nil when cfg.TraceEvery
// was zero. All Tracer methods are nil-safe.
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// placeLocked inserts a component on the owner of its name.
func (n *Network) placeLocked(st *component.State) error {
	lc := &liveComp{st: st, hash: chord.Hash(st.Comp.Name())}
	host, err := n.ring.Successor(lc.hash)
	if err != nil {
		return err
	}
	n.comps[st.Comp.Path] = lc
	n.compsChanged = true
	n.rehostLocked(st.Comp.Path, lc, host)
	return nil
}

// rehostLocked puts lc (the component at p) on host; the caller has
// already taken it off its previous host's books, if it had one.
func (n *Network) rehostLocked(p tree.Path, lc *liveComp, host chord.NodeID) {
	lc.host, lc.node, lc.base = host, n.nodes[host], lc.st.Total()
	lc.node.comps[p] = true
}

// unhostLocked takes lc (the component at p) off its host's books, banking
// the load it served there.
func (lc *liveComp) unhostLocked(p tree.Path) {
	lc.node.served += lc.st.Total() - lc.base
	delete(lc.node.comps, p)
}

// setTotalLocked overwrites lc's total (a fault, or its repair) without
// counting the jump as load on its host.
func (lc *liveComp) setTotalLocked(total uint64) {
	lc.node.served += lc.st.Total() - lc.base
	lc.st.SetTotal(total)
	lc.base = total
}

// removeCompLocked removes a live component from the directory and marks
// it removed, which is what invalidates every memo that points at it.
func (n *Network) removeCompLocked(p tree.Path) {
	lc := n.comps[p]
	if lc == nil {
		return
	}
	lc.unhostLocked(p)
	delete(n.comps, p)
	n.compsChanged = true
	lc.removed = true
	lc.slots.Store(nil)
	lc.row.Store(nil)
	lc.nbrs = nil
}

// addNode joins one node to the overlay and migrates the components whose
// names it now owns (standard Chord key hand-off; the counting network
// state itself needs no change, Section 3.4).
func (n *Network) addNode() chord.NodeID {
	return n.AddNodes(1)[0]
}

// AddNodes joins k nodes one after the other as one structural operation:
// one exclusive acquisition of the structural lock and one epoch per batch.
func (n *Network) AddNodes(k int) []chord.NodeID {
	defer n.unlockStruct(n.lockStruct())
	defer n.publishLocked()
	out := make([]chord.NodeID, k)
	for i := range out {
		id := n.ring.Join()
		n.nodes[id] = &nodeInfo{comps: make(map[tree.Path]bool)}
		// Consistent hashing: the joiner takes over an arc that its
		// successor owned, so only the successor's components can move.
		if succ, err := n.ring.Successor(id + 1); err == nil {
			n.reconcileLocked(succ)
		}
		out[i] = id
	}
	return out
}

// RemoveNode gracefully removes a node: its components move to their new
// owners (the successor), per Section 3.4. Nothing else moves: the leaver's
// arc is the only one whose owner changed.
func (n *Network) RemoveNode(id chord.NodeID) error {
	defer n.unlockStruct(n.lockStruct())
	if err := n.dropNodeLocked(id, "remove"); err != nil {
		return err
	}
	defer n.publishLocked()
	n.reconcileLocked(id)
	delete(n.nodes, id)
	return nil
}

// dropNodeLocked takes node id out of the ring. Its nodeInfo stays in
// n.nodes until the caller has dealt with its components.
func (n *Network) dropNodeLocked(id chord.NodeID, verb string) error {
	if n.nodes[id] == nil {
		return fmt.Errorf("core: node %d not in network", id)
	}
	if n.ring.Size() == 1 {
		return fmt.Errorf("core: cannot %s the last node", verb)
	}
	return n.ring.Remove(id)
}

// RemoveRandomNode removes a uniformly random node gracefully.
func (n *Network) RemoveRandomNode() (chord.NodeID, error) {
	id, err := n.randomNode()
	if err != nil {
		return 0, err
	}
	return id, n.RemoveNode(id)
}

// CrashNode removes a node without warning: the state of its components is
// lost. The components are reconstructed by Stabilize (Section 3.4,
// "recovering from such faults through self-stabilization").
func (n *Network) CrashNode(id chord.NodeID) error {
	defer n.unlockStruct(n.lockStruct())
	if err := n.dropNodeLocked(id, "crash"); err != nil {
		return err
	}
	defer n.publishLocked()
	for p := range n.nodes[id].comps {
		n.removeCompLocked(p)
		n.lost[p] = true
	}
	delete(n.nodes, id)
	n.reconcileOwnersLocked()
	return nil
}

// CrashRandomNode crashes a uniformly random node.
func (n *Network) CrashRandomNode() (chord.NodeID, error) {
	id, err := n.randomNode()
	if err != nil {
		return 0, err
	}
	return id, n.CrashNode(id)
}

func (n *Network) randomNode() (chord.NodeID, error) {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.ring.RandomNode(n.rng)
}

// reconcileLocked migrates the components on node id whose names id no
// longer owns (Chord key ownership transfer after churn).
func (n *Network) reconcileLocked(id chord.NodeID) {
	for p := range n.nodes[id].comps {
		n.reownLocked(p, n.comps[p])
	}
}

// reconcileOwnersLocked is reconcileLocked over the whole directory, for
// membership changes that are not one join or one graceful leave.
func (n *Network) reconcileOwnersLocked() {
	for p, lc := range n.comps {
		n.reownLocked(p, lc)
	}
}

// reownLocked moves lc (the component at p) to the owner of its name if
// that is not where it is.
func (n *Network) reownLocked(p tree.Path, lc *liveComp) {
	host, err := n.ring.Successor(lc.hash)
	if err != nil || host == lc.host {
		return
	}
	lc.unhostLocked(p)
	n.rehostLocked(p, lc, host)
	n.metrics.moves.Add(1)
}
