// Package dist is the asynchronous, message-level engine for the adaptive
// counting network: tokens are concurrent goroutines hopping between
// components, and splits and merges run the paper's freeze protocol
// (Section 2.2) against live traffic instead of stopping the world:
//
//   - Split: the component is frozen, its per-wire history of routed tokens
//     initializes the children, and a snapshot with the children in its
//     place is published.
//   - Merge: the assembly's entry children are frozen, the internal
//     in-flight tokens drain (detected by the conservation invariant:
//     every stage has processed the same number of tokens), the children's
//     states combine into the parent, and a snapshot with the parent in
//     their place is published.
//
// Either is exact only if the children have emitted what the parent would
// have (component.Imbalance is 0). A BITONIC's children always have; a
// MERGER's or MIX's count correctly only from step-shaped inputs, which a
// component frozen while tokens are in flight towards it may not have seen.
// Then the freeze is undone — the frozen incarnations are made active and
// the same cut is republished — and taken again once more tokens have
// reached them; in quiescence every component's inputs are exact ones.
//
// A component that is not active — frozen for a reconfiguration, or retired
// by one — turns tokens away: it steps nothing, stores nothing and replies
// StatusDead. The token waits at its sender, not at the component: the
// sender keeps its position (path, wire) and, once a snapshot newer than the
// one it routed against is published, re-enters it there through
// tree.RouteTable.Locate, which descends into a split component's children
// and ascends into a merged parent. The paper stores the token at the frozen
// component and releases it afterwards; waiting at the sender is the same
// re-entry at the same (path, wire), and the children, built from the routed
// history alone, never count a turned-away token either way.
//
// Every cross-component interaction is a message on an internal/transport
// fabric: tokens travel in group arrive RPCs, one path for a burst and for a
// single token alike (Inject is InjectBatch of one), and a hop between two
// components the same fabric instance serves (transport.Transport's Site) is
// a hand-over inside the serving handler, not a message, as the paper
// charges only node-to-node moves; the freeze protocol's freeze and total
// exchanges are control RPCs. On the default ideal in-memory fabric this is
// exactly as deterministic as direct calls; built over transport.Faulty
// (WithTransport), which places every address apart, every hop is a message
// again and every one of those messages can be delayed, lost, duplicated or
// reordered, and the retry + at-most-once layer must keep counting exact
// (experiment E24). At-most-once is the fabric's: a fabric that can deliver
// a call whose reply then misses its deadline (tcpnet, or Faulty, which
// switches on the in-memory switch's dedup) deduplicates its endpoints by
// request ID; the ideal switch runs handlers inline and never times out, so
// the retry client never re-sends there.
//
// Each component incarnation binds its own transport address ("c:<path>#
// <generation>"), and retired incarnations stay bound: a straggling retry of
// a message that the retired incarnation already executed is answered from
// its dedup cache instead of leaking into a successor component, which is
// what preserves exactly-once effects across reconfigurations.
//
// Compared to internal/core (the metered structural simulator), this
// package trades instrumentation for real concurrency; internal/core
// validates the paper's quantitative claims, this package validates the
// protocol's safety under interleavings (including with -race) and under
// injected network faults.
package dist

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/component"
	"repro/internal/cutnet"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// The message kinds and payload types on the component endpoints are owned by internal/wire (kindGroupArrive = wire.KindGroupArrive and so
// on): every body dist sends or serves is a wire codec type, so the same
// protocol runs unchanged over the in-memory switch (bodies pass by value)
// and over tcpnet (bodies pass through the binary codec).
const (
	kindGroupArrive = wire.KindGroupArrive // token delivery, one RPC per round and fabric a batch visits
	kindFreeze      = wire.KindFreeze      // control: stop processing, snapshot state
	kindTotal       = wire.KindTotal       // control: report the processed-token total
)

// comp is a live component incarnation plus its protocol state.
type comp struct {
	c    tree.Component
	addr transport.Addr

	mu sync.Mutex
	// frozen is set by a reconfiguration's freeze and cleared only by its
	// thaw (see Cluster.thaw): a frozen incarnation turns tokens away whether
	// or not the snapshot that retires it has been published yet.
	frozen  bool
	total   uint64
	arrived []uint64 // tokens routed per input wire
}

// Cluster is a counting network under the asynchronous engine.
type Cluster struct {
	w  int
	tr transport.Transport
	rc *transport.Client

	// comps is every incarnation ever bound, by address — like their
	// endpoints, retired ones stay: a group arrive names the further
	// incarnations it visits by address (see groupArrive).
	compMu sync.RWMutex
	comps  map[transport.Addr]*comp

	gen    atomic.Uint64 // component incarnation counter (address suffix)
	labels atomic.Uint64 // batch scratch counter (see batchScratch.from)

	// Observability handles (nil when uninstrumented). Instrument and
	// Trace must be called before traffic or reconfigurations start; the
	// handles are then read-only for the cluster's lifetime.
	tracer *obs.Tracer
	reg    *obs.Registry
	hTok   *obs.Hist // per-token seconds: the duration of the call that returned it
	hHop   *obs.Hist // seconds per round of a batch (one round trip of its group RPCs)
	hQueue *obs.Hist // seconds a turned-away token waited for the next snapshot
	hDrain *obs.Hist // merge phase-2 drain-wait seconds
	hSplit *obs.Hist // split reconfiguration seconds
	hMerge *obs.Hist // merge reconfiguration seconds

	// drainCh wakes a merge waiting for its assembly to drain; any group
	// arrive that processes a token signals it (capacity 1, lossy send): the
	// waiter re-checks conservation on every wakeup, so a coalesced or
	// stale signal costs one extra check, never a missed one.
	drainCh chan struct{}

	// topo is the epoch-snapshot topology: the live incarnations of the
	// current cut and its compiled routing (see topology), published via
	// atomic pointer. Tokens route against whatever snapshot is current when
	// they look — no read lock, no blocking on an in-flight Split/Merge.
	// Reconfigurations (serialized by reconfig) build a new snapshot and
	// publish it; a token that routed against the older one is turned away
	// by the retired incarnation and re-resolves against the newer.
	topo atomic.Pointer[topology]

	out      []atomic.Uint64 // per-output-wire emission counters
	injected []atomic.Uint64 // per-input-wire injection counters

	// scratch recycles InjectBatch's per-batch working memory, chains a group
	// arrive handler's (groupChain).
	scratch sync.Pool
	chains  sync.Pool

	reconfig sync.Mutex // serializes Split/Merge against each other only
}

// New creates a cluster implementing BITONIC[w] with the given cut. With no
// options it runs over an ideal (reliable, zero-latency) in-memory fabric;
// options select other fabrics, retry policies and observability.
func New(w int, cut tree.Cut, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.tr == nil {
		o.tr = transport.NewMem()
	}
	if err := cut.Validate(w); err != nil {
		return nil, err
	}
	cl := &Cluster{
		w:        w,
		tr:       o.tr,
		rc:       transport.NewClient(o.tr, o.retry),
		drainCh:  make(chan struct{}, 1),
		out:      make([]atomic.Uint64, w),
		injected: make([]atomic.Uint64, w),
		comps:    make(map[transport.Addr]*comp),
	}
	comps, err := cut.Components(w)
	if err != nil {
		return nil, err
	}
	live := make([]*comp, len(comps))
	for i, c := range comps {
		live[i] = &comp{c: c, arrived: make([]uint64, c.Width)}
		if err := cl.bind(live[i]); err != nil {
			return nil, err
		}
	}
	tp, err := newTopology(w, live)
	if err != nil {
		return nil, err
	}
	cl.topo.Store(tp)
	// Observability wiring in dependency order: registry first so the
	// tracer can register as a trace source on it.
	if o.reg != nil {
		cl.Instrument(o.reg)
	}
	if o.traceEvery > 0 {
		cl.Trace(o.traceEvery, o.traceRetain)
	}
	return cl, nil
}

// NewRootOnly creates a cluster whose network is a single root component.
func NewRootOnly(w int) (*Cluster, error) {
	return New(w, tree.RootCut())
}

// bind gives a fresh incarnation its own endpoint. Retired incarnations stay
// bound for the cluster's lifetime so straggling retries are answered from
// their dedup state rather than reaching a successor incarnation.
func (cl *Cluster) bind(cm *comp) error {
	cm.addr = transport.Addr(fmt.Sprintf("c:%s#%d", cm.c.Path, cl.gen.Add(1)))
	cl.compMu.Lock()
	cl.comps[cm.addr] = cm
	cl.compMu.Unlock()
	return cl.tr.Bind(cm.addr, func(req transport.Request) (any, error) {
		return cl.compRPC(cm, req)
	})
}

// compRPC serves one component endpoint: token delivery, or the freeze
// protocol's control.
func (cl *Cluster) compRPC(cm *comp, req transport.Request) (any, error) {
	if req.Kind == kindGroupArrive {
		return cl.groupArrive(cm, req.Body)
	}
	return cl.control(cm, req.Kind)
}

// control serves one control RPC of the freeze protocol at cm. It is off
// the token path, and kept out of compRPC so the frame every group arrive's
// request goroutine starts with stays small.
func (cl *Cluster) control(cm *comp, kind string) (any, error) {
	switch kind {
	case kindFreeze:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		cm.frozen = true
		return wire.FreezeRes{Total: cm.total, Processed: slices.Clone(cm.arrived)}, nil
	case kindTotal:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		return cm.total, nil
	default:
		return nil, fmt.Errorf("dist: unknown RPC kind %q", kind)
	}
}

// signalDrain wakes a merge waiting on the conservation invariant.
func (cl *Cluster) signalDrain() {
	select {
	case cl.drainCh <- struct{}{}:
	default:
	}
}

// Width returns the network width.
func (cl *Cluster) Width() int { return cl.w }

// Size returns the number of live components.
func (cl *Cluster) Size() int {
	return len(cl.topo.Load().live)
}

// Cut returns the current cut.
func (cl *Cluster) Cut() tree.Cut {
	comps := cl.topo.Load().rt.Components()
	cut := make(tree.Cut, len(comps))
	for _, c := range comps {
		cut[c.Path] = true
	}
	return cut
}

// NetStats returns the fabric's per-message counters and the reliability
// client's call/retry counters.
func (cl *Cluster) NetStats() (transport.Stats, transport.ClientStats) {
	return cl.tr.Stats(), cl.rc.Stats()
}

// Instrument routes the engine's latency distributions — per-token and
// per-round seconds, turned-away and merge-drain waits, reconfiguration
// timing — into reg, along with the reliability client's RTT and retry
// distributions. dist.token.seconds gets one sample per token an Inject or
// InjectBatch returns, valued at that call's duration (a burst's tokens all
// return together); dist.hop.seconds gets one per round of a batch, the
// round trip of its group arrive RPCs; dist.queue.wait.seconds gets one per
// token a component turned away, the seconds from the reply that turned it
// away until its batch saw the next snapshot. Call it before issuing
// traffic; the handles are read without synchronization afterwards.
func (cl *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl.hTok = reg.Histogram("dist.token.seconds", 0, 0.05, 500)
	cl.hHop = reg.Histogram("dist.hop.seconds", 0, 0.02, 400)
	cl.hQueue = reg.Histogram("dist.queue.wait.seconds", 0, 0.05, 500)
	cl.hDrain = reg.Histogram("dist.merge.drain.seconds", 0, 0.05, 500)
	cl.hSplit = reg.Histogram("dist.split.seconds", 0, 0.05, 500)
	cl.hMerge = reg.Histogram("dist.merge.seconds", 0, 0.05, 500)
	cl.rc.Instrument(reg)
	cl.reg = reg
	if cl.tracer != nil {
		reg.AddTraceSource(cl.tracer.Spans)
	}
}

// Trace enables per-token span sampling: one token in every is traced, and
// the last retain finished spans are kept (retain <= 0 means 64). Call it
// once, before issuing traffic. When the cluster is (or later becomes)
// instrumented, the tracer's spans are registered as a trace source on the
// registry, so /debug/acn/trace exports them as Perfetto trace events.
func (cl *Cluster) Trace(every, retain int) *obs.Tracer {
	cl.tracer = obs.NewTracer(every, retain)
	if cl.reg != nil {
		cl.reg.AddTraceSource(cl.tracer.Spans)
	}
	return cl.tracer
}

// Tracer returns the span sampler, or nil when tracing is off.
func (cl *Cluster) Tracer() *obs.Tracer { return cl.tracer }

// InstrumentRPC installs server-side RPC observation — per-kind handler
// latency histograms, child spans stitched to wire-propagated trace
// contexts, slow-RPC log and flight recorder — on the cluster's fabric.
func (cl *Cluster) InstrumentRPC(o *obs.RPCObs) { cl.tr.InstrumentRPC(o) }

// OutCounts returns the per-output-wire emission counts.
func (cl *Cluster) OutCounts() balancer.Seq {
	s := make(balancer.Seq, cl.w)
	for i := range cl.out {
		s[i] = int64(cl.out[i].Load())
	}
	return s
}

// InCounts returns the per-input-wire injection counts.
func (cl *Cluster) InCounts() balancer.Seq {
	s := make(balancer.Seq, cl.w)
	for i := range cl.injected {
		s[i] = int64(cl.injected[i].Load())
	}
	return s
}

// CheckStep verifies the quiescent step property and token conservation.
// The caller must ensure no Inject is in flight.
func (cl *Cluster) CheckStep() error {
	out := cl.OutCounts()
	if !out.HasStep() {
		return fmt.Errorf("dist: output %v violates the step property", out)
	}
	if got, want := out.Total(), cl.InCounts().Total(); got != want {
		return fmt.Errorf("dist: %d tokens out, %d in", got, want)
	}
	return nil
}

// ctl issues one control RPC from the reconfiguration coordinator. The
// span (nil when the reconfiguration is unsampled) propagates so the
// receiving fabric's freeze/total spans stitch to the
// reconfiguration's trace.
func (cl *Cluster) ctl(cm *comp, kind string, sp *obs.Span) (any, error) {
	reply, err := cl.rc.CallSpan("ctl", cm.addr, kind, nil, sp)
	if err != nil {
		return nil, fmt.Errorf("dist: %s %v: %w", kind, cm.c, err)
	}
	return reply, nil
}

// Split replaces the component at path p by its children while traffic
// flows: freeze (a control RPC returning the frozen per-wire history),
// initialize children from it — thawing and freezing again while that
// history is one the children would have counted differently — and publish
// them in its place. Tokens the
// frozen incarnation turned away re-enter at (p, wire) once the snapshot is
// out, and tree.RouteTable.Locate descends into the children.
func (cl *Cluster) Split(p tree.Path) error {
	cl.reconfig.Lock()
	defer cl.reconfig.Unlock()
	var begin time.Time
	if cl.hSplit != nil {
		begin = time.Now()
	}
	sp := cl.tracer.Start("split")
	defer sp.Finish()
	sp.Event("target", string(p), 0)

	cm := cl.topo.Load().at(p)
	if cm == nil {
		return fmt.Errorf("dist: split: no live component at %q", p)
	}
	if cm.c.IsLeaf() {
		return fmt.Errorf("dist: split: %v is an individual balancer", cm.c)
	}
	cm.mu.Lock()
	frozen := cm.frozen
	cm.mu.Unlock()
	if frozen {
		return fmt.Errorf("dist: split: %v is not active", cm.c)
	}

	// Freeze and snapshot the routed-per-wire history, and replay it through
	// the children. The replay is exact only if the children then have
	// emitted what the parent did (component.Imbalance): a MERGER or MIX
	// frozen while tokens were in flight towards it may have routed inputs
	// its children would have counted differently. Then it is thawed and
	// frozen again once more of those tokens have reached it.
	var totals []uint64
	var flows [][]uint64
	for {
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return err
		}
		snap := reply.(wire.FreezeRes)
		if sp != nil {
			sp.Event("freeze", string(p), int64(snap.Total))
		}
		if totals, flows, err = component.SplitFlows(cm.c, snap.Processed); err != nil {
			return err
		}
		e, err := component.Imbalance(cm.c, totals)
		if err != nil {
			return err
		}
		if e == 0 {
			break
		}
		if err := cl.thaw([]*comp{cm}, snap.Total, e, sp); err != nil {
			return err
		}
	}
	children := cm.c.Children()
	newComps := make([]*comp, len(children))
	for i, child := range children {
		newComps[i] = &comp{c: child, total: totals[i], arrived: flows[i]}
		if err := cl.bind(newComps[i]); err != nil {
			return err
		}
	}

	// Publish a fresh snapshot with the children in place of the parent.
	// Tokens the frozen incarnation turned away, and in-flight tokens holding
	// the old snapshot, re-resolve into the children.
	if err := cl.publish([]*comp{cm}, newComps); err != nil {
		return err
	}
	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	cl.hSplit.Since(begin)
	return nil
}

// Merge reforms the component at p from its children while traffic flows,
// recursively merging children that are themselves split.
func (cl *Cluster) Merge(p tree.Path) error {
	cl.reconfig.Lock()
	defer cl.reconfig.Unlock()
	return cl.mergeLocked(p)
}

func (cl *Cluster) mergeLocked(p tree.Path) error {
	var begin time.Time
	if cl.hMerge != nil {
		begin = time.Now()
	}
	sp := cl.tracer.Start("merge")
	defer sp.Finish()
	sp.Event("target", string(p), 0)
	if cl.topo.Load().at(p) != nil {
		return fmt.Errorf("dist: merge: %q is already live", p)
	}

	parent, err := tree.ComponentAt(cl.w, p)
	if err != nil {
		return err
	}
	if parent.IsLeaf() {
		return fmt.Errorf("dist: merge: %v has no children", parent)
	}
	children := parent.Children()

	// Recursively merge children that are split further.
	for _, child := range children {
		if cl.topo.Load().at(child.Path) == nil {
			if err := cl.mergeLocked(child.Path); err != nil {
				return fmt.Errorf("dist: recursive merge of %v: %w", child, err)
			}
		}
	}
	cms := make([]*comp, len(children))
	for i, child := range children {
		cms[i] = cl.topo.Load().at(child.Path)
	}
	for i, cm := range cms {
		if cm == nil {
			return fmt.Errorf("dist: merge: child %v missing", children[i])
		}
	}

	// Phases 1 and 2 repeat until the children's drained state is exactly
	// that of the parent (component.Imbalance): the entry children of a
	// MERGER or MIX frozen while tokens were in flight towards them may
	// have routed inputs the parent would have counted differently. Then
	// they are thawed and frozen again once more of those tokens have
	// reached them.
	deg := len(cms)
	entrySnaps := make([]wire.FreezeRes, 2)
	for {
		// Phase 1: freeze the entry children; external arrivals are turned
		// away. Their freeze snapshots are final: a frozen component's total
		// and processed history no longer change.
		for i, cm := range cms[:2] {
			cm.mu.Lock()
			frozen := cm.frozen
			cm.mu.Unlock()
			if frozen {
				return fmt.Errorf("dist: merge: entry child %v is not active", cm.c)
			}
			reply, err := cl.ctl(cm, kindFreeze, sp)
			if err != nil {
				return err
			}
			entrySnaps[i] = reply.(wire.FreezeRes)
			if sp != nil {
				sp.Event("freeze", string(cm.c.Path), int64(entrySnaps[i].Total))
			}
		}

		// Phase 2: wait for internal in-flight tokens to drain, detected by
		// the conservation invariant (all stages saw equally many tokens).
		// The totals are polled with control RPCs; between polls the
		// coordinator blocks on drainCh, which every processed token signals
		// — no busy-wait.
		var drainStart time.Time
		if cl.hDrain != nil {
			drainStart = time.Now()
		}
		totals := make([]uint64, deg)
		for {
			totals[0], totals[1] = entrySnaps[0].Total, entrySnaps[1].Total
			for i, cm := range cms[2:] {
				reply, err := cl.ctl(cm, kindTotal, sp)
				if err != nil {
					return err
				}
				totals[2+i] = reply.(uint64)
			}
			if component.CheckConservation(parent, totals) == nil {
				break
			}
			// Conservation not yet reached, so a token is in flight inside
			// the assembly; its next group arrive will signal. A stale or
			// unrelated signal just costs one extra poll.
			<-cl.drainCh
		}
		cl.hDrain.Since(drainStart)
		e, err := component.Imbalance(parent, totals)
		if err != nil {
			return err
		}
		if e == 0 {
			break
		}
		if err := cl.thaw(cms[:2], totals[0]+totals[1], e, sp); err != nil {
			return err
		}
	}
	if sp != nil {
		sp.Event("drained", string(p), 0)
	}

	// Phase 3: freeze the remaining (now idle) children and combine state.
	totals := make([]uint64, deg)
	totals[0], totals[1] = entrySnaps[0].Total, entrySnaps[1].Total
	for i, cm := range cms[2:] {
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return err
		}
		totals[2+i] = reply.(wire.FreezeRes).Total
	}
	arrived := make([]uint64, parent.Width)
	for i := 0; i < 2; i++ {
		for wire, cnt := range entrySnaps[i].Processed {
			pin, ok := tree.InvChildInput(parent.Kind, parent.Width, i, wire)
			if ok {
				arrived[pin] += cnt
			}
		}
	}
	total, err := component.MergeTotal(parent, totals)
	if err != nil {
		return err
	}
	merged := &comp{c: parent, total: total, arrived: arrived}
	if err := cl.bind(merged); err != nil {
		return err
	}

	// Phase 4: publish a fresh snapshot with the parent in place of the
	// children. Tokens the entry children turned away re-enter at (child,
	// wire), and tree.RouteTable.Locate ascends into the merged parent.
	if err := cl.publish(cms, []*comp{merged}); err != nil {
		return err
	}
	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	cl.hMerge.Since(begin)
	return nil
}

// thaw undoes the freeze of cms, which left a split or merge imbalanced by
// e tokens, and returns once they have stepped more than seen tokens
// between them. Republishing the same cut lets the tokens they turned away
// meanwhile re-enter them. The imbalance means tokens are still in flight
// towards them — in quiescence every component's inputs are ones its
// children count exactly as it does — so a later freeze sees their inputs
// further along, and in quiescence, exact.
func (cl *Cluster) thaw(cms []*comp, seen, e uint64, sp *obs.Span) error {
	if sp != nil {
		sp.Event("thaw", string(cms[0].c.Path), int64(e))
	}
	for _, cm := range cms {
		cm.mu.Lock()
		cm.frozen = false
		cm.mu.Unlock()
	}
	if err := cl.publish(nil, nil); err != nil {
		return err
	}
	for {
		var total uint64
		for _, cm := range cms {
			reply, err := cl.ctl(cm, kindTotal, sp)
			if err != nil {
				return err
			}
			total += reply.(uint64)
		}
		if total > seen {
			return nil
		}
		// Every group arrive that steps a token signals drainCh after it,
		// so one that steps here since the poll above is not missed.
		<-cl.drainCh
	}
}

// EffectiveWidth computes Definition 1.1 for the cluster's current cut.
func (cl *Cluster) EffectiveWidth() (int, error) {
	return cutnet.NewDAG(cl.topo.Load().rt).EffectiveWidth(), nil
}

// EffectiveDepth computes Definition 1.2 for the cluster's current cut.
func (cl *Cluster) EffectiveDepth() (int, error) {
	return cutnet.NewDAG(cl.topo.Load().rt).EffectiveDepth(), nil
}
