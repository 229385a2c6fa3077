// Package dist is the asynchronous, message-level engine for the adaptive
// counting network: tokens are concurrent goroutines hopping between
// components, and splits and merges run the paper's freeze protocol
// (Section 2.2) against live traffic instead of stopping the world:
//
//   - Split: the component is frozen (arrivals are stored), its per-wire
//     arrival history initializes the children, the children replace it,
//     and the stored tokens are forwarded to the children.
//   - Merge: the assembly's entry children are frozen, the internal
//     in-flight tokens drain (detected by the conservation invariant:
//     every stage has processed the same number of tokens), the children's
//     states combine into the parent, and stored tokens are forwarded to
//     the parent.
//
// Every cross-component interaction is a message on an internal/transport
// fabric: tokens travel in group arrive RPCs, one path for a burst and for a
// single token alike (Inject is InjectBatch of one), and a hop between two
// components the same fabric instance serves is a hand-over inside the
// serving handler, not a message, as the paper charges only node-to-node
// moves; the freeze protocol's freeze / total / kill exchanges are control
// RPCs, and a frozen component releases its stored tokens by sending each
// one a "resume" control message. On the default ideal in-memory fabric
// this is exactly as deterministic as the old direct calls; built over
// transport.Faulty (WithTransport), every hop is a message again and every
// one of those messages can be delayed, lost, duplicated or reordered, and
// the retry + at-most-once layer must keep counting exact (experiment E24).
//
// Each component incarnation binds its own transport address ("c:<path>#
// <generation>"), and dead incarnations stay bound: a straggling retry of
// a message that the dead incarnation already executed is answered from
// its dedup cache instead of leaking into a successor component, which is
// what preserves exactly-once effects across reconfigurations. Late
// messages addressed to replaced components are re-resolved against the
// current cut: descending through input maps after a split, ascending
// through the entry-child inverse after a merge.
//
// Compared to internal/core (the metered structural simulator), this
// package trades instrumentation for real concurrency; internal/core
// validates the paper's quantitative claims, this package validates the
// protocol's safety under interleavings (including with -race) and under
// injected network faults.
package dist

import (
	"fmt"
	"strings"
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

// compState is the lifecycle of a live component.
type compState uint8

const (
	stateActive compState = iota + 1
	stateFrozen
	stateDead
)

// The message kinds and payload types on the component and token endpoints
// are owned by internal/wire (kindGroupArrive = wire.KindGroupArrive and so
// on): every body dist sends or serves is a wire codec type, so the same
// protocol runs unchanged over the in-memory switch (bodies pass by value)
// and over tcpnet (bodies pass through the binary codec).
const (
	kindGroupArrive = wire.KindGroupArrive // token delivery, one RPC per round and fabric a batch visits
	kindFreeze      = wire.KindFreeze      // control: stop processing, snapshot state
	kindTotal       = wire.KindTotal       // control: report the processed-token total
	kindKill        = wire.KindKill        // control: die and release stored tokens
	kindResume      = wire.KindResume      // control: stored token's continuation target
)

// queuedToken is a token stored at a frozen component.
type queuedToken struct {
	wire int
	tok  transport.Addr
	seq  uint64
}

// comp is a live component incarnation plus its protocol state.
type comp struct {
	c    tree.Component
	addr transport.Addr

	mu      sync.Mutex
	state   compState
	total   uint64
	arrived []uint64 // cumulative arrivals per input wire (processed + queued)
	queue   []queuedToken
}

// processedPerWireLocked returns arrivals minus queued, per wire: the
// tokens this component has actually routed, broken down by input wire.
func (c *comp) processedPerWireLocked() []uint64 {
	out := make([]uint64, len(c.arrived))
	copy(out, c.arrived)
	for _, q := range c.queue {
		out[q.wire]--
	}
	return out
}

// Cluster is a counting network under the asynchronous engine.
type Cluster struct {
	w  int
	tr transport.Transport
	rc *transport.Client
	// place is the fabric's placement knowledge, nil when it offers none: a
	// round sends the tokens bound for components place puts on one fabric
	// in one message (see groupRound), and the handler steps them on through
	// the components place says are served by that same fabric, replying
	// only for the tokens whose next component is served elsewhere (see
	// groupChain). Nil means every hop is a message of its own.
	place transport.Placer

	// comps is every incarnation ever bound, by address — like their
	// endpoints, dead ones stay: a group arrive names the further
	// incarnations it visits by address (see groupArrive).
	compMu sync.RWMutex
	comps  map[transport.Addr]*comp

	gen    atomic.Uint64 // component incarnation counter (address suffix)
	tokSeq atomic.Uint64 // token endpoint counter

	// tokPrefix is the token endpoint address prefix: "t:" alone, or
	// "t:<ns>:" under WithNamespace so partitioned processes mint
	// disjoint, routable token addresses.
	tokPrefix string

	// Observability handles (nil when uninstrumented). Instrument and
	// Trace must be called before traffic or reconfigurations start; the
	// handles are then read-only for the cluster's lifetime.
	tracer *obs.Tracer
	reg    *obs.Registry
	hTok   *obs.Hist // per-token seconds: the duration of the call that returned it
	hHop   *obs.Hist // seconds per round of a batch (one round trip of its group RPCs)
	hQueue *obs.Hist // freeze-queue wait seconds (stored token until resume)
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
	// publish it; the freeze protocol already handles tokens that routed
	// against the older one (the dead incarnation answers statusDead and the
	// token re-resolves).
	topo atomic.Pointer[topology]

	out      []atomic.Uint64 // per-output-wire emission counters
	injected []atomic.Uint64 // per-input-wire injection counters

	// eps is a bounded free-list of token endpoints. Binding a fresh
	// endpoint per token costs an address allocation plus a map insert and
	// delete in the fabric's switch under its lock; pooling amortizes that
	// across tokens. A channel (not sync.Pool) so endpoints are never
	// dropped by GC while still bound in the fabric.
	eps chan *tokenEP

	// scratch recycles InjectBatch's per-batch working memory, chains a group
	// arrive handler's (groupChain).
	scratch sync.Pool
	chains  sync.Pool

	reconfig sync.Mutex // serializes Split/Merge against each other only
}

// tokenEP is a pooled token endpoint: a bound transport address plus the
// resume mailbox. [lo, hi] is the sequence window of the batch currently
// using the endpoint (lo = 0 means idle): its whole claimed range, lo = hi
// for a single token. The endpoint handler and the resume receive paths
// both discard messages whose Seq is outside the window, so a straggling or
// duplicated resume for a previous occupant is inert.
type tokenEP struct {
	addr   transport.Addr
	resume chan wire.Resume
	lo, hi atomic.Uint64
}

// New creates a cluster implementing BITONIC[w] with the given cut. With no
// options it runs over an ideal (reliable, zero-latency) in-memory fabric;
// options select other fabrics, retry policies, observability and
// namespacing.
func New(w int, cut tree.Cut, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.tr == nil {
		o.tr = transport.NewMem()
	}
	if strings.Contains(o.ns, ":") {
		return nil, fmt.Errorf("dist: namespace %q contains ':'", o.ns)
	}
	if err := cut.Validate(w); err != nil {
		return nil, err
	}
	// The retry client's correctness contract is at-most-once delivery: a
	// reply that misses the retry deadline triggers a re-send, and without
	// receiver-side dedup the re-executed handler double-counts the token
	// (or re-freezes a component), permanently breaking the conservation
	// invariant merges drain on. Only fabrics that can actually time out a
	// delivered call need this — the ideal in-memory switch runs handlers
	// inline and never retries, so taxing it with dedup would be waste.
	if d, ok := o.tr.(transport.Redeliverer); ok && d.CanRedeliver() {
		d.EnableDedup()
	}
	tokPrefix := "t:"
	if o.ns != "" {
		tokPrefix = "t:" + o.ns + ":"
	}
	cl := &Cluster{
		w:         w,
		tr:        o.tr,
		rc:        transport.NewClient(o.tr, o.retry),
		tokPrefix: tokPrefix,
		drainCh:   make(chan struct{}, 1),
		out:       make([]atomic.Uint64, w),
		injected:  make([]atomic.Uint64, w),
		eps:       make(chan *tokenEP, 256),
		comps:     make(map[transport.Addr]*comp),
	}
	cl.place, _ = o.tr.(transport.Placer)
	comps, err := cut.Components(w)
	if err != nil {
		return nil, err
	}
	live := make([]*comp, len(comps))
	for i, c := range comps {
		live[i] = &comp{c: c, state: stateActive, arrived: make([]uint64, c.Width)}
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

// bind gives a fresh incarnation its own endpoint. Dead incarnations stay
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
		if cm.state == stateDead {
			return nil, fmt.Errorf("dist: freeze: %v is dead", cm.c)
		}
		cm.state = stateFrozen
		return wire.FreezeRes{Total: cm.total, Processed: cm.processedPerWireLocked()}, nil
	case kindTotal:
		cm.mu.Lock()
		defer cm.mu.Unlock()
		return cm.total, nil
	case kindKill:
		cm.mu.Lock()
		cm.state = stateDead
		queue := cm.queue
		cm.queue = nil
		cm.mu.Unlock()
		// Release stored tokens: each gets a resume control message telling
		// it to re-enter at this component's position; delivery is async so
		// a slow token endpoint cannot stall the kill reply.
		for _, q := range queue {
			q := q
			go func() {
				// ErrUnreachable means the token already finished (its
				// endpoint unbound) — only possible for duplicates.
				_, _ = cl.rc.Call(cm.addr, q.tok, kindResume, wire.Resume{Path: string(cm.c.Path), Wire: q.wire, Seq: q.seq})
			}()
		}
		return len(queue), nil
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
// per-round seconds, freeze-queue and merge-drain waits, reconfiguration
// timing — into reg, along with the reliability client's RTT and retry
// distributions. dist.token.seconds gets one sample per token an Inject or
// InjectBatch returns, valued at that call's duration (a burst's tokens all
// return together); dist.hop.seconds gets one per round of a batch, the
// round trip of its group arrive RPCs. Call it before issuing traffic; the
// handles are read without synchronization afterwards.
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
// Returns false when the fabric cannot observe dispatch (only the
// in-memory Net, tcpnet.Net and Faulty wrappers over them can).
func (cl *Cluster) InstrumentRPC(o *obs.RPCObs) bool {
	ri, ok := cl.tr.(transport.RPCInstrumenter)
	if ok {
		ri.InstrumentRPC(o)
	}
	return ok
}

// getEP takes a token endpoint from the free-list, binding a fresh one
// when the list is empty.
func (cl *Cluster) getEP() (*tokenEP, error) {
	select {
	case ep := <-cl.eps:
		return ep, nil
	default:
	}
	ep := &tokenEP{
		addr:   transport.Addr(fmt.Sprintf("%s%d", cl.tokPrefix, cl.tokSeq.Add(1))),
		resume: make(chan wire.Resume, 8),
	}
	if err := cl.tr.Bind(ep.addr, func(req transport.Request) (any, error) {
		rm, ok := req.Body.(wire.Resume)
		if !ok {
			return nil, fmt.Errorf("dist: resume body %T", req.Body)
		}
		if lo := ep.lo.Load(); lo != 0 && rm.Seq >= lo && rm.Seq <= ep.hi.Load() {
			ep.resume <- rm
		}
		return true, nil
	}); err != nil {
		return nil, err
	}
	return ep, nil
}

// putEP returns an endpoint to the free-list, unbinding it when the list
// is full. Stale resumes buffered by a straggler are drained first so the
// next occupant starts with an empty mailbox.
func (cl *Cluster) putEP(ep *tokenEP) {
	ep.lo.Store(0)
	ep.hi.Store(0)
	for {
		select {
		case <-ep.resume:
			continue
		default:
		}
		break
	}
	select {
	case cl.eps <- ep:
	default:
		cl.tr.Unbind(ep.addr)
	}
}

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
// receiving fabric's freeze/total/kill spans stitch to the
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
// initialize children from it, swap, and kill the old incarnation, which
// releases its stored tokens via resume messages.
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
	active := cm.state == stateActive
	cm.mu.Unlock()
	if !active {
		return fmt.Errorf("dist: split: %v is not active", cm.c)
	}

	// Freeze and snapshot the processed-per-wire history.
	reply, err := cl.ctl(cm, kindFreeze, sp)
	if err != nil {
		return err
	}
	snap := reply.(wire.FreezeRes)
	if sp != nil {
		sp.Event("freeze", string(p), int64(snap.Total))
	}

	totals, flows, err := component.SplitFlows(cm.c, snap.Processed)
	if err != nil {
		return err
	}
	children := cm.c.Children()
	newComps := make([]*comp, len(children))
	for i, child := range children {
		newComps[i] = &comp{c: child, state: stateActive, total: totals[i], arrived: flows[i]}
		if err := cl.bind(newComps[i]); err != nil {
			return err
		}
	}

	// Publish a fresh snapshot with the children in place of the parent.
	// In-flight tokens holding the old snapshot hit the dead incarnation
	// and re-resolve; tokens resolving from here on see the children.
	if err := cl.publish([]*comp{cm}, newComps); err != nil {
		return err
	}

	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	// Kill the old incarnation; its stored tokens re-enter at (p, wire) and
	// tree.RouteTable.Locate descends into the children.
	reply, err = cl.ctl(cm, kindKill, sp)
	if err != nil {
		return err
	}
	if sp != nil {
		released, _ := reply.(int)
		sp.Event("kill", string(p), int64(released))
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

	// Phase 1: freeze the entry children; external arrivals are stored.
	// Their freeze snapshots are final: a frozen component's total and
	// processed history no longer change.
	deg := len(cms)
	entrySnaps := make([]wire.FreezeRes, 2)
	for i, cm := range cms[:2] {
		cm.mu.Lock()
		active := cm.state == stateActive
		cm.mu.Unlock()
		if !active {
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
	// the conservation invariant (all stages saw equally many tokens). The
	// totals are polled with control RPCs; between polls the coordinator
	// blocks on drainCh, which every processed token signals — no
	// busy-wait.
	var drainStart time.Time
	if cl.hDrain != nil {
		drainStart = time.Now()
	}
	for {
		totals := make([]uint64, deg)
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
		// Conservation not yet reached, so a token is in flight inside the
		// assembly; its next group arrive will signal. A stale or unrelated
		// signal just costs one extra poll.
		<-cl.drainCh
	}
	cl.hDrain.Since(drainStart)
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
	merged := &comp{c: parent, state: stateActive, total: total, arrived: arrived}
	if err := cl.bind(merged); err != nil {
		return err
	}

	// Phase 4: publish a fresh snapshot with the parent in place of the
	// children.
	if err := cl.publish(cms, []*comp{merged}); err != nil {
		return err
	}

	if sp != nil {
		sp.Event("publish", string(p), int64(len(children)))
	}
	// Phase 5: kill the children; their stored tokens re-enter at
	// (child, wire) and tree.RouteTable.Locate ascends into the merged parent.
	for _, cm := range cms {
		reply, err := cl.ctl(cm, kindKill, sp)
		if err != nil {
			return err
		}
		if sp != nil {
			released, _ := reply.(int)
			sp.Event("kill", string(cm.c.Path), int64(released))
		}
	}
	cl.hMerge.Since(begin)
	return nil
}

// EffectiveWidth computes Definition 1.1 for the cluster's current cut.
func (cl *Cluster) EffectiveWidth() (int, error) {
	return cutnet.NewDAG(cl.topo.Load().rt).EffectiveWidth(), nil
}

// EffectiveDepth computes Definition 1.2 for the cluster's current cut.
func (cl *Cluster) EffectiveDepth() (int, error) {
	return cutnet.NewDAG(cl.topo.Load().rt).EffectiveDepth(), nil
}
