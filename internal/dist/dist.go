// Package dist is the asynchronous, message-level engine for the adaptive
// counting network: tokens are concurrent goroutines hopping between
// components, and splits and merges run the paper's freeze protocol
// (Section 2.2) against live traffic instead of stopping the world. Split
// and Merge validate their target and hand it to one routine
// (Cluster.reconfigure) that freezes the entries, lets the tokens in flight
// settle, builds the replacement from the frozen state and publishes it:
//
//   - Split: the component is frozen, and its per-wire history of routed
//     tokens initializes the children.
//   - Merge: the assembly's entry children are frozen, the internal
//     in-flight tokens drain (detected by the conservation invariant:
//     every stage has processed the same number of tokens), and the
//     children's states combine into the parent.
//
// Either is exact only if the children have emitted what the parent would
// have (component.Imbalance is 0). A BITONIC's children always have; a
// MERGER's or MIX's count correctly only from step-shaped inputs, which a
// component frozen while tokens are in flight towards it may not have seen.
// Then the freeze is undone — the frozen incarnations are made active and
// the same cut is republished — and taken again once more tokens have
// reached them; in quiescence every component's inputs are exact ones. A
// reconfiguration that fails undoes its freeze the same way, after
// unbinding any replacement it bound, so the old cut stays live; one whose
// wait on traffic sees no total move for one retry budget of the cluster's
// client has lost a token it waits for, and fails with ErrStalled.
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
	"errors"
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
	// thaw (see Cluster.reconfigure): a frozen incarnation turns tokens away
	// whether or not the snapshot that retires it has been published yet.
	frozen  bool
	total   uint64
	arrived []uint64 // tokens routed per input wire
}

// Cluster is a counting network under the asynchronous engine.
type Cluster struct {
	w  int
	tr transport.Transport
	rc *transport.Client

	// comps is every incarnation bound, by address, except an aborted
	// reconfiguration's replacement (see unbind) — like their endpoints,
	// retired ones stay: a group arrive names the further incarnations it
	// visits by address (see groupArrive).
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
	hThaws *obs.Hist // thaws per completed split or merge

	// drainCh wakes a reconfiguration waiting on traffic (see await); any
	// group arrive that processes a token signals it (capacity 1, lossy
	// send): the waiter re-polls on every wakeup, so a coalesced or stale
	// signal costs one extra poll, never a missed one. The wait gives up
	// once no total it polls has moved for stall, rc's retry budget.
	drainCh chan struct{}
	stall   time.Duration

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
		stall:    retryBudget(o.retry),
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

// retryBudget is the longest one call of a transport.Client with retry
// policy rc takes to fail: every attempt's timeout plus every backoff, with
// zero fields filled as NewClient fills them.
func retryBudget(rc transport.RetryConfig) time.Duration {
	d := transport.DefaultRetry()
	if rc.Timeout <= 0 {
		rc.Timeout = d.Timeout
	}
	if rc.MaxRetries <= 0 {
		rc.MaxRetries = d.MaxRetries
	}
	if rc.Backoff <= 0 {
		rc.Backoff = d.Backoff
	}
	budget, backoff := rc.Timeout, rc.Backoff
	for range rc.MaxRetries {
		budget += backoff + rc.Timeout
		backoff = min(2*backoff, max(rc.BackoffCap, rc.Backoff))
	}
	return budget
}

// ErrStalled is a split or merge that gave up waiting on traffic: no total
// it polled moved for one retry budget of the cluster's client, so a token
// it waited for was lost. It comes wrapped with the stage (drain or thaw)
// and the component whose total is short, and the old cut is live again.
var ErrStalled = errors.New("dist: reconfiguration stalled")

// NewRootOnly creates a cluster whose network is a single root component.
func NewRootOnly(w int) (*Cluster, error) {
	return New(w, tree.RootCut())
}

// bind gives a fresh incarnation its own endpoint. Retired incarnations stay
// bound for the cluster's lifetime so straggling retries are answered from
// their dedup state rather than reaching a successor incarnation.
func (cl *Cluster) bind(cm *comp) error {
	cm.addr = transport.Addr(fmt.Sprintf("c:%s#%d", cm.c.Path, cl.gen.Add(1)))
	if err := cl.tr.Bind(cm.addr, func(req transport.Request) (any, error) {
		return cl.compRPC(cm, req)
	}); err != nil {
		return err
	}
	cl.compMu.Lock()
	cl.comps[cm.addr] = cm
	cl.compMu.Unlock()
	return nil
}

// unbind takes back the endpoint of an aborted reconfiguration's
// replacement. No published snapshot ever held it, so nothing addresses it.
func (cl *Cluster) unbind(cm *comp) {
	cl.tr.Unbind(cm.addr)
	cl.compMu.Lock()
	delete(cl.comps, cm.addr)
	cl.compMu.Unlock()
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

// signalDrain wakes a reconfiguration waiting on traffic (see await).
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
// timing and thaws — into reg, along with the reliability client's RTT and
// retry distributions. dist.token.seconds gets one sample per token an
// Inject or InjectBatch returns, valued at that call's duration (a burst's
// tokens all return together); dist.hop.seconds gets one per round of a
// batch, the round trip of its group arrive RPCs; dist.queue.wait.seconds
// gets one per token a component turned away, the seconds from the reply
// that turned it away until its batch saw the next snapshot;
// dist.reconfig.thaws gets one per completed split or merge, valued at the
// thaws it took. Call it before issuing traffic; the handles are read
// without synchronization afterwards.
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
	cl.hThaws = reg.Histogram("dist.reconfig.thaws", 0, 256, 256)
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
// flows (see reconfigure). Tokens the frozen incarnation turned away
// re-enter at (p, wire) once the snapshot is out, and
// tree.RouteTable.Locate descends into the children.
func (cl *Cluster) Split(p tree.Path) error {
	cl.reconfig.Lock()
	defer cl.reconfig.Unlock()
	begin := time.Now()
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
	if err := cl.reconfigure(cm.c, []*comp{cm}, sp); err != nil {
		return err
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
	begin := time.Now()
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
	cms := make([]*comp, len(children))
	for i, child := range children {
		if cl.topo.Load().at(child.Path) == nil {
			if err := cl.mergeLocked(child.Path); err != nil {
				return fmt.Errorf("dist: recursive merge of %v: %w", child, err)
			}
		}
		if cms[i] = cl.topo.Load().at(child.Path); cms[i] == nil {
			return fmt.Errorf("dist: merge: child %v missing", child)
		}
	}
	if err := cl.reconfigure(parent, cms, sp); err != nil {
		return err
	}
	cl.hMerge.Since(begin)
	return nil
}

// reconfigure runs the freeze protocol (Section 2.2) that replaces old —
// the live incarnation of parent for a split, those of its children for a
// merge — while traffic flows:
//
//  1. Freeze old's entries (the parent, or the two entry children): they
//     turn external arrivals away, and their freeze snapshots are final.
//  2. Settle: a split replays the parent's routed-per-wire history through
//     its children (component.SplitFlows); a merge waits until the tokens
//     inside the assembly have drained, which the conservation invariant
//     detects (every stage has processed equally many tokens).
//  3. The result is exact only if the children have emitted what the
//     parent would have (component.Imbalance is 0): a MERGER's or MIX's
//     entries frozen while tokens were in flight towards them may have
//     routed inputs the parent would have counted differently. Then the
//     entries are thawed, and frozen again from 1 once they have stepped
//     more tokens.
//  4. Freeze the rest of old, bind the replacement and publish it.
//
// Any error aborts: a replacement already bound is unbound, and every
// incarnation a freeze was sent to — whether or not its reply arrived — is
// thawed, so the old cut stays live.
func (cl *Cluster) reconfigure(parent tree.Component, old []*comp, sp *obs.Span) (err error) {
	split := old[0].c.Path == parent.Path
	entries := old
	if !split {
		entries = old[:2]
	}
	// unfreeze thaws cms: it makes them active again and republishes the
	// same cut, so the tokens they turned away meanwhile re-enter them.
	unfreeze := func(cms []*comp) error {
		for _, cm := range cms {
			cm.mu.Lock()
			cm.frozen = false
			cm.mu.Unlock()
		}
		return cl.publish(nil, nil)
	}
	var sent, bound []*comp // incarnations a freeze was sent to; replacements bound
	defer func() {
		if err != nil {
			for _, cm := range bound {
				cl.unbind(cm)
			}
			if terr := unfreeze(sent); terr != nil {
				err = errors.Join(err, terr)
			}
		}
	}()
	freeze := func(cm *comp) (wire.FreezeRes, error) {
		sent = append(sent, cm)
		reply, err := cl.ctl(cm, kindFreeze, sp)
		if err != nil {
			return wire.FreezeRes{}, err
		}
		return reply.(wire.FreezeRes), nil
	}

	children := parent.Children()
	snaps := make([]wire.FreezeRes, len(entries))
	totals := make([]uint64, len(children))
	var flows [][]uint64
	thaws := 0
	for {
		var seen uint64
		for i, cm := range entries {
			if snaps[i], err = freeze(cm); err != nil {
				return err
			}
			seen += snaps[i].Total
			sp.Event("freeze", string(cm.c.Path), int64(snaps[i].Total))
		}
		if split {
			if totals, flows, err = component.SplitFlows(parent, snaps[0].Processed); err != nil {
				return err
			}
		} else {
			drainStart := time.Now()
			totals[0], totals[1] = snaps[0].Total, snaps[1].Total
			if err := cl.await("drain", old[2:], totals[2:], func() error {
				return component.CheckConservation(parent, totals)
			}, sp); err != nil {
				return err
			}
			cl.hDrain.Since(drainStart)
		}
		e, err := component.Imbalance(parent, totals)
		if err != nil {
			return err
		}
		if e == 0 {
			break
		}
		// The imbalance means tokens are still in flight towards the
		// entries — in quiescence every component's inputs are ones its
		// children count exactly as it does — so a later freeze sees their
		// inputs further along, and in quiescence, exact.
		thaws++
		sp.Event("thaw", string(entries[0].c.Path), int64(e))
		if err := unfreeze(entries); err != nil {
			return err
		}
		stepped := make([]uint64, len(entries))
		if err := cl.await("thaw", entries, stepped, func() error {
			var sum uint64
			for _, t := range stepped {
				sum += t
			}
			if sum > seen {
				return nil
			}
			return fmt.Errorf("the entries of %v stepped %d tokens, none since the freeze", parent, sum)
		}, sp); err != nil {
			return err
		}
	}
	if !split {
		sp.Event("drained", string(parent.Path), 0)
	}

	var repl []*comp
	if split {
		for i, child := range children {
			repl = append(repl, &comp{c: child, total: totals[i], arrived: flows[i]})
		}
	} else {
		// The exit children are idle now; freeze them for their final totals.
		for i, cm := range old[2:] {
			snap, err := freeze(cm)
			if err != nil {
				return err
			}
			totals[2+i] = snap.Total
		}
		arrived := make([]uint64, parent.Width)
		for i, snap := range snaps {
			for w, cnt := range snap.Processed {
				if pin, ok := tree.InvChildInput(parent.Kind, parent.Width, i, w); ok {
					arrived[pin] += cnt
				}
			}
		}
		total, err := component.MergeTotal(parent, totals)
		if err != nil {
			return err
		}
		repl = []*comp{{c: parent, total: total, arrived: arrived}}
	}
	for _, cm := range repl {
		if err := cl.bind(cm); err != nil {
			return err
		}
		bound = append(bound, cm)
	}
	// Tokens the frozen entries turned away, and in-flight tokens holding
	// the old snapshot, re-resolve into the replacement.
	if err := cl.publish(old, repl); err != nil {
		return err
	}
	sp.Event("publish", string(parent.Path), int64(len(children)))
	cl.hThaws.Observe(float64(thaws))
	return nil
}

// await polls the processed-token totals of cms into totals until done
// reports nil. Between polls it blocks on drainCh, which every group arrive
// that steps a token signals after it: a token stepped since the last poll
// is never missed, and a stale or unrelated signal costs one extra poll. It
// is the coordinator's one wait on traffic, and it ends with ErrStalled,
// wrapped with stage and done's last report, once a poll after cl.stall
// without a moved total still finds none: every call that could move one
// has been delivered or has failed by then.
func (cl *Cluster) await(stage string, cms []*comp, totals []uint64, done func() error, sp *obs.Span) error {
	stall := time.NewTimer(cl.stall)
	defer stall.Stop()
	expired := false
	for {
		moved := false
		for i, cm := range cms {
			reply, err := cl.ctl(cm, kindTotal, sp)
			if err != nil {
				return err
			}
			if t := reply.(uint64); t != totals[i] {
				totals[i], moved = t, true
			}
		}
		short := done()
		switch {
		case short == nil:
			return nil
		case moved:
			stall.Reset(cl.stall)
			expired = false
		case expired:
			return fmt.Errorf("%w: %s: no total moved in %v: %v", ErrStalled, stage, cl.stall, short)
		}
		select {
		case <-cl.drainCh:
		case <-stall.C:
			expired = true
		}
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
