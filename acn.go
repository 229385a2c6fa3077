// Package acn implements adaptive counting networks: a decentralized,
// self-resizing implementation of the bitonic counting network layered on
// a Chord-style peer-to-peer overlay, after "Adaptive Counting Networks"
// (Srikanta Tirthapura, ICDCS 2005).
//
// A counting network routes tokens from input to output wires through
// balancers so that, in every quiescent state, the per-output-wire token
// counts satisfy the step property; it implements a scalable distributed
// counter. A static network's width (its parallelism) must be fixed in
// advance; this package's network instead decomposes BITONIC[w] into
// recursively splittable components, maps the components onto overlay
// nodes with a distributed hash function, and has every node locally
// decide — from its own estimate of the system size — when to split its
// components into six smaller ones or merge them back.
//
// # Quick start
//
//	net, err := acn.New(acn.Config{Width: 256, Seed: 1})
//	if err != nil { ... }
//	net.AddNodes(31)                  // overlay grows to 32 nodes
//	net.MaintainToFixpoint(100)       // nodes split components to match
//	client, err := net.NewClient()
//	tr, err := client.Inject()        // tr.Value is the next counter value
//
// The package also exposes the substrates and baselines used by the
// experiment harness: classical balancer-level networks (Bitonic,
// Periodic), single-process cut networks, the asynchronous message-level
// cluster, the Chord overlay simulation, the producer-consumer matcher,
// and the centralized / static-width / diffracting-tree baselines.
// DESIGN.md maps each to the paper; EXPERIMENTS.md records the
// reproduction results.
package acn

import (
	"io"

	"repro/internal/balancer"
	"repro/internal/baseline"
	"repro/internal/bitonic"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/cutnet"
	"repro/internal/dist"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/workload"
)

// Config configures an adaptive counting network. See core.Config.
type Config = core.Config

// Network is an adaptive counting network over a simulated Chord overlay.
type Network = core.Network

// Client injects tokens into a Network and receives counter values.
type Client = core.Client

// TokenTrace reports a token's counter value and per-token protocol costs.
type TokenTrace = core.TokenTrace

// Metrics are the Network's cumulative protocol counters.
type Metrics = core.Metrics

// ObsRegistry is a registry of named counters, gauges and latency/hop
// histograms. Pass one in Config.Obs (or to Cluster.Instrument) to collect
// cross-layer distributions; export with WriteTable, WriteJSON,
// PublishExpvar or the /metrics + pprof HTTP Handler.
type ObsRegistry = obs.Registry

// NewObsRegistry creates an empty metrics registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// Tracer samples per-token trace spans (see Config.TraceEvery and
// Cluster.Trace); Span is one sampled token journey.
type Tracer = obs.Tracer

// Span is one traced token journey: every component visited, wire hop, DHT
// lookup, retry and queue/drain wait, with offsets from injection. Sampled
// spans carry real identity (trace, span and parent span IDs) so spans
// opened on other endpoints stitch into one distributed trace.
type Span = obs.Span

// TraceContext is the wire-propagable identity of a sampled trace: carried
// in every transport.Request and encoded in the wire envelope, it lets the
// receiving fabric open server-side RPC spans stitched to the caller's
// trace. The zero value means unsampled and costs two bytes on the wire.
type TraceContext = obs.TraceContext

// RPCObs observes the server side of RPC dispatch on a fabric: per-kind
// latency histograms, child spans stitched to wire-propagated trace
// contexts, a slow-RPC threshold log, and flight-recorder entries. Install
// one with Cluster.InstrumentRPC (or a fabric's InstrumentRPC method).
type RPCObs = obs.RPCObs

// RPCObsConfig configures an RPCObs; all fields are optional.
type RPCObsConfig = obs.RPCObsConfig

// NewRPCObs creates a server-side RPC observer.
func NewRPCObs(cfg RPCObsConfig) *RPCObs { return obs.NewRPCObs(cfg) }

// FlightRecorder keeps a bounded ring of recent trace events per endpoint:
// an always-on black box dumped on demand (or on /debug/acn/flight).
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder creates a flight recorder keeping the last perEndpoint
// events for each endpoint (zero or negative means 64).
func NewFlightRecorder(perEndpoint int) *FlightRecorder {
	return obs.NewFlightRecorder(perEndpoint)
}

// WriteTraceEvents renders finished spans as Chrome/Perfetto trace-event
// JSON, loadable in ui.perfetto.dev or chrome://tracing. The same export
// is served on /debug/acn/trace by ObsRegistry.Handler and written by
// `acnsim -tracefile`.
func WriteTraceEvents(w io.Writer, spans []*Span) error {
	return obs.WriteTraceEvents(w, spans)
}

// ValidateTraceEvents parses trace-event JSON (as written by
// WriteTraceEvents) and checks its structural invariants, returning the
// event count. It backs `acnbench -validatetrace` and `make tracesmoke`.
func ValidateTraceEvents(r io.Reader) (int, error) {
	return obs.ValidateTraceEvents(r)
}

// New creates an adaptive counting network of the given width; the whole
// BITONIC[w] starts as one component on a single node.
func New(cfg Config) (*Network, error) {
	return core.New(cfg)
}

// Cut is a cut of the decomposition tree T_w: the set of components that
// currently implement the network.
type Cut = tree.Cut

// Component identifies a BITONIC/MERGER/MIX component of T_w.
type Component = tree.Component

// CutNetwork is a single-process counting network over an arbitrary cut of
// T_w, with explicit Split and Merge (the engine behind Theorem 2.1).
type CutNetwork = cutnet.Net

// NewCutNetwork builds a single-process counting network from a cut.
func NewCutNetwork(width int, cut Cut) (*CutNetwork, error) {
	return cutnet.New(width, cut)
}

// RootCut is the trivial cut: the entire network as one component.
func RootCut() Cut { return tree.RootCut() }

// LeafCut is the fully expanded cut: every component a single balancer.
// Width must be a power of two >= 2.
func LeafCut(width int) Cut { return tree.LeafCut(width) }

// Cluster is the asynchronous message-level engine: tokens are concurrent
// goroutines and splits/merges run the freeze protocol against live
// traffic.
type Cluster = dist.Cluster

// Option configures NewCluster and NewRing. One option set serves both
// constructors; an option that does not apply to a constructor (WithTrace
// on a Ring) is ignored by it.
type Option func(*options)

type options struct {
	tr         Transport
	haveTr     bool
	retry      RetryConfig
	haveRetry  bool
	reg        *ObsRegistry
	traceEvery int
	traceKeep  int
}

// WithTransport routes the construct's cross-node messages (token hops,
// freeze-protocol control, finger queries) over tr instead of a private
// in-memory fabric.
func WithTransport(tr Transport) Option {
	return func(o *options) { o.tr = tr; o.haveTr = true }
}

// WithRetry sets the reliability client's per-attempt timeout and capped
// exponential backoff (zero fields take defaults). Only meaningful
// together with WithTransport on a lossy or slow fabric.
func WithRetry(rc RetryConfig) Option {
	return func(o *options) { o.retry = rc; o.haveRetry = true }
}

// WithObs instruments the construct into reg: latency and hop
// histograms for a Cluster, lookup and maintenance counters for a Ring.
func WithObs(reg *ObsRegistry) Option {
	return func(o *options) { o.reg = reg }
}

// WithTrace samples one injected batch in every `every` (1 traces all)
// and retains up to keep finished spans (zero or negative keep uses the
// tracer default). Cluster-only.
func WithTrace(every, keep int) Option {
	return func(o *options) { o.traceEvery = every; o.traceKeep = keep }
}

// NewCluster builds an asynchronous cluster from a cut. With no options
// it runs on a private in-memory fabric; compose WithTransport,
// WithRetry, WithObs and WithTrace to change that:
//
//	cl, err := acn.NewCluster(w, cut,
//		acn.WithTransport(tr), acn.WithRetry(rc), acn.WithObs(reg))
func NewCluster(width int, cut Cut, opts ...Option) (*Cluster, error) {
	o := applyOptions(opts)
	var dopts []dist.Option
	if o.haveTr {
		dopts = append(dopts, dist.WithTransport(o.tr))
	}
	if o.haveRetry {
		dopts = append(dopts, dist.WithRetry(o.retry))
	}
	if o.reg != nil {
		dopts = append(dopts, dist.WithObs(o.reg))
	}
	if o.traceEvery > 0 {
		dopts = append(dopts, dist.WithTrace(o.traceEvery, o.traceKeep))
	}
	return dist.New(width, cut, dopts...)
}

// Ring is a simulated Chord overlay ring.
type Ring = chord.Ring

// NewRing creates an empty Chord ring with the given randomness seed.
// WithTransport and WithRetry route its cross-node RPCs (per-hop finger
// queries, succ_k estimate probes) over a real fabric; WithObs
// instruments it into a registry.
func NewRing(seed int64, opts ...Option) *Ring {
	o := applyOptions(opts)
	var r *Ring
	if o.haveTr {
		r = chord.NewRingOn(seed, o.tr, o.retry)
	} else {
		r = chord.NewRing(seed)
	}
	if o.reg != nil {
		r.Instrument(o.reg)
	}
	return r
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// Transport is the message fabric cross-node RPCs, token hops and control
// messages travel on.
type Transport = transport.Transport

// NewMemTransport creates the ideal in-memory fabric: reliable,
// zero-latency, deterministic.
func NewMemTransport() Transport { return transport.NewMem() }

// FaultConfig sets a fault injector's seeded loss, duplication, reorder
// and latency knobs.
type FaultConfig = transport.FaultConfig

// FaultyTransport wraps the in-memory fabric with seeded fault injection
// and pairwise partitions; receiver-side dedup keeps retried messages
// at-most-once.
type FaultyTransport = transport.Faulty

// NewFaultyTransport creates a fault-injecting fabric over a fresh
// in-memory switch.
func NewFaultyTransport(cfg FaultConfig) *FaultyTransport {
	return transport.NewFaulty(transport.NewMem(), cfg)
}

// RetryConfig shapes the reliability client: per-attempt timeout and
// capped exponential backoff retries. Zero fields take defaults.
type RetryConfig = transport.RetryConfig

// TransportStats are a fabric's per-message counters.
type TransportStats = transport.Stats

// NewBitonic constructs the classical balancer-level Bitonic[w] counting
// network of Aspnes, Herlihy and Shavit.
func NewBitonic(width int) (*BalancerNetwork, error) { return bitonic.New(width) }

// NewPeriodic constructs the classical Periodic[w] counting network.
func NewPeriodic(width int) (*BalancerNetwork, error) { return bitonic.NewPeriodic(width) }

// BalancerNetwork is an explicit balancer-level balancing network.
type BalancerNetwork = balancer.Network

// Matcher pairs producer supply tokens with consumer request tokens using
// two back-to-back counting networks (the Section 1.1 application).
type Matcher[P, C any] struct {
	inner *match.Matcher[P, C]
}

// NewMatcher creates a producer-consumer matcher of the given width.
func NewMatcher[P, C any](width int, seed int64) (*Matcher[P, C], error) {
	m, err := match.New[P, C](width, seed)
	if err != nil {
		return nil, err
	}
	return &Matcher[P, C]{inner: m}, nil
}

// Produce offers an item; the channel yields the matched request.
func (m *Matcher[P, C]) Produce(item P) (<-chan C, error) { return m.inner.Produce(item) }

// Consume submits a request; the channel yields the matched item.
func (m *Matcher[P, C]) Consume(req C) (<-chan P, error) { return m.inner.Consume(req) }

// Pending returns the number of unmatched tokens currently parked.
func (m *Matcher[P, C]) Pending() int { return m.inner.Pending() }

// CentralCounter is the centralized single-node counter baseline.
type CentralCounter = baseline.Central

// NewCentralCounter places a counter object on the ring node owning name.
func NewCentralCounter(ring *Ring, name string) (*CentralCounter, error) {
	return baseline.NewCentral(ring, name)
}

// StaticNetwork is the balancer-per-object static bitonic baseline.
type StaticNetwork = baseline.Static

// NewStaticNetwork builds the width-w balancer-per-object network.
func NewStaticNetwork(ring *Ring, width int) (*StaticNetwork, error) {
	return baseline.NewStatic(ring, width)
}

// DiffractingTree is the counting-tree baseline.
type DiffractingTree = baseline.DiffractingTree

// NewDiffractingTree builds a counting tree with 2^depth leaf counters.
func NewDiffractingTree(depth int) (*DiffractingTree, error) {
	return baseline.NewDiffractingTree(depth)
}

// ReactiveTree is the reactive diffracting tree baseline (related work):
// a counting tree that unfolds under load and folds when idle.
type ReactiveTree = baseline.ReactiveTree

// NewReactiveTree builds a reactive diffracting tree: a leaf unfolds when
// its per-window load reaches unfoldAt and sibling leaves fold when their
// combined window load drops below foldAt.
func NewReactiveTree(unfoldAt, foldAt uint64, maxDepth int) (*ReactiveTree, error) {
	return baseline.NewReactiveTree(unfoldAt, foldAt, maxDepth)
}

// Controller drives a Cluster toward the cut the paper's decentralized
// rules converge to for a given overlay, running the freeze protocol
// against live traffic.
type Controller = dist.Controller

// NewController attaches a controller to an asynchronous cluster and a
// Chord ring.
func NewController(cl *Cluster, ring *Ring) *Controller {
	return dist.NewController(cl, ring)
}

// SizeError reports a non-positive burst or sender count passed to
// workload.InjectShares.
type SizeError = workload.SizeError

// SimConfig configures a discrete-event simulation of the network (node
// queueing, link delays, Poisson arrivals).
type SimConfig = sim.Config

// SimResult summarizes a simulation run (throughput, latency percentiles,
// peak node utilization).
type SimResult = sim.Result

// Simulate runs one discrete-event simulation to completion.
func Simulate(cfg SimConfig) (SimResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return SimResult{}, err
	}
	return s.Run()
}
