package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// RPCObsConfig configures server-side RPC observation. Any field may be
// left zero: a nil Tracer opens no spans, a nil Registry records no
// histograms, a nil Flight records no flight events, and a zero
// SlowThreshold disables the slow-RPC log.
type RPCObsConfig struct {
	// Tracer opens server-side child spans for sampled trace contexts.
	Tracer *Tracer
	// Registry receives per-kind "rpc.<kind>.seconds" latency histograms
	// and "rpc.<kind>.slow" / "rpc.<kind>.errors" counters.
	Registry *Registry
	// Flight records completed RPCs that were sampled, slow or failed.
	Flight *FlightRecorder
	// SlowThreshold logs (and counts) handler executions at or above this
	// duration. Zero disables the threshold entirely.
	SlowThreshold time.Duration
	// SlowLog receives one line per slow RPC (defaults to io.Discard;
	// only consulted when SlowThreshold > 0).
	SlowLog io.Writer
}

// rpcKind caches everything per message kind so the per-RPC path does no
// string concatenation or map writes after an endpoint's first message of
// that kind: the latency histogram, the slow/error counters, and the
// pre-built server span name.
type rpcKind struct {
	hist     *Hist
	slow     *Counter
	errs     *Counter
	spanName string
}

// RPCObs observes the server side of RPC dispatch for a transport
// endpoint: per-kind latency histograms, child spans stitched to the
// caller's wire-propagated TraceContext, a slow-RPC threshold log, and
// flight-recorder entries for anything noteworthy (sampled, slow or
// failed). Transports hold it behind an atomic pointer and call
// Begin/End around the handler; both methods no-op on a nil receiver,
// and an unsampled context on a span-less path allocates nothing.
type RPCObs struct {
	cfg RPCObsConfig

	mu    sync.RWMutex
	kinds map[string]*rpcKind
}

// NewRPCObs creates an RPC observer from cfg.
func NewRPCObs(cfg RPCObsConfig) *RPCObs {
	if cfg.SlowLog == nil {
		cfg.SlowLog = io.Discard
	}
	return &RPCObs{cfg: cfg, kinds: make(map[string]*rpcKind)}
}

// kind returns the cached per-kind state, creating it on first use.
func (o *RPCObs) kind(name string) *rpcKind {
	o.mu.RLock()
	k := o.kinds[name]
	o.mu.RUnlock()
	if k != nil {
		return k
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if k = o.kinds[name]; k == nil {
		k = &rpcKind{
			hist:     o.cfg.Registry.Histogram("rpc."+name+".seconds", 0, 0.02, 400),
			slow:     o.cfg.Registry.Counter("rpc." + name + ".slow"),
			errs:     o.cfg.Registry.Counter("rpc." + name + ".errors"),
			spanName: "rpc:" + name,
		}
		o.kinds[name] = k
	}
	return k
}

// Begin starts observing one inbound RPC: it stamps the start time and,
// when the caller's context is sampled, opens a server-side child span
// named "rpc:<kind>". Pass both returns to End. A nil observer returns
// zero values that End accepts.
func (o *RPCObs) Begin(kindName string, tc TraceContext) (*Span, time.Time) {
	if o == nil {
		return nil, time.Time{}
	}
	var sp *Span
	if tc.Sampled() {
		sp = o.cfg.Tracer.startChild(o.kind(kindName).spanName, tc)
	}
	return sp, time.Now()
}

// End completes the observation begun by Begin: it records the handler
// latency in the per-kind histogram, finishes the span (stamping the
// error as an event first), applies the slow-RPC threshold, and hands a
// flight-recorder entry to the endpoint's ring when the RPC was sampled,
// slow or failed. A nil observer no-ops.
func (o *RPCObs) End(kindName, endpoint string, sp *Span, start time.Time, err error) {
	if o == nil {
		return
	}
	d := time.Since(start)
	k := o.kind(kindName)
	k.hist.Observe(d.Seconds())
	slow := o.cfg.SlowThreshold > 0 && d >= o.cfg.SlowThreshold
	if slow {
		k.slow.Inc()
		fmt.Fprintf(o.cfg.SlowLog, "slow rpc %s at %s: %v >= %v trace=%016x\n",
			kindName, endpoint, d, o.cfg.SlowThreshold, sp.Context().TraceID)
	}
	if err != nil {
		k.errs.Inc()
		sp.Event("error", err.Error(), 0)
	}
	sp.Finish()
	if o.cfg.Flight == nil || (sp == nil && !slow && err == nil) {
		return
	}
	fe := FlightEvent{At: start, Trace: sp.Context(), Kind: "rpc", Name: kindName, Dur: d}
	if err != nil {
		fe.Kind = "error"
		fe.Detail = err.Error()
	} else if slow {
		fe.Kind = "slow"
	}
	o.cfg.Flight.Record(endpoint, fe)
}
