package dist

import (
	"repro/internal/obs"
	"repro/internal/transport"
)

// Option configures a Cluster at construction. Options compose left to
// right; the zero set reproduces New's historical behavior (in-memory
// fabric, default retries, no observability). The facade re-exports
// these, so application callers and experiments build clusters through
// one path instead of a positional-constructor zoo.
type Option func(*options)

type options struct {
	tr          transport.Transport
	retry       transport.RetryConfig
	reg         *obs.Registry
	traceEvery  int
	traceRetain int
}

// WithTransport runs the cluster's token and control messages over tr.
// Pass a transport.Faulty to exercise the freeze protocol under message
// loss, delay, duplication and reordering; omit for the ideal in-memory
// fabric.
func WithTransport(tr transport.Transport) Option {
	return func(o *options) { o.tr = tr }
}

// WithRetry sets the reliability client's retry policy (zero fields take
// transport.DefaultRetry values). RetryConfig.IDBase matters in
// multi-process topologies: give each process a disjoint ID range so
// receiver dedup tables never alias calls from different processes.
func WithRetry(rc transport.RetryConfig) Option {
	return func(o *options) { o.retry = rc }
}

// WithObs instruments the cluster's protocol distributions into reg,
// like a post-construction Instrument call.
func WithObs(reg *obs.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithTrace installs a span sampler (1-in-every stride, bounded retain),
// like a post-construction Trace call; combine with WithObs to export
// the spans through the registry's trace sources.
func WithTrace(every, retain int) Option {
	return func(o *options) { o.traceEvery, o.traceRetain = every, retain }
}
