// Package transport is the message-level fabric the simulated system runs
// on: Chord finger/probe RPCs, dist token hops and the freeze/drain control
// messages all travel as request/response messages through a Transport.
//
// Three layers compose:
//
//   - Net, a deterministic in-memory switch: endpoints bind handlers to
//     addresses, Send delivers synchronously and reliably. This is the
//     default fabric, so everything built on it stays exactly as
//     reproducible as direct function calls.
//   - Faulty, a fault-injection wrapper: seeded latency jitter, message
//     drops (request and reply legs independently), duplication,
//     reordering and pairwise partitions. A dropped leg surfaces as
//     ErrTimeout after the caller's deadline.
//   - Client, the reliability layer: per-call message IDs, per-attempt
//     timeouts and capped exponential backoff retries. Together with the
//     receiver-side dedup cache (enabled by Faulty) this gives at-most-once
//     handler execution with at-least-once delivery attempts — the
//     combination that keeps counting exact under message loss (E24).
//
// The design follows the pluggable in-memory transport idiom of gossip
// implementations (e.g. brahms' MemNetTransport): tests and experiments
// drive the same code paths a real network stack would, with faults under
// deterministic seeded control.
package transport

import (
	"errors"
	"time"

	"repro/internal/obs"
)

// Addr is a transport endpoint address. Conventional namespaces: "n:<id>"
// for overlay nodes, "c:<path>#<gen>" for component incarnations, "ctl" for
// reconfiguration coordinators. "t:<n>" names a dist batch in Request.From
// and is never bound: nothing is sent to a token.
type Addr string

// Request is one transport-level message: a request that expects a reply.
type Request struct {
	// ID identifies the logical call. Retries and network duplicates reuse
	// the ID, which is what receiver-side dedup keys on.
	ID   uint64
	From Addr
	To   Addr
	// Kind is the application-level message discriminator ("arrive",
	// "freeze", "cpf", ...).
	Kind string
	// Trace carries the caller's trace context across the transport (and,
	// for wire-encoded transports, across the socket): receivers stitch
	// server-side RPC spans to it. The zero value means unsampled and
	// costs nothing downstream.
	Trace obs.TraceContext
	// Body is the request payload (in-memory transport: passed by value).
	Body any
}

// Handler serves requests addressed to one endpoint. The returned value is
// the reply payload; a returned error is an application error, delivered to
// the caller without retries (the request WAS delivered).
//
// The slices of req.Body belong to the fabric and are valid only until the
// handler returns: a socket fabric decodes them into memory it reuses for a
// later request. A handler must not keep them, nor return them in its reply
// (a dedup table keeps replies for retries); it copies what it needs.
type Handler func(req Request) (any, error)

// Transport moves requests between endpoints.
type Transport interface {
	// Bind registers the handler for an address. Binding an already-bound
	// address is an error.
	Bind(a Addr, h Handler) error
	// Unbind removes an endpoint (and its dedup state).
	Unbind(a Addr)
	// Send delivers req to the endpoint bound at req.To and returns its
	// reply. timeout bounds the wait: a transport that loses or delays the
	// request or the reply returns ErrTimeout once the deadline passes.
	Send(req Request, timeout time.Duration) (any, error)
	// Stats returns a snapshot of the per-message counters.
	Stats() Stats
}

// RPCInstrumenter is implemented by fabrics that can observe server-side
// handler execution (the in-memory Net and tcpnet.Net): per-kind latency
// histograms, child spans stitched to the request's trace context, and
// the observer's slow-RPC / flight-recorder policies.
type RPCInstrumenter interface {
	InstrumentRPC(*obs.RPCObs)
}

// BatchSender is implemented by fabrics that can put several independent
// requests on the wire together (tcpnet: one vectored write per
// destination) and wait for their replies under one deadline. SendBatch
// is len(reqs) Sends issued at once: replies[i] and errs[i] receive what
// Send(reqs[i], timeout) would have returned, a late reply is that
// request's ErrTimeout alone, and the slices all have the same length.
// Client.CallBatch uses it when present and falls back to sequential
// Sends otherwise, so wrappers need not forward it.
type BatchSender interface {
	SendBatch(reqs []Request, timeout time.Duration, replies []any, errs []error)
}

// Placer is implemented by fabrics that know placement: Site names the
// fabric instance a request addressed to a would be served by. The empty
// string is this same instance, with no socket or process in between (the
// in-memory switch: always; tcpnet: when its routes resolve a to its own
// listener) — a handler may then hand work to the endpoint at a directly
// instead of sending it a message. Two addresses with the same Site are
// served by the same instance, so work for both can travel there in one
// message. The answer is read per request, since routes can be installed
// after construction. A fabric or wrapper without the capability answers
// nothing, which callers must take as "each address is served somewhere
// else again": hiding it can cost speed, never correctness. Faulty
// deliberately does not forward it — a fault injector exists to put every
// message at risk.
type Placer interface {
	Site(a Addr) string
}

// ErrTimeout is returned by Send when no reply arrived within the deadline
// (the request or the reply was lost or excessively delayed).
var ErrTimeout = errors.New("transport: timed out waiting for reply")

// ErrUnreachable is returned by Send when no endpoint is bound at the
// destination. It is not retried by Client: the caller should re-resolve
// the address instead.
var ErrUnreachable = errors.New("transport: no endpoint bound at destination")

// Stats are cumulative per-message counters. Latency percentiles over the
// delivered-message samples are exposed separately (see Faulty.Latencies).
type Stats struct {
	Sent       uint64 // Send calls accepted (one per attempt, not per logical call)
	Delivered  uint64 // handler executions
	DedupHits  uint64 // arrivals answered from the dedup cache (handler not re-run)
	Dropped    uint64 // request or reply legs lost by fault injection
	Duplicated uint64 // extra deliveries injected by fault injection
	Reordered  uint64 // messages given an extra reordering delay
	Partitions uint64 // sends refused because the endpoint pair is partitioned
}

// Add returns the field-wise sum of two stats snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Sent:       s.Sent + o.Sent,
		Delivered:  s.Delivered + o.Delivered,
		DedupHits:  s.DedupHits + o.DedupHits,
		Dropped:    s.Dropped + o.Dropped,
		Duplicated: s.Duplicated + o.Duplicated,
		Reordered:  s.Reordered + o.Reordered,
		Partitions: s.Partitions + o.Partitions,
	}
}

// Sub returns the field-wise difference s - prev: the activity between two
// snapshots of the same cumulative counters. Taking prev before an
// experiment phase and subtracting it after isolates that phase's traffic.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Sent:       s.Sent - prev.Sent,
		Delivered:  s.Delivered - prev.Delivered,
		DedupHits:  s.DedupHits - prev.DedupHits,
		Dropped:    s.Dropped - prev.Dropped,
		Duplicated: s.Duplicated - prev.Duplicated,
		Reordered:  s.Reordered - prev.Reordered,
		Partitions: s.Partitions - prev.Partitions,
	}
}
