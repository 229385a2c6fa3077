package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the wire-propagable identity of a sampled trace: the
// 64-bit trace ID shared by every span of one causal journey, and the span
// ID of the currently-open span (the parent of any span a receiver opens
// for this context). The zero value means "unsampled": it costs two zero
// varint bytes on the wire and produces no spans anywhere downstream.
type TraceContext struct {
	TraceID uint64 `json:"traceId"`
	SpanID  uint64 `json:"spanId"`
}

// Sampled reports whether this context belongs to a sampled trace.
func (tc TraceContext) Sampled() bool { return tc.TraceID != 0 }

// idSeq drives trace and span ID generation: a process-wide sequence fed
// through a splitmix64 finalizer, so IDs are unique within a process,
// deterministic per run, and well mixed (the Perfetto exporter and the
// flight recorder key on them).
var idSeq atomic.Uint64

// newID returns a fresh nonzero 64-bit identifier.
func newID() uint64 {
	for {
		if x := splitmix64(idSeq.Add(1)); x != 0 {
			return x
		}
	}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// mixer, so distinct sequence values can never collide.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Tracer samples per-token trace spans. Every Nth Start call (the sampling
// stride) returns a live *Span; the rest return nil, and all Span methods
// no-op on nil, so an unsampled token pays one atomic increment and no
// allocation. Finished spans are retained in a bounded ring buffer: a
// full-load run keeps the last `retain` sampled journeys for inspection
// without unbounded memory.
//
// Sampled spans carry real identity — a trace ID, a span ID and a parent
// span ID — so spans opened on other endpoints for the same journey (via
// the RPC middleware and a wire-propagated TraceContext) stitch into one
// trace.
type Tracer struct {
	every  uint64
	retain int

	seq     atomic.Uint64 // Start calls (sampling decisions)
	sampled atomic.Uint64 // Start calls that produced a span

	mu    sync.Mutex
	ring  []*Span // finished spans, ring-ordered
	next  int     // ring write position
	total uint64  // finished spans ever recorded
}

// NewTracer creates a tracer sampling one in `every` spans (minimum 1 =
// every span) and retaining the last `retain` finished spans (default 64).
func NewTracer(every, retain int) *Tracer {
	if every < 1 {
		every = 1
	}
	if retain < 1 {
		retain = 64
	}
	return &Tracer{every: uint64(every), retain: retain}
}

// Start begins a span when the sampling stride selects this call, and
// returns nil otherwise. Safe for concurrent use; a nil tracer always
// returns nil.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	if (t.seq.Add(1)-1)%t.every != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &Span{
		t: t, Name: name, Begin: time.Now(), Events: make([]Event, 0, 8),
		TraceID: newID(), SpanID: newID(),
	}
}

// startChild begins a span belonging to an existing trace: the child keeps
// the parent's trace ID and records the parent's span ID as its parent.
// Receivers call it with a wire-propagated TraceContext to open the
// server-side half of an RPC. Child spans follow the parent's sampling
// decision rather than the stride: an unsampled parent context (or a nil
// tracer) returns nil, so the unsampled path allocates nothing.
func (t *Tracer) startChild(name string, parent TraceContext) *Span {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return &Span{
		t: t, Name: name, Begin: time.Now(), Events: make([]Event, 0, 4),
		TraceID: parent.TraceID, SpanID: newID(), ParentID: parent.SpanID,
	}
}

// keep records a finished span in the retention ring.
func (t *Tracer) keep(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total++
	if len(t.ring) < t.retain {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % t.retain
}

// Sampled returns how many Start calls produced a span (0 on nil).
func (t *Tracer) Sampled() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Started returns how many Start calls were made (0 on nil).
func (t *Tracer) Started() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Spans returns the retained finished spans, oldest first. Nil tracers
// return nil.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		out = append(out, t.ring[(t.next+i)%len(t.ring)])
	}
	return out
}

// WriteSpans renders up to max retained spans (newest last), one event per
// line, for the human-readable export surface.
func (t *Tracer) WriteSpans(w io.Writer, max int) error {
	spans := t.Spans()
	if len(spans) > max && max > 0 {
		spans = spans[len(spans)-max:]
	}
	for _, s := range spans {
		if _, err := fmt.Fprintf(w, "span %s trace=%016x (%v, %d events)\n", s.Name, s.TraceID, s.Dur, len(s.Events)); err != nil {
			return err
		}
		for _, e := range s.Events {
			if _, err := fmt.Fprintf(w, "  +%-12v %-10s %s", e.At, e.Kind, e.Detail); err != nil {
				return err
			}
			if e.V != 0 {
				if _, err := fmt.Fprintf(w, " (%d)", e.V); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Event is one step of a traced journey: a component visited, a wire hop,
// a DHT lookup, a retry, a queue/drain wait.
type Event struct {
	At     time.Duration `json:"at"`   // offset from the span's Begin
	Kind   string        `json:"kind"` // "comp", "lookup", "entry-try", "dead", ...
	Detail string        `json:"detail,omitempty"`
	V      int64         `json:"v,omitempty"` // numeric payload (hop count, wire, ...)
}

// Span is one sampled journey (or one server-side RPC within a journey).
// A span belongs to a single goroutine (the token it traces); only the
// tracer's retention ring is shared. All methods no-op on a nil receiver.
//
// TraceID groups every span of one causal journey; ParentID is the span
// that caused this one (zero for a root span). Context() packages the
// identity for wire propagation.
type Span struct {
	t        *Tracer
	Name     string        `json:"name"`
	TraceID  uint64        `json:"traceId"`
	SpanID   uint64        `json:"spanId"`
	ParentID uint64        `json:"parentId,omitempty"`
	Begin    time.Time     `json:"begin"`
	Dur      time.Duration `json:"dur"`
	Events   []Event       `json:"events"`
}

// Context returns the span's wire-propagable trace context. A nil span
// returns the zero (unsampled) context, so callers thread sp.Context()
// into outgoing requests without a nil check.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// Event appends one event at the current offset.
func (s *Span) Event(kind, detail string, v int64) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{At: time.Since(s.Begin), Kind: kind, Detail: detail, V: v})
}

// Finish stamps the span's duration and hands it to the tracer's
// retention ring.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.Begin)
	if s.t != nil {
		s.t.keep(s)
	}
}
