package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// RetryConfig shapes the client's reliability behavior.
type RetryConfig struct {
	// Timeout is the per-attempt reply deadline.
	Timeout time.Duration
	// MaxRetries is the number of re-sends after the first attempt.
	MaxRetries int
	// Backoff is the wait before the first retry; it doubles per retry.
	Backoff time.Duration
	// BackoffCap bounds the exponential backoff.
	BackoffCap time.Duration
	// IDBase offsets the client's request-ID counter. Receiver dedup
	// tables key on the bare request ID per endpoint, so two clients in
	// different processes sending to the same endpoint must draw IDs from
	// disjoint ranges — give each process a distinct high-bits base (the
	// launch package uses partition-index << 48). Zero keeps the
	// single-process default of IDs starting at 1.
	IDBase uint64
}

// DefaultRetry is tuned for the microsecond-scale latencies the fault
// injector uses: at 5% leg loss, 8 retries leave a per-call failure
// probability below 1e-8.
func DefaultRetry() RetryConfig {
	return RetryConfig{
		Timeout:    2 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    250 * time.Microsecond,
		BackoffCap: 4 * time.Millisecond,
	}
}

func (c RetryConfig) withDefaults() RetryConfig {
	d := DefaultRetry()
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.Backoff <= 0 {
		c.Backoff = d.Backoff
	}
	if c.BackoffCap < c.Backoff {
		c.BackoffCap = c.Backoff
	}
	return c
}

// ClientStats count logical calls and the reliability work done for them.
type ClientStats struct {
	Calls    uint64 // logical request/response calls issued
	Retries  uint64 // re-send attempts beyond the first
	Timeouts uint64 // attempts that ended in ErrTimeout
	Failures uint64 // calls that exhausted their retry budget
}

// Sub returns the field-wise difference s - prev, isolating the calls made
// between two snapshots of the same client.
func (s ClientStats) Sub(prev ClientStats) ClientStats {
	return ClientStats{
		Calls:    s.Calls - prev.Calls,
		Retries:  s.Retries - prev.Retries,
		Timeouts: s.Timeouts - prev.Timeouts,
		Failures: s.Failures - prev.Failures,
	}
}

// Client is the reliability layer over a Transport: every logical call gets
// a fresh message ID; timeouts trigger capped exponential backoff retries
// that reuse the ID, so the receiver's dedup cache keeps handler effects
// at-most-once while the wire sees at-least-once attempts.
//
// A Client is safe for concurrent use; calls from concurrent goroutines
// proceed independently — the hot path is lock-free (atomic counters and
// an atomically-swapped handle set), so concurrent senders do not
// serialize on a stats mutex.
type Client struct {
	tr  Transport
	cfg RetryConfig

	next     atomic.Uint64
	calls    atomic.Uint64
	retries  atomic.Uint64
	timeouts atomic.Uint64
	failures atomic.Uint64

	// Observability handles, swapped in atomically by Instrument; nil when
	// uninstrumented (the obs types no-op on nil receivers).
	instr atomic.Pointer[clientInstruments]
}

// clientInstruments bundles the client's obs handles so they install
// atomically.
type clientInstruments struct {
	rtt      *obs.Hist // per-logical-call wall seconds (including retries)
	backoff  *obs.Hist // backoff sleeps before retries, seconds
	attempts *obs.Hist // attempts per call (1 = first try succeeded)
}

// noClientInstr is the uninstrumented handle set: all nil, all no-ops.
var noClientInstr = &clientInstruments{}

// Instrument routes the client's reliability distributions — per-call
// round-trip time, retry backoff, and attempts-per-call — into reg. The
// handle set installs atomically, so instrumenting while traffic flows is
// safe (calls already in flight keep the previous handles).
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.instr.Store(&clientInstruments{
		rtt:      reg.Histogram("transport.call.seconds", 0, 0.02, 400),
		backoff:  reg.Histogram("transport.retry.backoff.seconds", 0, 0.01, 200),
		attempts: reg.Histogram("transport.call.attempts", 0, 20, 20),
	})
}

// NewClient creates a reliability client over tr. Zero RetryConfig fields
// take the DefaultRetry values.
func NewClient(tr Transport, cfg RetryConfig) *Client {
	c := &Client{tr: tr, cfg: cfg.withDefaults()}
	c.next.Store(cfg.IDBase)
	return c
}

// Transport returns the fabric this client sends on.
func (c *Client) Transport() Transport { return c.tr }

// Call issues one reliable request and returns the reply. Transport
// timeouts are retried with backoff; ErrUnreachable and application errors
// are returned immediately (the former means the caller should re-resolve
// the address, the latter means the request was delivered).
func (c *Client) Call(from, to Addr, kind string, body any) (any, error) {
	return c.CallSpan(from, to, kind, body, nil)
}

// CallSpan is Call with an optional trace span: each retry is recorded as
// a "retry" event on sp (nil-safe), so a sampled token's trace shows the
// reliability work its messages cost.
func (c *Client) CallSpan(from, to Addr, kind string, body any, sp *obs.Span) (any, error) {
	req := Request{ID: c.next.Add(1), From: from, To: to, Kind: kind, Trace: sp.Context(), Body: body}
	c.calls.Add(1)
	ins, start := c.begin()
	reply, err := c.tr.Send(req, c.cfg.Timeout)
	return c.settle(req, sp, ins, start, reply, err)
}

// CallBatch issues len(reqs) independent reliable calls and returns when
// every one has settled: replies[i] and errs[i] are what Call would have
// returned for reqs[i]. The caller fills From, To, Kind and Body; each
// request gets a fresh ID and sp's trace context here, and counts as one
// logical call.
//
// On a fabric that implements BatchSender the first attempts leave as one
// SendBatch, so every request leaves before any reply is awaited; a
// request whose first attempt times out is then retried on its own, with
// the same ID, exactly as Call retries. On any other fabric the requests
// are sent one after another on the caller's goroutine, each settled
// before the next leaves — the requests of one batch never overlap in
// time there, which callers that interpose on Send may rely on.
func (c *Client) CallBatch(reqs []Request, replies []any, errs []error, sp *obs.Span) {
	trace := sp.Context()
	for i := range reqs {
		reqs[i].ID = c.next.Add(1)
		reqs[i].Trace = trace
	}
	c.calls.Add(uint64(len(reqs)))
	bs, ok := c.tr.(BatchSender)
	if !ok || len(reqs) < 2 {
		for i, req := range reqs {
			ins, start := c.begin()
			reply, err := c.tr.Send(req, c.cfg.Timeout)
			replies[i], errs[i] = c.settle(req, sp, ins, start, reply, err)
		}
		return
	}
	ins, start := c.begin()
	bs.SendBatch(reqs, c.cfg.Timeout, replies, errs)
	for i, req := range reqs {
		replies[i], errs[i] = c.settle(req, sp, ins, start, replies[i], errs[i])
	}
}

// begin loads the instrument handles and, when call latency is observed,
// the call's start time.
func (c *Client) begin() (*clientInstruments, time.Time) {
	ins := c.instr.Load()
	if ins == nil {
		ins = noClientInstr
	}
	var start time.Time
	if ins.rtt != nil {
		start = time.Now()
	}
	return ins, start
}

// settle finishes a logical call whose first attempt returned (reply,
// err): anything but ErrTimeout is final; a timeout re-sends the same
// request — same ID, so receiver dedup keeps its effect at-most-once —
// with capped exponential backoff until the retry budget is spent.
func (c *Client) settle(req Request, sp *obs.Span, ins *clientInstruments, start time.Time, reply any, err error) (any, error) {
	backoff := c.cfg.Backoff
	for attempt := 0; ; attempt++ {
		if err == nil || !errors.Is(err, ErrTimeout) {
			ins.attempts.Observe(float64(attempt + 1))
			ins.rtt.Since(start)
			return reply, err
		}
		c.timeouts.Add(1)
		if attempt >= c.cfg.MaxRetries {
			c.failures.Add(1)
			ins.attempts.Observe(float64(attempt + 1))
			ins.rtt.Since(start) // the slowest calls are the ones that fail
			return nil, fmt.Errorf("transport: call %q to %q failed after %d attempts: %w",
				req.Kind, req.To, attempt+1, err)
		}
		c.retries.Add(1)
		if sp != nil {
			sp.Event("retry", req.Kind+" to "+string(req.To), int64(attempt+1))
		}
		ins.backoff.ObserveDuration(backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > c.cfg.BackoffCap {
			backoff = c.cfg.BackoffCap
		}
		reply, err = c.tr.Send(req, c.cfg.Timeout)
	}
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:    c.calls.Load(),
		Retries:  c.retries.Load(),
		Timeouts: c.timeouts.Load(),
		Failures: c.failures.Load(),
	}
}
