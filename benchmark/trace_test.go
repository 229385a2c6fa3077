package main

import (
	"testing"
	"time"

	"repro/internal/transport"
)

func TestUnionAndSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		span     ival
		children []ival
		union    int64
	}{
		{"no children", ival{0, 100}, nil, 0},
		{"one child", ival{0, 100}, []ival{{10, 30}}, 20},
		{"sequential children", ival{0, 100}, []ival{{10, 30}, {30, 60}, {70, 80}}, 60},
		{"overlapping parallel children", ival{0, 100}, []ival{{10, 50}, {30, 70}}, 60},
		{"nested child", ival{0, 100}, []ival{{10, 90}, {20, 30}}, 80},
		{"unsorted", ival{0, 100}, []ival{{70, 80}, {10, 30}}, 30},
		{"child sticking out", ival{50, 100}, []ival{{40, 60}, {90, 120}}, 20},
		{"child outside", ival{50, 100}, []ival{{0, 40}}, 0},
	}
	for _, c := range cases {
		if got := unionLen(c.children, c.span.lo, c.span.hi); got != c.union {
			t.Errorf("%s: union %d, want %d", c.name, got, c.union)
		}
		if got, want := selfTime(c.span, c.children), c.span.dur()-c.union; got != want {
			t.Errorf("%s: self time %d, want %d", c.name, got, want)
		}
	}
}

func TestOpBreakdown(t *testing.T) {
	cases := []struct {
		name                              string
		op                                ival
		rpcs                              []rpcSpans
		client, fabric, handler, residual int64
	}{
		{
			name: "sequential Sends, as dist.Inject issues them",
			op:   ival{0, 100},
			rpcs: []rpcSpans{
				{send: ival{10, 40}, handlers: []ival{{20, 25}}},
				{send: ival{50, 90}, handlers: []ival{{60, 70}}},
			},
			client: 30, fabric: 25 + 30, handler: 15, residual: 0,
		},
		{
			name: "overlapping parallel Sends inside one InjectBatch",
			op:   ival{0, 100},
			rpcs: []rpcSpans{
				{send: ival{10, 50}, handlers: []ival{{20, 30}}},
				{send: ival{30, 70}, handlers: []ival{{40, 45}}},
			},
			// The client's self time takes the union of the Sends (60), not
			// their sum (80); the 20 both Sends cover shows as residual.
			client: 40, fabric: 30 + 35, handler: 15, residual: 20,
		},
		{
			name:   "a Send whose handler span was lost",
			op:     ival{0, 50},
			rpcs:   []rpcSpans{{send: ival{10, 40}}},
			client: 20, fabric: 30, handler: 0, residual: 0,
		},
	}
	for _, c := range cases {
		client, fabric, handler, residual := opBreakdown(c.op, c.rpcs)
		if client != c.client || fabric != c.fabric || handler != c.handler || residual != c.residual {
			t.Errorf("%s: client %d fabric %d handler %d residual %d, want %d %d %d %d", c.name,
				client, fabric, handler, residual, c.client, c.fabric, c.handler, c.residual)
		}
	}
}

// TestTracerLinksSendsToOps drives the claim rule: a Send belongs to the op
// that holds its endpoint, a first Send to the op that has not sent yet, and
// only one op at a time is in that state.
func TestTracerLinksSendsToOps(t *testing.T) {
	tr := newTracer(2, 16)
	tr.begin(time.Now())
	tr.beginOp(0, 7)

	// Sender 1 cannot begin before op (0,7) has sent: otherwise the first
	// Send to come could be either's.
	began := make(chan struct{})
	go func() {
		tr.beginOp(1, 3)
		close(began)
	}()
	select {
	case <-began:
		t.Fatal("two ops were let into the run-up to their first Send")
	case <-time.After(20 * time.Millisecond):
	}
	if s, k := tr.claim("t:1"); s != 0 || k != 7 {
		t.Fatalf("first Send went to op (%d,%d), want (0,7)", s, k)
	}
	<-began
	// The pool may hand an op any endpoint, also one it never saw.
	if s, k := tr.claim("t:9"); s != 1 || k != 3 {
		t.Fatalf("other endpoint's first Send went to op (%d,%d), want (1,3)", s, k)
	}
	if s, k := tr.claim("t:1"); s != 0 || k != 7 {
		t.Fatalf("second Send of op (0,7) went to (%d,%d)", s, k)
	}
	if s, _ := tr.claim("c:x#1"); s != -1 {
		t.Fatalf("a Send from no op's endpoint was given to sender %d", s)
	}
	tr.endOp(0)
	tr.endOp(1)
	if s, _ := tr.claim("t:1"); s != -1 {
		t.Fatalf("a Send after its op ended was given to sender %d", s)
	}
	// An op that ends without a Send gives the turn back.
	tr.beginOp(0, 8)
	tr.endOp(0)
	tr.beginOp(1, 4)
	if s, k := tr.claim("t:1"); s != 1 || k != 4 {
		t.Fatalf("after an op without Sends, the next first Send went to (%d,%d), want (1,4)", s, k)
	}
	tr.endOp(1)
}

// redelivering is a fabric that reports it can redeliver, like tcpnet.
type redelivering struct {
	*transport.Net
	dedup bool
}

func (r *redelivering) CanRedeliver() bool { return true }
func (r *redelivering) EnableDedup()       { r.dedup = true; r.Net.EnableDedup() }

func TestTracedTransport(t *testing.T) {
	inner := &redelivering{Net: transport.NewMem()}
	tr := newTracer(1, 16)
	var fabric transport.Transport = &tracedTransport{Transport: inner, t: tr}

	// dist switches dedup on exactly when the fabric says it can redeliver;
	// the wrapper must not hide that.
	rd, ok := fabric.(transport.Redeliverer)
	if !ok || !rd.CanRedeliver() {
		t.Fatal("tracedTransport hides the inner fabric's CanRedeliver")
	}
	rd.EnableDedup()
	if !inner.dedup {
		t.Fatal("EnableDedup did not reach the inner fabric")
	}
	if _, ok := transport.Transport(&tracedTransport{Transport: transport.NewMem(), t: tr}).(transport.Redeliverer); !ok {
		t.Fatal("wrapper over a plain fabric must still answer the capability probe")
	}
	if (&tracedTransport{Transport: transport.NewMem(), t: tr}).CanRedeliver() {
		t.Fatal("wrapper over the in-memory switch claims it can redeliver")
	}

	if err := fabric.Bind("c:a#1", func(req transport.Request) (any, error) {
		time.Sleep(time.Millisecond)
		return req.Body, nil
	}); err != nil {
		t.Fatal(err)
	}
	send := func(id uint64) {
		t.Helper()
		reply, err := fabric.Send(transport.Request{ID: id, From: "t:1", To: "c:a#1", Kind: "arrive", Body: id}, time.Second)
		if err != nil || reply != any(id) {
			t.Fatalf("Send %d through the wrapper: %v, %v", id, reply, err)
		}
	}
	send(1) // before begin: warm-up traffic leaves no spans
	if len(tr.sends)+len(tr.handlers) != 0 {
		t.Fatalf("spans recorded while the tracer was off: %d sends, %d handlers", len(tr.sends), len(tr.handlers))
	}
	tr.begin(time.Now())
	tr.beginOp(0, 0)
	send(2)
	send(3)
	end := tr.since()
	tr.endOp(0)

	st := tr.analyze([][]ival{{{0, end}}})
	if st.ops != 1 || st.linked != 1 || len(st.fabricSelf) != 2 || len(st.handler) != 2 {
		t.Fatalf("analyze: %d ops, %d linked, %d Sends, %d handlers; want 1, 1, 2, 2", st.ops, st.linked, len(st.fabricSelf), len(st.handler))
	}
	if st.handlerTotal < int64(2*time.Millisecond) {
		t.Errorf("handler time %v, want at least the 2ms the handlers slept", time.Duration(st.handlerTotal))
	}
	if got := st.clientTotal + st.fabricTotal + st.handlerTotal + st.residual; got != st.opTotal {
		t.Errorf("layers and residual add to %d, the op took %d", got, st.opTotal)
	}
	if st.residual != 0 {
		t.Errorf("sequential Sends left a residual of %d", st.residual)
	}
}
