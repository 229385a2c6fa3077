package dist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
)

// traceObserved wires the full trace spine onto a cluster: stride-1 token
// sampling, a registry, a flight recorder, and server-side RPC spans on
// the cluster's fabric.
func traceObserved(t *testing.T, cl *Cluster) (*obs.Tracer, *obs.Registry, *obs.FlightRecorder) {
	t.Helper()
	reg := obs.NewRegistry()
	cl.Instrument(reg)
	tr := cl.Trace(1, 256)
	fr := obs.NewFlightRecorder(32)
	reg.AddFlightRecorder(fr)
	if !cl.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{
		Tracer:   tr,
		Registry: reg,
		Flight:   fr,
	})) {
		t.Fatal("fabric does not support InstrumentRPC")
	}
	return tr, reg, fr
}

// spansByTrace indexes finished spans by trace ID.
func spansByTrace(spans []*obs.Span) map[uint64][]*obs.Span {
	out := make(map[uint64][]*obs.Span)
	for _, s := range spans {
		out[s.TraceID] = append(out[s.TraceID], s)
	}
	return out
}

// TestTraceStitchingOverTCP pins the tentpole property: a single token
// injected over a real socket yields exactly one trace ID, whose server-side
// RPC spans parent directly to the injection span — the trace context survived
// the wire codec and the TCP hop. Run under -race, the client goroutine
// and the server-side span openings also prove the spine race-clean.
func TestTraceStitchingOverTCP(t *testing.T) {
	w := 8
	cl, _ := tcpCluster(t, w, tree.RootCut(), 0)
	tr, reg, fr := traceObserved(t, cl)

	if _, err := cl.Inject(3); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byTrace := spansByTrace(spans)
	if len(byTrace) != 1 {
		t.Fatalf("got %d trace IDs, want 1 (spans: %v)", len(byTrace), spanNames(spans))
	}
	var root *obs.Span
	var rpcs []*obs.Span
	for _, s := range spans {
		if s.Name == "batch" {
			root = s
		} else if strings.HasPrefix(s.Name, "rpc:") {
			rpcs = append(rpcs, s)
		} else {
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	if root == nil {
		t.Fatal("no injection root span")
	}
	if root.ParentID != 0 {
		t.Fatalf("root span has parent %x", root.ParentID)
	}
	if len(rpcs) == 0 {
		t.Fatal("no server-side RPC spans: trace context did not survive the socket")
	}
	for _, s := range rpcs {
		if s.TraceID != root.TraceID {
			t.Fatalf("rpc span %q trace %x, want %x", s.Name, s.TraceID, root.TraceID)
		}
		if s.ParentID != root.SpanID {
			t.Fatalf("rpc span %q parent %x, want injection span %x", s.Name, s.ParentID, root.SpanID)
		}
	}

	// The sampled RPCs also landed in the flight recorder, keyed by the
	// component endpoint.
	recorded := 0
	for _, evs := range fr.Snapshot() {
		recorded += len(evs)
	}
	if recorded == 0 {
		t.Fatal("flight recorder empty after sampled RPCs")
	}

	// And the registry trace source round-trips through the Perfetto
	// exporter as valid trace-event JSON.
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, reg.TraceSpans()); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ValidateTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if events < len(spans) {
		t.Fatalf("exported %d trace events for %d spans", events, len(spans))
	}
}

// TestBatchTraceStitchingOverTCP: one InjectBatch over tcpnet is one
// stitched timeline — a single batch root span whose per-component-visit
// group RPCs appear as rpc:agroup child spans under the same trace ID.
func TestBatchTraceStitchingOverTCP(t *testing.T) {
	w := 8
	cl, _ := tcpCluster(t, w, mustCut(t, w, 1), 0)
	tr, _, _ := traceObserved(t, cl)

	ins := make([]int, 32)
	for i := range ins {
		ins[i] = i % w
	}
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byTrace := spansByTrace(spans)
	if len(byTrace) != 1 {
		t.Fatalf("got %d trace IDs, want 1 (spans: %v)", len(byTrace), spanNames(spans))
	}
	var root *obs.Span
	agroups := 0
	for _, s := range spans {
		switch s.Name {
		case "batch":
			root = s
		case "rpc:agroup":
			agroups++
		default:
			t.Fatalf("unexpected span %q", s.Name)
		}
	}
	if root == nil {
		t.Fatal("no batch root span")
	}
	if agroups == 0 {
		t.Fatal("no rpc:agroup server spans")
	}
	for _, s := range spans {
		if s == root {
			continue
		}
		if s.ParentID != root.SpanID {
			t.Fatalf("span %q parent %x, want batch span %x", s.Name, s.ParentID, root.SpanID)
		}
	}
}

// TestHopEventsSumToDepth pins what a sampled single token's span shows: one
// group event per group arrive RPC, carrying the number of components that
// RPC stepped, so a token's group events always sum to the components on its
// path. On one fabric that is a single event of 6 (and one server-side
// rpc:agroup span) at the level-2 cut of BITONIC[64]; behind a wrapper that
// hides the fabric's placement knowledge it is six events of 1.
func TestHopEventsSumToDepth(t *testing.T) {
	const w, tokens = 64, 40
	cut := mustCut(t, w, 2)
	for _, tc := range []struct {
		name string
		opts []Option
		rpcs int // per token
	}{
		{"one fabric", nil, 1},
		{"placement hidden", []Option{WithTransport(hideCaps{transport.NewMem()})}, 6},
	} {
		cl, err := New(w, cut, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		tr := cl.Trace(1, 8*tokens)
		if tc.opts == nil && !cl.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{Tracer: tr})) {
			t.Fatal("fabric does not support InstrumentRPC")
		}
		for _, in := range randomWires(23, tokens, w) {
			if _, err := cl.Inject(in); err != nil {
				t.Fatal(err)
			}
		}
		roots, served := 0, 0
		for _, s := range tr.Spans() {
			if s.Name == "rpc:"+kindGroupArrive {
				served++
				continue
			}
			roots++
			hops, steps := 0, int64(0)
			for _, e := range s.Events {
				if e.Kind == "group" {
					hops++
					steps += e.V
				}
			}
			if hops != tc.rpcs || steps != 6 {
				t.Fatalf("%s: a token span has %d group events summing to %d steps, want %d summing to 6", tc.name, hops, steps, tc.rpcs)
			}
		}
		if roots != tokens {
			t.Fatalf("%s: %d token spans for %d tokens", tc.name, roots, tokens)
		}
		if tc.opts == nil && served != tokens {
			t.Fatalf("%s: %d server-side arrive spans for %d tokens, want one each", tc.name, served, tokens)
		}
	}
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
