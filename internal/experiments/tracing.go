package experiments

import (
	"sort"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/estimate"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
)

// E29TraceBreakdown uses the distributed trace spine to decompose where a
// token's end-to-end latency goes, on the in-process fabric and over a
// real TCP loopback socket. Every token is sampled (stride 1); each
// injection opens a root span whose TraceContext rides the arrive RPCs
// through the wire codec, and the receiving fabric opens a server-side
// rpc:arrive child span around each handler execution. Subtracting the
// stitched server time from the root span's duration isolates the fabric
// overhead — codec, socket, scheduling — per hop, a number no single-side
// measurement can produce. The stitching itself is the checked claim:
// every server span must carry its root's trace ID and parent directly to
// the injection span, on both fabrics.
func E29TraceBreakdown(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E29",
		Title: "Trace-derived per-hop latency breakdown (mem vs tcpnet)",
		Claim: "wire-propagated trace contexts stitch server-side RPC spans to the injecting span over a real socket, decomposing per-token latency into handler time and fabric overhead",
		Headers: []string{"fabric", "tokens", "spans", "rpc spans", "hops/tok",
			"tok us p50", "handler us/hop", "fabric us/hop", "stitched"},
	}
	const (
		w     = 1 << 10
		nodes = 64
	)
	tokens := 256
	if opts.Quick {
		tokens = 64
	}
	level := estimate.IdealLevel(nodes, w)
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}
	retry := transport.RetryConfig{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}

	for _, fabric := range []string{"mem", "tcp"} {
		var tr transport.Transport
		var tn *tcpnet.Net
		if fabric == "tcp" {
			if tn, err = tcpnet.New(tcpnet.Config{}); err != nil {
				return nil, err
			}
			if opts.Obs != nil {
				tn.Instrument(opts.Obs)
			}
			tr = tn
		} else {
			tr = transport.NewMem()
		}
		cl, err := dist.New(w, cut, dist.WithTransport(tr), dist.WithRetry(retry))
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		cl.Instrument(reg)
		// Retain every span of the run: one root per token plus one server
		// span per component visit (at most the cut size per token).
		tracer := cl.Trace(1, tokens*(len(cut)+2))
		if !cl.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{Tracer: tracer, Registry: reg})) {
			t.Note("%s: fabric does not support InstrumentRPC; skipped", fabric)
			continue
		}

		for i := 0; i < tokens; i++ {
			if _, err := cl.Inject((i * 2654435761) % w); err != nil {
				return nil, err
			}
		}

		// Stitch: group finished spans by trace ID and attribute each
		// rpc:* span to its root.
		type journey struct {
			root *obs.Span
			rpcs []*obs.Span
		}
		byTrace := make(map[uint64]*journey)
		var spans []*obs.Span
		for _, s := range tracer.Spans() {
			j := byTrace[s.TraceID]
			if j == nil {
				j = &journey{}
				byTrace[s.TraceID] = j
			}
			if s.Name == "token" {
				j.root = s
			} else if strings.HasPrefix(s.Name, "rpc:") {
				j.rpcs = append(j.rpcs, s)
			}
			spans = append(spans, s)
		}
		stitched := true
		nRPC := 0
		var tokUS []float64
		var handlerNS, fabricNS, hops float64
		for _, j := range byTrace {
			if j.root == nil {
				stitched = false
				continue
			}
			var server time.Duration
			for _, s := range j.rpcs {
				if s.ParentID != j.root.SpanID {
					stitched = false
				}
				server += s.Dur
			}
			nRPC += len(j.rpcs)
			hops += float64(len(j.rpcs))
			tokUS = append(tokUS, float64(j.root.Dur.Nanoseconds())/1e3)
			handlerNS += float64(server.Nanoseconds())
			if over := j.root.Dur - server; over > 0 {
				fabricNS += float64(over.Nanoseconds())
			}
		}
		sort.Float64s(tokUS)
		p50 := 0.0
		if len(tokUS) > 0 {
			p50 = tokUS[len(tokUS)/2]
		}
		perHopHandler, perHopFabric := 0.0, 0.0
		if hops > 0 {
			perHopHandler = handlerNS / hops / 1e3
			perHopFabric = fabricNS / hops / 1e3
		}
		t.AddRow(fabric, tokens, len(spans), nRPC, hops/float64(len(byTrace)),
			p50, perHopHandler, perHopFabric, stitched)
		if !stitched {
			t.Note("%s: FAIL — rpc spans did not stitch to their injection spans", fabric)
		}
		if tn != nil {
			if err := tn.Close(); err != nil {
				return nil, err
			}
		}
	}
	t.Note("both fabrics run the identical cut (%d components at level %d) and arrival sequence at trace stride 1; 'handler us/hop' is server-side execution stitched in from rpc:arrive child spans, 'fabric us/hop' is the remainder of the root span — on mem that remainder is scheduling and call overhead, on tcp it adds the codec and loopback socket round trip the wire rows of E28 price in aggregate", len(cut), level)
	return t, nil
}
