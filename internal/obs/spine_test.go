package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceIdentity(t *testing.T) {
	tr := NewTracer(1, 16)
	root := tr.Start("token")
	if root == nil {
		t.Fatal("stride-1 tracer returned nil span")
	}
	if root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("root span missing identity: trace=%x span=%x", root.TraceID, root.SpanID)
	}
	if root.ParentID != 0 {
		t.Fatalf("root span has parent %x", root.ParentID)
	}

	child := tr.startChild("rpc:arrive", root.Context())
	if child == nil {
		t.Fatal("startChild returned nil for a sampled parent")
	}
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace %x, want %x", child.TraceID, root.TraceID)
	}
	if child.ParentID != root.SpanID {
		t.Fatalf("child parent %x, want %x", child.ParentID, root.SpanID)
	}
	if child.SpanID == root.SpanID || child.SpanID == 0 {
		t.Fatalf("child span ID %x not fresh", child.SpanID)
	}

	// Unsampled context and nil tracer both refuse to open children.
	if sp := tr.startChild("rpc:arrive", TraceContext{}); sp != nil {
		t.Fatal("startChild opened a span for an unsampled context")
	}
	var nilTr *Tracer
	if sp := nilTr.startChild("rpc:arrive", root.Context()); sp != nil {
		t.Fatal("nil tracer opened a child span")
	}
	if got := (TraceContext{TraceID: 1}).Sampled(); !got {
		t.Fatal("nonzero trace ID reported unsampled")
	}
	if (TraceContext{}).Sampled() {
		t.Fatal("zero context reported sampled")
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record("c/00", FlightEvent{Kind: "rpc", Name: "arrive", Dur: time.Duration(i)})
	}
	fr.Record("c/01", FlightEvent{Kind: "error", Name: "freeze", Detail: "boom"})

	snap := fr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d endpoints, want 2", len(snap))
	}
	evs := snap["c/00"]
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := time.Duration(6 + i); ev.Dur != want {
			t.Fatalf("event %d has dur %v, want %v (ring not oldest-first)", i, ev.Dur, want)
		}
	}

	var buf bytes.Buffer
	if err := fr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "endpoint c/00 (10 recorded, last 4):") {
		t.Fatalf("dump missing wrap summary:\n%s", out)
	}
	if !strings.Contains(out, "boom") {
		t.Fatalf("dump missing error detail:\n%s", out)
	}
	if strings.Index(out, "c/00") > strings.Index(out, "c/01") {
		t.Fatalf("dump endpoints not sorted:\n%s", out)
	}

	// Nil recorders are inert.
	var nilFR *FlightRecorder
	nilFR.Record("x", FlightEvent{})
	if nilFR.Snapshot() != nil {
		t.Fatal("nil recorder returned a snapshot")
	}
	if err := nilFR.Dump(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRPCObsEnd(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(1, 16)
	fr := NewFlightRecorder(8)
	var slowLog bytes.Buffer
	o := NewRPCObs(RPCObsConfig{
		Tracer:        tr,
		Registry:      reg,
		Flight:        fr,
		SlowThreshold: time.Nanosecond, // everything is slow
		SlowLog:       &slowLog,
	})

	parent := tr.Start("token")
	sp, start := o.Begin("arrive", parent.Context())
	if sp == nil {
		t.Fatal("Begin did not open a span for a sampled context")
	}
	if sp.Name != "rpc:arrive" || sp.ParentID != parent.SpanID {
		t.Fatalf("server span %q parent %x, want rpc:arrive under %x", sp.Name, sp.ParentID, parent.SpanID)
	}
	o.End("arrive", "c/00", sp, start, nil)
	parent.Finish()

	// Failed RPC on an unsampled context: histogram + error counter + flight
	// entry, no span.
	sp2, start2 := o.Begin("freeze", TraceContext{})
	if sp2 != nil {
		t.Fatal("Begin opened a span for an unsampled context")
	}
	o.End("freeze", "c/01", sp2, start2, errors.New("entry sealed"))

	snap := reg.Snapshot()
	if h, ok := snap.Histograms["rpc.arrive.seconds"]; !ok || h.Count != 1 {
		t.Fatalf("rpc.arrive.seconds = %+v, want 1 observation", h)
	}
	if got := snap.Counters["rpc.arrive.slow"]; got != 1 {
		t.Fatalf("rpc.arrive.slow = %d, want 1", got)
	}
	if got := snap.Counters["rpc.freeze.errors"]; got != 1 {
		t.Fatalf("rpc.freeze.errors = %d, want 1", got)
	}
	if !strings.Contains(slowLog.String(), "slow rpc arrive at c/00") {
		t.Fatalf("slow log missing entry:\n%s", slowLog.String())
	}

	flights := fr.Snapshot()
	if len(flights["c/00"]) == 0 {
		t.Fatal("sampled RPC not in flight recorder")
	}
	errEvs := flights["c/01"]
	if len(errEvs) != 1 || errEvs[0].Kind != "error" || errEvs[0].Detail != "entry sealed" {
		t.Fatalf("error flight event = %+v", errEvs)
	}

	// Nil observer: zero-value returns that End accepts.
	var nilObs *RPCObs
	nsp, nstart := nilObs.Begin("arrive", parent.Context())
	nilObs.End("arrive", "c/00", nsp, nstart, nil)
}

func TestWriteTraceEventsRoundTrip(t *testing.T) {
	tr := NewTracer(1, 16)
	root := tr.Start("token")
	root.Event("hop", "c/00", 3)
	child := tr.startChild("rpc:arrive", root.Context())
	child.Finish()
	root.Finish()
	other := tr.Start("batch")
	other.Finish()

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exporter emitted invalid trace events: %v\n%s", err, buf.String())
	}
	// 3 spans ("X"), 1 instant ("i"), plus metadata ("M") records.
	if n < 4 {
		t.Fatalf("validated %d events, want >= 4", n)
	}
	out := buf.String()
	for _, want := range []string{`"token"`, `"batch"`, `"rpc:arrive"`, `"hop"`,
		fmt.Sprintf("trace %016x", root.TraceID)} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace JSON missing %s:\n%s", want, out)
		}
	}

	// Empty input is still a valid (empty) trace, and nil spans are skipped.
	buf.Reset()
	if err := WriteTraceEvents(&buf, []*Span{nil}); err != nil {
		t.Fatal(err)
	}
	// Just the process_name metadata record survives.
	if n, err := ValidateTraceEvents(bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("empty trace validated as (%d, %v), want (1, nil)", n, err)
	}

	// Garbage does not validate.
	if _, err := ValidateTraceEvents(strings.NewReader(`[1, 2, 3]`)); err == nil {
		t.Fatal("ValidateTraceEvents accepted non-object input")
	}
	if _, err := ValidateTraceEvents(strings.NewReader(`{"traceEvents":[{"name":"x","ph":"??","ts":0}]}`)); err == nil {
		t.Fatal("ValidateTraceEvents accepted an unknown phase")
	}
}

// TestWriteTraceEventsParts: a merged multi-process export gives each
// part its own Perfetto pid with its name in a process_name record, and
// a trace ID shared between parts appears under both pids (the
// cross-process stitch the partitioned runner's acceptance gate counts).
func TestWriteTraceEventsParts(t *testing.T) {
	trA, trB := NewTracer(1, 16), NewTracer(1, 16)
	root := trA.Start("batch")
	// The remote part's span carries the same trace ID, as an RPCObs
	// server span would after the context crossed the wire.
	remote := trB.startChild("rpc:agroup", root.Context())
	remote.Finish()
	root.Finish()
	local := trB.Start("local")
	local.Finish()

	var buf bytes.Buffer
	parts := []TracePart{{Name: "p0", Spans: trA.Spans()}, {Name: "p1", Spans: trB.Spans()}}
	if err := WriteTraceEventsParts(&buf, parts); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTraceEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("parts exporter emitted invalid trace events: %v\n%s", err, buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}
	tracePIDs := map[string]map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.PID] = ev.Args["name"]
		}
		if ev.Ph == "X" {
			id := ev.Args["trace"]
			if tracePIDs[id] == nil {
				tracePIDs[id] = map[int]bool{}
			}
			tracePIDs[id][ev.PID] = true
		}
	}
	if procs[1] != "p0" || procs[2] != "p1" {
		t.Fatalf("process rows %v, want pid1=p0 pid2=p1", procs)
	}
	shared := fmt.Sprintf("%016x", root.TraceID)
	if got := len(tracePIDs[shared]); got != 2 {
		t.Fatalf("shared trace %s spans %d process rows, want 2 (%v)", shared, got, tracePIDs)
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(tok uint64, depth int64, lat float64) Snapshot {
		r := NewRegistry()
		r.Counter("tokens").Add(tok)
		r.Gauge("depth").Set(depth)
		r.Histogram("lat", 0, 10, 10).Observe(lat)
		return r.Snapshot()
	}
	m := MergeSnapshots(mk(3, 1, 1.5), mk(5, 2, 7.5))
	if m.Counters["tokens"] != 8 {
		t.Fatalf("merged counter %d, want 8", m.Counters["tokens"])
	}
	if m.Gauges["depth"] != 3 {
		t.Fatalf("merged gauge %d, want 3", m.Gauges["depth"])
	}
	h := m.Histograms["lat"]
	if h.Count != 2 || h.Mean != 4.5 {
		t.Fatalf("merged histogram count=%d mean=%v, want 2 and 4.5", h.Count, h.Mean)
	}

	// A layout mismatch keeps the first-seen histogram instead of
	// corrupting the merge.
	r3 := NewRegistry()
	r3.Histogram("lat", 0, 99, 7).Observe(50)
	m = MergeSnapshots(mk(1, 0, 2), r3.Snapshot())
	if h := m.Histograms["lat"]; h.Count != 1 {
		t.Fatalf("mismatched-layout merge count=%d, want first-seen 1", h.Count)
	}
}

// TestUnsampledPathsAllocFree pins the hot-path contract: with sampling
// off (nil span, unsampled context, nil tracer) the trace spine allocates
// nothing per operation.
func TestUnsampledPathsAllocFree(t *testing.T) {
	var nilTr *Tracer
	if n := testing.AllocsPerRun(200, func() {
		sp := nilTr.Start("token")
		sp.Event("hop", "", 0)
		_ = sp.Context()
		sp.Finish()
	}); n != 0 {
		t.Fatalf("nil tracer path allocates %v per op", n)
	}

	live := NewTracer(1<<30, 4)
	live.Start("warm") // consume the stride's first (sampled) slot
	if n := testing.AllocsPerRun(200, func() {
		if sp := live.Start("token"); sp != nil {
			t.Fatal("stride selected a span during alloc measurement")
		}
	}); n != 0 {
		t.Fatalf("unsampled Start allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if sp := live.startChild("rpc:arrive", TraceContext{}); sp != nil {
			t.Fatal("startChild sampled an unsampled context")
		}
	}); n != 0 {
		t.Fatalf("unsampled startChild allocates %v per op", n)
	}

	// RPCObs Begin/End on an unsampled context: after the per-kind state is
	// warm, the only work is a histogram observation.
	o := NewRPCObs(RPCObsConfig{Registry: NewRegistry(), Flight: NewFlightRecorder(8)})
	sp, start := o.Begin("arrive", TraceContext{})
	o.End("arrive", "c/00", sp, start, nil)
	if n := testing.AllocsPerRun(200, func() {
		sp, start := o.Begin("arrive", TraceContext{})
		o.End("arrive", "c/00", sp, start, nil)
	}); n != 0 {
		t.Fatalf("unsampled Begin/End allocates %v per op", n)
	}
}
