package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// metricDef is one row of the metric catalogue: BENCHMARK.json, the README
// table and everything acnload prints are checked against this list.
type metricDef struct {
	name   string
	unit   string
	layer  string  // package the metric belongs to; "e2e" for what a user sees
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	on     string  // workloads it is measured on: "all", "core", "core-churn", "tcp", or "probe"
	what   string
}

func (d metricDef) endToEnd() bool { return d.bound > 0 }

// appliesTo reports whether the metric is measured on the workload; where it
// is not, it is printed as 0.
func (d metricDef) appliesTo(workload string) bool {
	switch d.on {
	case "all", "probe":
		return true
	case "core", "tcp":
		return strings.HasPrefix(workload, d.on+"-")
	}
	return d.on == workload
}

var catalogue = []metricDef{
	// End to end: what a caller of the counter sees, on every workload.
	{"tokens_per_s", "1/s", "e2e", "higher", 0.25, "all", "median of per-250ms-slice completion rates, pooled over repetitions"},
	{"op_p50_us", "us", "e2e", "lower", 0.25, "all", "median latency of one Inject/InjectBatch call"},
	{"op_p95_us", "us", "e2e", "lower", 0.25, "all", "95th percentile of the same"},
	{"cpu_us_per_token", "us", "e2e", "lower", 0.25, "all", "getrusage user+sys over the window / tokens"},
	{"setup_s", "s", "e2e", "lower", 0.25, "all", "construct + converge + 10 000-token warm-up, until the first measured op"},

	// User-visible too, but 0 or absent on some workloads, so unbounded.
	{"fail_ratio", "ratio", "e2e", "lower", 0, "all", "failed ops / attempted ops; 1 when the counting oracle fails"},
	{"allocs_per_token", "count", "e2e", "lower", 0, "all", "process-wide Mallocs over the window / tokens"},
	{"wire_bytes_per_token", "B", "e2e", "lower", 0, "tcp", "tcpnet frame bytes in+out / tokens"},
	{"adapt_ms_p50", "ms", "e2e", "lower", 0, "core-churn", "median MaintainToFixpoint after a membership event"},

	// In-run counters, from public stats deltas over the window.
	{"dist.rpcs_per_token", "count", "dist", "lower", 0, "tcp", "reliability-client calls / tokens"},
	{"dist.retries_per_token", "count", "dist", "lower", 0, "tcp", "re-sends / tokens"},
	{"transport.dedup_hits_per_token", "count", "transport", "lower", 0, "tcp", "arrivals answered from the dedup cache / tokens"},
	{"tcpnet.writes_per_token", "count", "tcpnet", "lower", 0, "tcp", "write syscalls / tokens"},
	{"tcpnet.frames_per_write", "count", "tcpnet", "higher", 0, "tcp", "coalescing factor"},
	{"core.wire_hops_per_token", "count", "core", "lower", 0, "core", "components a token passes, from TokenTrace"},
	{"core.lookups_per_token", "count", "core", "lower", 0, "core", "DHT lookups issued per token, from TokenTrace"},
	{"core.entry_tries_per_token", "count", "core", "lower", 0, "core", "names tried to find an input component, from TokenTrace"},
	{"core.outcache_hit_ratio", "ratio", "core", "higher", 0, "core", "out-neighbour cache hits / uses, from TokenTrace"},
	{"chord.lcache_hit_ratio", "ratio", "chord", "higher", 0, "core", "lookup-cache hits / lookups"},
	{"chord.lcache_flushes_per_s", "1/s", "chord", "lower", 0, "core", "wholesale lookup-cache invalidations"},
	{"core.splits_per_s", "1/s", "core", "lower", 0, "core", "component splits"},
	{"core.merges_per_s", "1/s", "core", "lower", 0, "core", "component merges"},
	{"core.struct_lock_share", "ratio", "core", "lower", 0, "core-churn", "churner busy time / wall: share of the window under the structural lock"},
	{"core.churn_late_ratio", "ratio", "core", "lower", 0, "core-churn", "membership events started more than 2 ms after their slot"},
	{"bench.op_p99_us", "us", "bench", "lower", 0, "all", "diagnostic: did not repeat within a tenth on the reference host"},
	{"bench.op_p999_us", "us", "bench", "lower", 0, "all", "diagnostic, as above"},
	{"bench.gc_pause_ms", "ms", "bench", "lower", 0, "all", "stop-the-world GC pause inside the window"},
	{"bench.trace_overhead_ratio", "ratio", "bench", "lower", 0, "all", "1 - traced tokens_per_s / untraced tokens_per_s"},
	{"host.steal_ratio", "ratio", "host", "lower", 0, "all", "/proc/stat steal / all jiffies over the window"},
	{"host.clean_slice_ratio", "ratio", "host", "higher", 0, "all", "250 ms slices with steal <= 0.02, the ones that are timed"},
	{"host.invol_switches_per_s", "1/s", "host", "lower", 0, "all", "getrusage involuntary context switches"},

	// Traced-run spans: self time = duration minus the union of child spans.
	{"span.dist_client_self_us", "us", "dist", "lower", 0, "tcp", "op span minus its Send spans, median per op"},
	{"span.fabric_self_us", "us", "tcpnet", "lower", 0, "tcp", "Send span minus its handler span, median per RPC"},
	{"span.handler_us", "us", "dist", "lower", 0, "tcp", "handler span (dist server bookkeeping + component step), median per RPC"},
	{"span.residual_ratio", "ratio", "bench", "lower", 0, "tcp", "share of op time the three layers do not account for"},
	{"span.maintain_ms_p50", "ms", "core", "lower", 0, "core-churn", "median MaintainToFixpoint span"},
	{"core.blocked_op_ratio", "ratio", "core", "lower", 0, "core-churn", "ops whose span overlaps a churner span"},
	{"core.blocked_op_p50_us", "us", "core", "lower", 0, "core-churn", "median latency of those ops"},

	// Isolated layer probes: fixed iteration counts, same seed, no load.
	{"component.step_ns", "ns", "component", "lower", 0, "probe", "State.Step on a width-64 component"},
	{"component.stepn128_ns_per_token", "ns", "component", "lower", 0, "probe", "State.TryStepN(128) / 128"},
	{"tree.route_ns", "ns", "tree", "lower", 0, "probe", "tree.ChildNext"},
	{"cutnet.leaf256_inject_ns", "ns", "cutnet", "lower", 0, "probe", "cutnet Inject, width 256, fully expanded"},
	{"cutnet.leaf256_inject_allocs", "count", "cutnet", "lower", 0, "probe", "allocs of the same"},
	{"chord.lookup_ns", "ns", "chord", "lower", 0, "probe", "Ring.Lookup, 128 nodes"},
	{"chord.lookup_hops_mean", "count", "chord", "lower", 0, "probe", "mean hops of those lookups; the model is 0.5*log2(N) = 3.5"},
	{"chord.cache_get_ns", "ns", "chord", "lower", 0, "probe", "LookupCache.Get hit"},
	{"estimate.size_ns", "ns", "estimate", "lower", 0, "probe", "SizeEstimate on a 128-node ring"},
	{"wire.encode_arrive_ns", "ns", "wire", "lower", 0, "probe", "EncodeRequest of one arrive"},
	{"wire.decode_arrive_ns", "ns", "wire", "lower", 0, "probe", "DecodeRequestFrame of one arrive"},
	{"wire.encode_group128_ns", "ns", "wire", "lower", 0, "probe", "EncodeRequest of a 128-token group arrive"},
	{"wire.decode_group128_ns", "ns", "wire", "lower", 0, "probe", "DecodeRequestFrame of the same"},
	{"wire.arrive_frame_bytes", "B", "wire", "lower", 0, "probe", "encoded size of one arrive request"},
	{"wire.roundtrip_allocs", "count", "wire", "lower", 0, "probe", "allocs of one arrive encode + decode"},
	{"transport.mem_call_ns", "ns", "transport", "lower", 0, "probe", "Client.Call over the in-memory switch"},
	{"transport.mem_call_allocs", "count", "transport", "lower", 0, "probe", "allocs of the same"},
	{"tcpnet.echo_rtt_p50_us", "us", "tcpnet", "lower", 0, "probe", "one arrive RPC over loopback TCP, one caller"},
	{"tcpnet.echo_allocs", "count", "tcpnet", "lower", 0, "probe", "allocs of the same, both sides"},
	{"dist.mem_inject_ns", "ns", "dist", "lower", 0, "probe", "dist Inject over the in-memory switch, level-2 cut"},
	{"dist.mem_inject_allocs", "count", "dist", "lower", 0, "probe", "allocs of the same"},
	{"dist.mem_batch128_ns_per_token", "ns", "dist", "lower", 0, "probe", "dist InjectBatch(128) over the in-memory switch / 128"},
	{"dist.mem_batch128_allocs_per_token", "count", "dist", "lower", 0, "probe", "allocs of the same / 128"},
	{"core.maintain_fixpoint_ms", "ms", "core", "lower", 0, "probe", "cold MaintainToFixpoint, width 4096, 128 nodes"},
	{"core.split_merge_cycle_us", "us", "core", "lower", 0, "probe", "join 16 + maintain + leave 16 + maintain, per split or merge done"},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range catalogue {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// repMeasure is everything a finished repetition's metrics are computed from.
type repMeasure struct {
	w       *workloadDef
	cfg     repConfig
	ss      []*sampler
	setup   time.Duration
	elapsed time.Duration
	tokens  float64
	c       counters // deltas over the window
	h0, h1  memSnap
	marks   []mark
	in      *instance
	ch      *churner
	tr      *tracer
	res     *repResult
}

func us(ns float64) float64 { return ns / 1e3 }

func durations(ivs []ival) []float64 {
	out := make([]float64, len(ivs))
	for i, v := range ivs {
		out[i] = float64(v.dur())
	}
	return out
}

// emit names the repetition's measurements. Timings come from the slices of
// the window the host left alone (all of them if it left none); counts come
// from the whole window. End-to-end metrics and counters come from untraced
// repetitions only; a traced repetition contributes its spans and, through
// res.rates, the traced throughput the tracing overhead is read from.
func (m *repMeasure) emit() {
	v := m.res.vals
	all := cutSlices(m.ss, m.marks)
	need := max(int(m.cfg.window/sliceDur), 1)
	cut, nClean := stealCut(all, need)
	keep := func(s slice) bool { return s.steal <= cut }
	if cut > maxSteal {
		fmt.Fprintf(os.Stderr, "acnload: %s seed %d: the host stole from %d of %d slices; timing the %d least stolen\n",
			m.w.name, m.cfg.seed, len(all)-nClean, len(all), min(need, len(all)))
	}
	var keptOps int
	var keptCPU time.Duration
	for _, s := range all {
		if keep(s) {
			keptOps += s.ops
			keptCPU += s.cpu
			m.res.rates = append(m.res.rates, float64(s.ops*m.w.tokensPerOp)/(s.hi-s.lo).Seconds())
		}
	}
	if m.cfg.traced {
		m.emitSpans()
		return
	}
	secs := m.elapsed.Seconds()
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	lat := keptLatencies(m.ss, all, keep)
	v["op_p50_us"] = us(percentile(lat, 0.50))
	v["op_p95_us"] = us(percentile(lat, 0.95))
	v["bench.op_p99_us"] = us(percentile(lat, 0.99))
	v["bench.op_p999_us"] = us(percentile(lat, 0.999))
	v["cpu_us_per_token"] = ratio(us(float64(keptCPU)), float64(keptOps*m.w.tokensPerOp))
	v["setup_s"] = m.setup.Seconds()
	v["fail_ratio"] = ratio(float64(m.res.failed), float64(m.res.attempted))
	v["allocs_per_token"] = ratio(float64(m.h1.mallocs-m.h0.mallocs), m.tokens)
	v["bench.gc_pause_ms"] = float64(m.h1.gcPause-m.h0.gcPause) / 1e6
	v["host.steal_ratio"] = ratio(float64(last.steal-first.steal), float64(last.total-first.total))
	v["host.clean_slice_ratio"] = ratio(float64(nClean), float64(len(all)))
	v["host.invol_switches_per_s"] = float64(last.nivcsw-first.nivcsw) / secs

	if m.in.cluster != nil {
		v["wire_bytes_per_token"] = ratio(float64(m.c.wire.BytesIn+m.c.wire.BytesOut), m.tokens)
		v["dist.rpcs_per_token"] = ratio(float64(m.c.cli.Calls), m.tokens)
		v["dist.retries_per_token"] = ratio(float64(m.c.cli.Retries), m.tokens)
		v["transport.dedup_hits_per_token"] = ratio(float64(m.c.net.DedupHits), m.tokens)
		v["tcpnet.writes_per_token"] = ratio(float64(m.c.wire.Writes), m.tokens)
		v["tcpnet.frames_per_write"] = ratio(float64(m.c.wire.Frames), float64(m.c.wire.Writes))
	}
	if m.in.net != nil {
		var t coreTally
		for _, cs := range m.in.senders {
			t.wireHops += cs.tally.wireHops
			t.lookups += cs.tally.lookups
			t.entryTries += cs.tally.entryTries
			t.cacheHits += cs.tally.cacheHits
			t.cacheMisses += cs.tally.cacheMisses
		}
		v["core.wire_hops_per_token"] = ratio(float64(t.wireHops), m.tokens)
		v["core.lookups_per_token"] = ratio(float64(t.lookups), m.tokens)
		v["core.entry_tries_per_token"] = ratio(float64(t.entryTries), m.tokens)
		v["core.outcache_hit_ratio"] = ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses))
		v["chord.lcache_hit_ratio"] = ratio(float64(m.c.lcache.Hits), float64(m.c.lcache.Hits+m.c.lcache.Misses))
		v["chord.lcache_flushes_per_s"] = float64(m.c.lcache.Flushes) / secs
		v["core.splits_per_s"] = float64(m.c.core.Splits) / secs
		v["core.merges_per_s"] = float64(m.c.core.Merges) / secs
	}
	if m.ch != nil {
		var busy int64
		for i := range m.ch.maintain {
			busy += m.ch.member[i].dur() + m.ch.maintain[i].dur()
		}
		v["adapt_ms_p50"] = median(durations(m.ch.maintain)) / 1e6
		v["core.struct_lock_share"] = ratio(float64(busy), float64(m.elapsed))
		v["core.churn_late_ratio"] = ratio(float64(m.ch.late), float64(len(m.ch.maintain)))
	}
}

// stealCut is the steal share up to which a window's slices are timed:
// maxSteal, so the clean ones, or, when the host left fewer than half of what
// the window needs clean, the share of the need-th least stolen slice.
func stealCut(all []slice, need int) (cut float64, nClean int) {
	steals := make([]float64, len(all))
	for i, s := range all {
		steals[i] = s.steal
		if s.clean() {
			nClean++
		}
	}
	if nClean >= (need+1)/2 {
		return maxSteal, nClean
	}
	slices.Sort(steals)
	return max(maxSteal, steals[min(need, len(steals))-1]), nClean
}

func (m *repMeasure) emitSpans() {
	v := m.res.vals
	ops := opIntervals(m.ss)
	if m.cfg.export {
		m.res.export = m.tr.export(ops, m.ch)
	}
	if m.in.cluster != nil {
		st := m.tr.analyze(ops)
		v["span.dist_client_self_us"] = us(median(st.clientSelf))
		v["span.fabric_self_us"] = us(median(st.fabricSelf))
		v["span.handler_us"] = us(median(st.handler))
		v["span.residual_ratio"] = ratio(float64(st.residual), float64(st.opTotal))
		m.res.spans = &st
	}
	if m.ch != nil {
		blocked := blockedOps(ops, slices.Concat(m.ch.member, m.ch.maintain))
		v["span.maintain_ms_p50"] = median(durations(m.ch.maintain)) / 1e6
		v["core.blocked_op_ratio"] = ratio(float64(len(blocked)), float64(m.res.attempted))
		v["core.blocked_op_p50_us"] = us(median(blocked))
	}
}

// metricOut is one metric of one workload in the result document.
type metricOut struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Reps  []float64 `json:"reps,omitempty"` // per-repetition values behind the median
}

// aggregate folds a workload's repetitions (and the probes, when run) into
// one value per catalogue metric: the median over the repetitions that
// measured it, 0 where the metric does not apply.
func aggregate(workload string, reps []*repResult, probes map[string]float64) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(catalogue))
	perRep := make(map[string][]float64)
	var plain, traced []float64 // pooled throughput slices
	var quietSetups []float64
	oracleFailed := false
	for _, r := range reps {
		if r.oracleErr != nil {
			oracleFailed = true
		}
		for name, x := range r.vals {
			d, ok := findMetric(name)
			if !ok || !d.appliesTo(workload) {
				return nil, fmt.Errorf("%s: repetition emitted %q, which the catalogue does not list for it", workload, name)
			}
			perRep[name] = append(perRep[name], x)
		}
		if r.traced {
			traced = append(traced, r.rates...)
		} else {
			plain = append(plain, r.rates...)
			perRep["tokens_per_s"] = append(perRep["tokens_per_s"], median(r.rates))
			if r.setupOK {
				quietSetups = append(quietSetups, r.vals["setup_s"])
			}
		}
	}
	for _, d := range catalogue {
		o := metricOut{Unit: d.unit, Reps: perRep[d.name]}
		if len(o.Reps) > 0 {
			o.Value = median(o.Reps)
		}
		switch {
		case d.name == "tokens_per_s" && len(plain) > 0:
			o.Value = median(plain)
		case d.name == "setup_s" && len(quietSetups) > 0: // else the median of all
			o.Value = median(quietSetups)
		case d.name == "bench.trace_overhead_ratio" && len(plain) > 0 && len(traced) > 0:
			o.Value = 1 - ratio(median(traced), median(plain))
		case d.name == "fail_ratio" && oracleFailed:
			o.Value = 1
		case d.on == "probe":
			o.Value = probes[d.name]
		}
		out[d.name] = o
	}
	return out, nil
}
