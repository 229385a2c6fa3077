package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
)

const (
	warmupTokens = 10000   // fixed warm-up before every window, part of setup_s
	wireTableLen = 1 << 16 // seeded input wires per sender, cycled

	coreWidth = 4096
	coreNodes = 128

	churnSlot  = 20 * time.Millisecond // one membership event per slot
	churnLate  = 2 * time.Millisecond  // an event starting later than this after its slot is late
	churnBatch = 16                    // nodes joined or removed per event
	churnPhase = 6                     // events per direction: 128 -> 224 -> 128 nodes

	tcpWidth = 64
	tcpLevel = 2
	burstLen = 128
)

// tcpRetry is the reliability policy of experiment E32.
var tcpRetry = transport.RetryConfig{
	Timeout:    50 * time.Millisecond,
	MaxRetries: 8,
	Backoff:    100 * time.Microsecond,
	BackoffCap: 2 * time.Millisecond,
}

// workloadDef is one of the benchmark's fixed workloads. All are closed
// loops: a sender waits for its counter value before it asks again.
type workloadDef struct {
	name        string
	why         string
	tokensPerOp int
	maxOpRate   int  // ops/s per sender the sample buffers are sized for
	fabric      bool // runs over a transport a traced repetition can interpose on
	build       func(seed int64, senders int, tr *tracer, valueCap int) (*instance, error)
}

var workloads = []workloadDef{
	{
		name: "core-steady", tokensPerOp: 1, maxOpRate: 1_500_000,
		why: "warm adaptive network: core routing, chord lookup-cache hits and component CAS do all the work; dist, wire and tcpnet do none",
		build: func(seed int64, senders int, _ *tracer, valueCap int) (*instance, error) {
			return buildCore(seed, senders, valueCap, false)
		},
	},
	{
		name: "core-churn", tokensPerOp: 1, maxOpRate: 1_500_000,
		why: "same network with joins and leaves every 20 ms: cache flushes, split/merge hand-off and the reader/writer drain are on the token path",
		build: func(seed int64, senders int, _ *tracer, valueCap int) (*instance, error) {
			return buildCore(seed, senders, valueCap, true)
		},
	},
	{
		name: "tcp-token", tokensPerOp: 1, maxOpRate: 100_000, fabric: true,
		why: "one token at a time over loopback TCP at a level-2 cut: 6 arrive RPCs per token, so wire codec and tcpnet dominate and dist bookkeeping is minor",
		build: func(seed int64, senders int, tr *tracer, _ int) (*instance, error) {
			return buildTCP(seed, senders, tr, 1)
		},
	},
	{
		name: "tcp-burst", tokensPerOp: burstLen, maxOpRate: 20_000, fabric: true,
		why: "128-token group injections on the same cluster: under 0.5 RPC per token, so dist batch bookkeeping dominates and the fabric is nearly bypassed",
		build: func(seed int64, senders int, tr *tracer, _ int) (*instance, error) {
			return buildTCP(seed, senders, tr, burstLen)
		},
	},
}

// instance is one freshly built system under test with its senders' ops.
type instance struct {
	eng   engine
	ops   []func(k int) error // ops[s](k) is sender s's k-th op
	close func() error

	net     *core.Network // core-* only
	senders []*coreSender
	churn   bool

	cluster *dist.Cluster // tcp-* only
	tcp     *tcpnet.Net
}

// seededWires are the input wires one sender cycles through.
func seededWires(seed int64, sender, width int) []int {
	rng := rand.New(rand.NewSource(seed*31 + int64(sender)))
	wires := make([]int, wireTableLen)
	for i := range wires {
		wires[i] = rng.Intn(width)
	}
	return wires
}

// coreTally sums what the returned TokenTraces report.
type coreTally struct {
	wireHops, lookups, entryTries, cacheHits, cacheMisses int
}

type coreSender struct {
	client *core.Client
	wires  []int
	values *valueSet
	tally  coreTally
}

func (s *coreSender) op(k int) error {
	tt, err := s.client.InjectAt(s.wires[k%wireTableLen])
	if err != nil {
		return err
	}
	s.values.add(tt.Value)
	s.tally.wireHops += tt.WireHops
	s.tally.lookups += tt.NameLookups
	s.tally.entryTries += tt.EntryTries
	s.tally.cacheHits += tt.CacheHits
	s.tally.cacheMisses += tt.CacheMisses
	return nil
}

func buildCore(seed int64, senders, valueCap int, churn bool) (*instance, error) {
	net, err := core.New(core.Config{Width: coreWidth, InitialNodes: coreNodes, Seed: seed})
	if err != nil {
		return nil, err
	}
	if _, err := net.MaintainToFixpoint(50); err != nil {
		return nil, err
	}
	in := &instance{eng: net, net: net, churn: churn, close: func() error { return nil }}
	for s := 0; s < senders; s++ {
		c, err := net.NewClient()
		if err != nil {
			return nil, err
		}
		cs := &coreSender{client: c, wires: seededWires(seed, s, coreWidth), values: newValueSet(valueCap)}
		in.senders = append(in.senders, cs)
		in.ops = append(in.ops, cs.op)
	}
	return in, nil
}

func buildTCP(seed int64, senders int, tr *tracer, batch int) (*instance, error) {
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	var fabric transport.Transport = tn
	if tr != nil {
		fabric = &tracedTransport{Transport: tn, t: tr}
	}
	cut, err := tree.UniformCut(tcpWidth, tcpLevel)
	if err != nil {
		return nil, errors.Join(err, tn.Close())
	}
	cl, err := dist.New(tcpWidth, cut, dist.WithTransport(fabric), dist.WithRetry(tcpRetry))
	if err != nil {
		return nil, errors.Join(err, tn.Close())
	}
	in := &instance{eng: cl, cluster: cl, tcp: tn, close: tn.Close}
	for s := 0; s < senders; s++ {
		wires := seededWires(seed, s, tcpWidth)
		if batch == 1 {
			in.ops = append(in.ops, func(k int) error {
				_, err := cl.Inject(wires[k%wireTableLen])
				return err
			})
			continue
		}
		in.ops = append(in.ops, func(k int) error {
			at := k * batch % wireTableLen
			_, err := cl.InjectBatch(wires[at : at+batch])
			return err
		})
	}
	return in, nil
}

// counters are the public cumulative stats the per-layer metrics are deltas
// of; the zero value stands for a layer the workload does not have.
type counters struct {
	core   core.Metrics
	lcache chord.LookupCacheStats
	net    transport.Stats
	cli    transport.ClientStats
	wire   tcpnet.WireStats
}

func (in *instance) counters() counters {
	var c counters
	if in.net != nil {
		c.core = in.net.Metrics()
		c.lcache = in.net.LookupCacheStats()
	}
	if in.cluster != nil {
		c.net, c.cli = in.cluster.NetStats()
		c.wire = in.tcp.WireStats()
	}
	return c
}

// churner is core-churn's one writer: a membership event on every slot of a
// fixed schedule, each followed by maintenance to the paper's fixpoint cut.
type churner struct {
	net      *core.Network
	member   []ival // AddNodes / RemoveRandomNode spans, ns since window start
	maintain []ival // MaintainToFixpoint spans
	late     int
	err      error
}

// churnEvent is the membership change of one slot: churnPhase slots of
// churnBatch joins, then as many of churnBatch graceful leaves.
func churnEvent(net *core.Network, slot int) error {
	if slot/churnPhase%2 == 0 {
		net.AddNodes(churnBatch)
		return nil
	}
	for i := 0; i < churnBatch; i++ {
		if _, err := net.RemoveRandomNode(); err != nil {
			return err
		}
	}
	return nil
}

func (c *churner) run(start time.Time, stop *atomic.Bool) {
	for slot := 0; ; slot++ {
		due := start.Add(time.Duration(slot) * churnSlot)
		time.Sleep(time.Until(due))
		if stop.Load() {
			return
		}
		t0 := time.Since(start)
		if t0-time.Duration(slot)*churnSlot > churnLate {
			c.late++
		}
		if c.err = churnEvent(c.net, slot); c.err != nil {
			return
		}
		t1 := time.Since(start)
		_, c.err = c.net.MaintainToFixpoint(50)
		t2 := time.Since(start)
		c.member = append(c.member, ival{int64(t0), int64(t1)})
		c.maintain = append(c.maintain, ival{int64(t1), int64(t2)})
		if c.err != nil {
			return
		}
	}
}

// repConfig is what one repetition is run with.
type repConfig struct {
	seed    int64
	senders int
	window  time.Duration
	traced  bool
	export  bool // keep the traced repetition's first spans for -tracefile
}

// repResult is one repetition's measurements, by metric name.
type repResult struct {
	traced    bool
	vals      map[string]float64
	rates     []float64 // tokens/s of every measured slice
	setupOK   bool      // the host stole nothing measurable during set-up
	attempted int
	failed    int
	oracleErr error
	spans     *spanStats  // tcp-* traced repetitions: the layer split
	export    []*obs.Span // with repConfig.export
}

// runSenders runs every sender's closed loop from op index k0 until stop is
// set, a sampler fills, or (limit > 0) each has done limit ops.
func runSenders(in *instance, ss []*sampler, k0, limit int, start time.Time, stop *atomic.Bool, tr *tracer) {
	var wg sync.WaitGroup
	for s := range in.ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, smp := in.ops[s], ss[s]
			for k := k0; !stop.Load() && !smp.full() && (limit == 0 || k < k0+limit); k++ {
				if tr != nil {
					tr.beginOp(s, k-k0)
				}
				err := op(k)
				if tr != nil {
					tr.endOp(s)
				}
				smp.record(time.Since(start), err)
			}
		}()
	}
	wg.Wait()
}

// runRep runs one repetition: build, converge, warm up, measure a window,
// then check exact counting at quiescence. ss are the senders' sample
// buffers, reused across repetitions.
func runRep(w *workloadDef, cfg repConfig, ss []*sampler) (*repResult, error) {
	valueCap := warmupTokens + cfg.senders
	for _, s := range ss {
		s.reset()
		valueCap += cap(s.lats)
	}
	var tr *tracer
	if cfg.traced && w.fabric {
		tr = newTracer(cfg.senders, 1<<19)
	}

	clock := openHostClock()
	defer clock.close()
	setupStart := time.Now()
	setupMark := clock.mark(0)
	in, err := w.build(cfg.seed, cfg.senders, tr, valueCap)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	warmOps := max(warmupTokens/w.tokensPerOp/cfg.senders, 1)
	var stop atomic.Bool
	runSenders(in, ss, 0, warmOps, setupStart, &stop, nil)
	acked := 0
	for _, s := range ss {
		if s.failed > 0 {
			return nil, errors.Join(fmt.Errorf("%s: %d warm-up ops failed", w.name, s.failed), in.close())
		}
		acked += len(s.lats) * w.tokensPerOp
		s.reset()
	}
	for _, cs := range in.senders {
		cs.tally = coreTally{}
	}
	var ch *churner
	if in.churn {
		ch = &churner{net: in.net}
	}

	need := max(int(cfg.window/sliceDur), 1)
	var marks []mark

	c0, h0 := in.counters(), readMem()
	start := time.Now()
	setup := start.Sub(setupStart)
	if tr != nil {
		tr.begin(start)
	}
	var helpers sync.WaitGroup
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		marks = clock.watch(start, &stop, need, stretch*need)
	}()
	if ch != nil {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			ch.run(start, &stop)
		}()
	}
	runSenders(in, ss, warmOps, 0, start, &stop, tr)
	stop.Store(true) // a full sample buffer ends the window too
	helpers.Wait()
	elapsed := time.Since(start)
	h1, c1 := readMem(), in.counters()

	res := &repResult{traced: cfg.traced, vals: make(map[string]float64)}
	res.setupOK = sliceBetween(setupMark, marks[0]).clean()
	for _, s := range ss {
		if s.full() {
			return nil, errors.Join(fmt.Errorf("%s: sample buffer of %d ops filled; raise maxOpRate", w.name, cap(s.lats)), in.close())
		}
		res.attempted += len(s.lats)
		res.failed += s.failed
	}
	acked += (res.attempted - res.failed) * w.tokensPerOp
	var values []*valueSet
	for _, cs := range in.senders {
		values = append(values, cs.values)
	}
	res.oracleErr = checkCounting(in.eng, int64(acked), res.failed == 0, values)
	if ch != nil && ch.err != nil {
		res.oracleErr = errors.Join(res.oracleErr, fmt.Errorf("churner: %w", ch.err))
	}
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}

	m := repMeasure{
		w: w, cfg: cfg, ss: ss, setup: setup, elapsed: elapsed,
		tokens: float64(res.attempted * w.tokensPerOp),
		c:      countersSub(c1, c0), h0: h0, h1: h1, marks: marks,
		in: in, ch: ch, tr: tr, res: res,
	}
	m.emit()
	return res, nil
}

func countersSub(a, b counters) counters {
	a.core = a.core.Sub(b.core)
	a.lcache.Hits -= b.lcache.Hits
	a.lcache.Misses -= b.lcache.Misses
	a.lcache.Flushes -= b.lcache.Flushes
	a.net = a.net.Sub(b.net)
	a.cli = a.cli.Sub(b.cli)
	a.wire.BytesIn -= b.wire.BytesIn
	a.wire.BytesOut -= b.wire.BytesOut
	a.wire.Writes -= b.wire.Writes
	a.wire.Frames -= b.wire.Frames
	return a
}

// opIntervals rebuilds every sender's op spans from its latencies.
func opIntervals(ss []*sampler) [][]ival {
	ops := make([][]ival, len(ss))
	for s, smp := range ss {
		ops[s] = make([]ival, len(smp.lats))
		var at int64
		for k, l := range smp.lats {
			ops[s][k] = ival{at, at + int64(l)}
			at += int64(l)
		}
	}
	return ops
}

// blockedOps returns the latencies (ns) of the ops whose span overlaps one of
// the churner's spans, which hold the structural lock tokens read-lock.
func blockedOps(ops [][]ival, spans []ival) []float64 {
	slices.SortFunc(spans, func(a, b ival) int { return int(a.lo - b.lo) })
	var blocked []float64
	for _, senderOps := range ops {
		i := 0
		for _, op := range senderOps {
			for i < len(spans) && spans[i].hi <= op.lo {
				i++
			}
			if i < len(spans) && spans[i].lo < op.hi {
				blocked = append(blocked, float64(op.dur()))
			}
		}
	}
	return blocked
}
