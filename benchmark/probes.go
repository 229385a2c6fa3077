package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/chord"
	"repro/internal/component"
	"repro/internal/core"
	"repro/internal/cutnet"
	"repro/internal/dist"
	"repro/internal/estimate"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

const probePasses = 3

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// probe times n calls of f, probePasses times over, and returns the median
// pass's ns and allocs per call.
func probe(n int, f func(i int) error) (ns, allocs float64, err error) {
	var nss, als []float64
	var ms runtime.MemStats
	for p := 0; p < probePasses; p++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		nss = append(nss, float64(d)/float64(n))
		als = append(als, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(nss), median(als), nil
}

// runProbes measures each layer alone, through its public functions, with
// fixed iteration counts (divided by scale for the smoke run) and inputs from
// the seed. They are guards and levers for the interaction map in the README,
// not workloads: nothing else runs beside them.
func runProbes(seed int64, scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	iters := func(n int) int { return max(n/scale, 8) }
	// measure probes f at n iterations (scaled). The first error sticks and
	// turns the remaining probes into no-ops; it is returned at the end.
	var perr error
	measure := func(name string, n int, f func(i int) error) (ns, allocs float64) {
		if perr != nil {
			return 0, 0
		}
		ns, allocs, err := probe(iters(n), f)
		if err != nil {
			perr = fmt.Errorf("probe %s: %w", name, err)
		}
		return ns, allocs
	}

	// component, tree
	st := component.New(tree.MustRoot(64))
	out["component.step_ns"], _ = measure("component.step", 2_000_000, func(int) error {
		sink += st.Step()
		return nil
	})
	ns, _ := measure("component.stepn128", 1_000_000, func(int) error {
		base, _ := st.TryStepN(burstLen)
		sink += int(base)
		return nil
	})
	out["component.stepn128_ns_per_token"] = ns / burstLen
	out["tree.route_ns"], _ = measure("tree.route", 4_000_000, func(i int) error {
		sink += tree.ChildNext(tree.KindBitonic, coreWidth, i%6, i%(coreWidth/2)).ChildIn
		return nil
	})

	// cutnet, fully expanded
	leaf, err := cutnet.New(256, tree.LeafCut(256))
	if err != nil {
		return nil, err
	}
	out["cutnet.leaf256_inject_ns"], out["cutnet.leaf256_inject_allocs"] = measure("cutnet.leaf256_inject", 2_000, func(i int) error {
		o, err := leaf.Inject(i % 256)
		sink += o
		return err
	})

	// chord, estimate
	ring := chord.NewRing(seed)
	ids := ring.JoinN(coreNodes)
	keys := make([]chord.NodeID, 4096)
	for i := range keys {
		keys[i] = chord.NodeID(rng.Uint64())
	}
	hops := 0
	out["chord.lookup_ns"], _ = measure("chord.lookup", 20_000, func(i int) error {
		_, h, err := ring.Lookup(ids[i%len(ids)], keys[i%len(keys)])
		hops += h
		return err
	})
	out["chord.lookup_hops_mean"] = float64(hops) / float64(iters(20_000)*probePasses)
	cache := chord.NewLookupCache(ring, chord.DefaultLookupCacheSize)
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("probe-%d", i)
		if _, _, _, err := cache.Owner(ids[0], names[i]); err != nil {
			return nil, err
		}
	}
	out["chord.cache_get_ns"], _ = measure("chord.cache_get", 1_000_000, func(i int) error {
		o, _, ok := cache.Get(names[i%len(names)])
		if !ok {
			return fmt.Errorf("lookup cache lost %s", names[i%len(names)])
		}
		sink += int(o & 1)
		return nil
	})
	out["estimate.size_ns"], _ = measure("estimate.size", 20_000, func(i int) error {
		e, err := estimate.SizeEstimate(ring, ids[i%len(ids)], estimate.DefaultParams())
		sink += e.Probes
		return err
	})

	// wire codec
	arrive := transport.Request{
		ID: 7, From: "t:1", To: "c:0110#2", Kind: wire.KindArrive,
		Body: wire.Arrive{Wire: 5, Token: "t:1", Seq: 9},
	}
	batch := make([]int, burstLen)
	seqs := make([]uint64, burstLen)
	for i := range batch {
		batch[i], seqs[i] = rng.Intn(tcpWidth), uint64(1000+i)
	}
	group := transport.Request{
		ID: 8, From: "t:1", To: "c:0110#2", Kind: wire.KindGroupArrive,
		Body: wire.GroupArrive{Token: "t:1", Wires: batch, Seqs: seqs},
	}
	enc := wire.NewEncoder(4096)
	if err := wire.EncodeRequest(enc, 1, arrive); err != nil {
		return nil, err
	}
	out["wire.arrive_frame_bytes"] = float64(enc.Len())
	var decoded wire.Request
	for _, c := range []struct {
		name string
		req  transport.Request
		n    int
	}{{"arrive", arrive, 500_000}, {"group128", group, 50_000}} {
		out["wire.encode_"+c.name+"_ns"], _ = measure("wire.encode_"+c.name, c.n, func(i int) error {
			enc.Reset()
			return wire.EncodeRequest(enc, uint64(i), c.req)
		})
		frame := slices.Clone(enc.Bytes())
		out["wire.decode_"+c.name+"_ns"], _ = measure("wire.decode_"+c.name, c.n, func(int) error {
			return wire.DecodeRequestFrame(frame, &decoded)
		})
	}
	_, out["wire.roundtrip_allocs"] = measure("wire.roundtrip", 100_000, func(i int) error {
		enc.Reset()
		if err := wire.EncodeRequest(enc, uint64(i), arrive); err != nil {
			return err
		}
		return wire.DecodeRequestFrame(enc.Bytes(), &decoded)
	})

	// transport: in-memory switch, then loopback TCP
	var arriveRes any = wire.ArriveRes{Status: wire.StatusProcessed, Out: 1}
	echo := func(transport.Request) (any, error) { return arriveRes, nil }
	mem := transport.NewMem()
	if err := mem.Bind("c:echo#1", echo); err != nil {
		return nil, err
	}
	client := transport.NewClient(mem, transport.RetryConfig{})
	out["transport.mem_call_ns"], out["transport.mem_call_allocs"] = measure("transport.mem_call", 500_000, func(int) error {
		_, err := client.Call("t:1", "c:echo#1", wire.KindArrive, arrive.Body)
		return err
	})
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	defer tn.Close()
	if err := tn.Bind("c:echo#1", echo); err != nil {
		return nil, err
	}
	echoReq := arrive
	echoReq.To = "c:echo#1"
	rtts := make([]float64, 0, probePasses*iters(5_000))
	_, out["tcpnet.echo_allocs"] = measure("tcpnet.echo", 5_000, func(i int) error {
		echoReq.ID = uint64(i + 1)
		t0 := time.Now()
		_, err := tn.Send(echoReq, time.Second)
		rtts = append(rtts, float64(time.Since(t0)))
		return err
	})
	out["tcpnet.echo_rtt_p50_us"] = us(median(rtts))

	// dist over the in-memory switch, on the tcp-* workloads' cut
	cut, err := tree.UniformCut(tcpWidth, tcpLevel)
	if err != nil {
		return nil, err
	}
	cl, err := dist.New(tcpWidth, cut)
	if err != nil {
		return nil, err
	}
	out["dist.mem_inject_ns"], out["dist.mem_inject_allocs"] = measure("dist.mem_inject", 20_000, func(i int) error {
		o, err := cl.Inject(i % tcpWidth)
		sink += o
		return err
	})
	ns, allocs := measure("dist.mem_batch128", 500, func(int) error {
		outs, err := cl.InjectBatch(batch)
		sink += len(outs)
		return err
	})
	out["dist.mem_batch128_ns_per_token"] = ns / burstLen
	out["dist.mem_batch128_allocs_per_token"] = allocs / burstLen
	if perr == nil {
		if err := cl.CheckStep(); err != nil {
			perr = fmt.Errorf("probe dist: %w", err)
		}
	}
	if perr != nil {
		return nil, perr
	}

	// core structural work: cold convergence, then core-churn's full cycle
	// of joins and leaves with nothing else running
	var fix, cycle []float64
	for p := 0; p < probePasses; p++ {
		net, err := core.New(core.Config{Width: coreWidth, InitialNodes: coreNodes, Seed: seed + int64(p)})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := net.MaintainToFixpoint(50); err != nil {
			return nil, err
		}
		fix = append(fix, float64(time.Since(t0))/1e6)
		if scale > 1 && p > 0 {
			continue
		}
		m0 := net.Metrics()
		t0 = time.Now()
		for event := 0; event < 2*churnPhase; event++ {
			if err := churnEvent(net, event); err != nil {
				return nil, err
			}
			if _, err := net.MaintainToFixpoint(50); err != nil {
				return nil, err
			}
		}
		d := time.Since(t0)
		m := net.Metrics().Sub(m0)
		cycle = append(cycle, ratio(us(float64(d)), float64(m.Splits+m.Merges)))
	}
	out["core.maintain_fixpoint_ms"] = median(fix)
	out["core.split_merge_cycle_us"] = median(cycle)
	return out, nil
}
