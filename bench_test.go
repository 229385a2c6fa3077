package acn_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	acn "repro"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/cutnet"
	"repro/internal/dist"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
	"repro/internal/wire"
)

// benchExperiment runs one reproduction experiment per iteration (tables
// are what the experiments produce; the bench measures the cost of
// regenerating them). With -v the first iteration's table is printed.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				b.Fatal(err)
			}
		} else if i == 0 {
			if _, err := t.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1FullExpansion(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2PhiAndCuts(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3Figure3(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE4EveryCutCounts(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5DepthBound(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6WidthBound(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7SizeEstimation(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8LevelEstimates(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9ComponentLevels(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10ComponentsPerNode(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11WidthDepthScaling(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12Churn(b *testing.B)             { benchExperiment(b, "E12") }
func BenchmarkE13RoutingEfficiency(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkE14InputLookup(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15Comparison(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16Matching(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE17Erratum(b *testing.B)           { benchExperiment(b, "E17") }
func BenchmarkE18AblationNoMerge(b *testing.B)   { benchExperiment(b, "E18") }
func BenchmarkE19AblationEstimator(b *testing.B) { benchExperiment(b, "E19") }

// --- Micro-benchmarks of the hot operations ---

func BenchmarkTokenRootComponent(b *testing.B) {
	n, err := cutnet.NewRootOnly(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Inject(rng.Intn(64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenFullyExpanded(b *testing.B) {
	for _, w := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			n, err := cutnet.New(w, tree.LeafCut(w))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Inject(rng.Intn(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTokenAdaptive(b *testing.B) {
	for _, nodes := range []int{16, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			net, err := core.New(core.Config{Width: 1 << 12, Seed: 1, InitialNodes: nodes})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.MaintainToFixpoint(200); err != nil {
				b.Fatal(err)
			}
			client, err := net.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Inject(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenAdaptiveParallel injects from concurrent clients (one per
// worker goroutine), exercising the lock-free balancer fetch-add, the
// epoch-snapshot topology, and the lookup/neighbor caches under
// contention. One op is one token.
func BenchmarkTokenAdaptiveParallel(b *testing.B) {
	for _, nodes := range []int{16, 128} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			net, err := core.New(core.Config{Width: 1 << 12, Seed: 1, InitialNodes: nodes})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := net.MaintainToFixpoint(200); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client, err := net.NewClient()
				if err != nil {
					b.Error(err)
					return
				}
				for pb.Next() {
					if _, err := client.Inject(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkTokenDist measures the message-level cluster: one op is one
// token traversing the transport with pooled endpoints.
func BenchmarkTokenDist(b *testing.B) {
	w := 64
	cl, err := distCluster(w)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Inject(rng.Intn(w)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenDistBatch amortizes endpoint setup across a whole batch.
// ns/op is still per token (b.N tokens total).
func BenchmarkTokenDistBatch(b *testing.B) {
	w := 64
	cl, err := distCluster(w)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const batch = 64
	ins := make([]int, batch)
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := batch
		if left := b.N - done; left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			ins[i] = rng.Intn(w)
		}
		if _, err := cl.InjectBatch(ins[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

func distCluster(w int) (*dist.Cluster, error) {
	cl, err := dist.NewRootOnly(w)
	if err != nil {
		return nil, err
	}
	if err := cl.Split(""); err != nil {
		return nil, err
	}
	return cl, nil
}

// BenchmarkChordLookupCached measures the churn-invalidated lookup cache
// on a stable ring (the warm path tokens hit between membership changes).
func BenchmarkChordLookupCached(b *testing.B) {
	ring := acn.NewRing(1)
	ids := ring.JoinN(1024)
	cache := chord.NewLookupCache(ring, 4096)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		if _, _, _, err := cache.Owner(from, fmt.Sprint(i%512)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitMergeCycle(b *testing.B) {
	n, err := cutnet.NewRootOnly(1 << 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if _, err := n.Inject(rng.Intn(1 << 10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Split(""); err != nil {
			b.Fatal(err)
		}
		if err := n.Merge(""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChordLookup(b *testing.B) {
	ring := acn.NewRing(1)
	ids := ring.JoinN(1024)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := ids[rng.Intn(len(ids))]
		if _, _, err := ring.Lookup(from, chord.Hash(fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSizeEstimate(b *testing.B) {
	ring := acn.NewRing(3)
	ids := ring.JoinN(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.SizeEstimate(ring, ids[i%len(ids)], estimate.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainFixpoint times the cold convergence of a freshly built
// network (construction is outside the timer) at three sizes, and reports
// the cut it converges to and the cost per component of that cut and per
// input wire the splits reconstructed (every split component's width). A
// structural operation should cost what it touches: ns/wire should stay
// flat as the network grows, while us/comp follows the wires a split
// touches per component (512 at w4096n128, about 2000 at w65536n2048).
func BenchmarkMaintainFixpoint(b *testing.B) {
	for _, size := range []struct{ width, nodes int }{{1 << 12, 128}, {1 << 14, 512}, {1 << 16, 2048}} {
		b.Run(fmt.Sprintf("w%dn%d", size.width, size.nodes), func(b *testing.B) {
			if size.width > 1<<14 && testing.Short() {
				b.Skip("large network; skipped under -short")
			}
			comps, wires := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, err := core.New(core.Config{Width: size.width, Seed: int64(i), InitialNodes: size.nodes})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := net.MaintainToFixpoint(200); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				comps += net.NumComponents()
				split := map[tree.Path]bool{}
				for p := range net.Cut() {
					for l := 0; l < len(p); l++ {
						if !split[p[:l]] {
							split[p[:l]] = true
							wires += size.width >> l
						}
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(comps)/float64(b.N), "comps")
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(comps), "us/comp")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(wires), "ns/wire")
		})
	}
}

// BenchmarkColdWarmup is the first 10 000 tokens through a freshly
// converged network: every entry and every hop starts cold (no entry memo,
// no wire memo, an empty lookup cache), so one op is dominated by
// findEntry, resolveNext and descendToLive — the path a token takes after
// any structural change.
func BenchmarkColdWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := core.New(core.Config{Width: 1 << 12, Seed: int64(i), InitialNodes: 128})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.MaintainToFixpoint(200); err != nil {
			b.Fatal(err)
		}
		client, err := net.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for k := 0; k < 10000; k++ {
			if _, err := client.InjectAt(k * 2654435761 % (1 << 12)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCoreSetup is the set-up of the acnload benchmark's core-*
// workloads, everything before their first measured token: build a w 4096,
// 128-node network, converge it, and warm it up with 10 000 tokens from two
// clients at once, whose cold hops race each other's row installs and memo
// fills. The converge sub-benchmark stops after the convergence; both
// report allocations, so the set-up's object count is visible too.
func BenchmarkCoreSetup(b *testing.B) {
	const w, warmup, clients = 1 << 12, 10000, 2
	for _, warm := range []bool{false, true} {
		name := "converge"
		if warm {
			name = "warmup"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net, err := core.New(core.Config{Width: w, Seed: int64(i), InitialNodes: 128})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := net.MaintainToFixpoint(200); err != nil {
					b.Fatal(err)
				}
				if !warm {
					continue
				}
				var wg sync.WaitGroup
				errs := make([]error, clients)
				for c := range clients {
					client, err := net.NewClient()
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := c; k < warmup && errs[c] == nil; k += clients {
							_, errs[c] = client.InjectAt(k * 2654435761 % w)
						}
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkEffectiveWidth(b *testing.B) {
	net, err := core.New(core.Config{Width: 1 << 12, Seed: 5, InitialNodes: 128})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.MaintainToFixpoint(200); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.EffectiveWidth(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE21Generality(b *testing.B) { benchExperiment(b, "E21") }

func BenchmarkE22AdaptivityAxes(b *testing.B) { benchExperiment(b, "E22") }

func BenchmarkE23Saturation(b *testing.B) { benchExperiment(b, "E23") }

func BenchmarkE24FaultyTransport(b *testing.B) { benchExperiment(b, "E24") }

func BenchmarkE26Multicore(b *testing.B) { benchExperiment(b, "E26") }

func BenchmarkE32Partitioned(b *testing.B) { benchExperiment(b, "E32") }

// BenchmarkE25Observability prints its table unconditionally (not just
// under -v): the lookup hop-count distribution and per-token latency
// percentiles across N are the observability layer's acceptance output.
func BenchmarkE25Observability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run("E25", experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if _, err := t.WriteTo(os.Stdout); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTransportDedupParallel measures the striped at-most-once table
// under sender concurrency: every logical call is sent twice (the retry
// pattern the dedup table exists for), so half the Sends execute the
// handler and half are served from a stripe's call cache. Before striping,
// all goroutines serialized on one endpoint mutex here.
func BenchmarkTransportDedupParallel(b *testing.B) {
	mem := transport.NewMem()
	if err := mem.Bind("ctr", func(transport.Request) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	mem.EnableDedup()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := next.Add(1)
			if _, err := mem.Send(transport.Request{ID: id, To: "ctr"}, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := mem.Send(transport.Request{ID: id, To: "ctr"}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// distClusterTCP mirrors distCluster but runs the engine over a live TCP
// loopback fabric, so every RPC pays the wire codec and a socket hop.
func distClusterTCP(b *testing.B, w int) *dist.Cluster {
	b.Helper()
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = tn.Close() })
	cl, err := dist.New(w, tree.RootCut(), dist.WithTransport(tn), dist.WithRetry(transport.RetryConfig{
		Timeout:    25 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}))
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.Split(""); err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkTokenDistTCP is BenchmarkTokenDist over TCP loopback: one
// arrive RPC per component visit per token, each through the codec and a
// pooled socket. The gap to BenchmarkTokenDist is the price of a real
// wire; the gap to BenchmarkTokenDistTCPBatch is what group messages
// amortize away.
func BenchmarkTokenDistTCP(b *testing.B) {
	w := 64
	cl := distClusterTCP(b, w)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Inject(rng.Intn(w)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenDistTCPParallel is BenchmarkTokenDistTCP with many
// concurrent senders: 8x GOMAXPROCS injector goroutines share the same
// pooled TCP fabric, each call on a connection of its own, so dialing,
// connection checkout and handler dispatch are all on the measured path —
// the workload the pooled-frame fast path exists for. ns/op is per token
// across all senders.
func BenchmarkTokenDistTCPParallel(b *testing.B) {
	w := 64
	cl := distClusterTCP(b, w)
	var seed atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(8) // >=8 senders even on a single-core host
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			if _, err := cl.Inject(rng.Intn(w)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTokenDistTCPCallers is BenchmarkTokenDistTCP with 1, 2 and 4
// closed-loop callers on one fabric — the benchmark's tcp-token shape. Each
// token is one RPC to the same destination, each on a connection of its
// own; p95-us is the per-token tail that concurrent callers cost, which
// ns/op (a mean over all callers) does not show. An untimed warm-up of 64
// tokens per caller fills the pool, and makes a -benchtime 1x run under
// -race still run the callers' calls against each other.
func BenchmarkTokenDistTCPCallers(b *testing.B) {
	for _, callers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			w := 64
			cl := distClusterTCP(b, w)
			// run injects len(lats) tokens from the callers, which claim
			// token indices until none are left.
			run := func(lats []time.Duration) {
				var next atomic.Int64
				var wg sync.WaitGroup
				for g := 0; g < callers; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := next.Add(1) - 1; i < int64(len(lats)); i = next.Add(1) - 1 {
							start := time.Now()
							if _, err := cl.Inject(rng.Intn(w)); err != nil {
								b.Error(err)
								return
							}
							lats[i] = time.Since(start)
						}
					}(int64(g + 1))
				}
				wg.Wait()
			}
			run(make([]time.Duration, 64*callers))
			lats := make([]time.Duration, b.N)
			b.ResetTimer()
			run(lats)
			b.StopTimer()
			slices.Sort(lats)
			b.ReportMetric(float64(lats[len(lats)*95/100].Nanoseconds())/1e3, "p95-us")
		})
	}
}

// BenchmarkTokenDistTCPBurst is the tcp-burst workload's shape in process:
// two closed-loop callers inject 128-token bursts into the level-2 cut of
// BITONIC[64] on one TCP fabric, each burst one group arrive whose handler
// steps it through every component. b.N counts bursts; ns/token is per token
// over both callers, allocs/burst every object the process allocated (both
// sides of the socket) per burst, counted by runtime.MemStats. An untimed
// warm-up of 16 bursts per caller fills the pools and parks the serve
// goroutines, and makes a -benchtime 1x run under -race still run two
// handlers' chains and the reused serve goroutines against each other.
func BenchmarkTokenDistTCPBurst(b *testing.B) {
	const w, burst, callers = 64, 128, 2
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = tn.Close() })
	cut, err := tree.UniformCut(w, 2)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := dist.New(w, cut, dist.WithTransport(tn), dist.WithRetry(transport.RetryConfig{
		Timeout:    50 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}))
	if err != nil {
		b.Fatal(err)
	}
	// run injects bursts bursts from the callers, which claim them until
	// none are left.
	run := func(bursts int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				ins := make([]int, burst)
				for next.Add(1) <= int64(bursts) {
					for i := range ins {
						ins[i] = rng.Intn(w)
					}
					if _, err := cl.InjectBatch(ins); err != nil {
						b.Error(err)
						return
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
	}
	run(16 * callers)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/token")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/burst")
}

// BenchmarkTokenDistTCPBatch drives the same TCP fabric through the group
// wire message: one group-arrive RPC per component visit per batch. ns/op
// is still per token (b.N tokens total).
func BenchmarkTokenDistTCPBatch(b *testing.B) {
	w := 64
	cl := distClusterTCP(b, w)
	rng := rand.New(rand.NewSource(1))
	const batch = 64
	ins := make([]int, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := batch
		if left := b.N - done; left < n {
			n = left
		}
		for i := 0; i < n; i++ {
			ins[i] = rng.Intn(w)
		}
		if _, err := cl.InjectBatch(ins[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec round-trips one group-arrive request envelope (16
// tokens) through encode, framing and decode — the serialization cost a
// TCP RPC pays on top of the in-process fabric.
func BenchmarkWireCodec(b *testing.B) {
	wires := make([]int, 16)
	seqs := make([]uint64, 16)
	for i := range wires {
		wires[i] = i * 3 % 64
		seqs[i] = uint64(i + 1)
	}
	req := transport.Request{
		ID: 7, From: "t:1", To: "c:0110#2", Kind: wire.KindGroupArrive,
		Body: wire.GroupArrive{Token: "t:1", Wires: wires, Seqs: seqs},
	}
	enc := wire.NewEncoder(256)
	var got wire.Request
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		enc.Pad(wire.FrameOverhead)
		if err := wire.EncodeRequest(enc, uint64(i), req); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.FinishFrame(enc.Bytes()); err != nil {
			b.Fatal(err)
		}
		if err := wire.DecodeRequestFrame(enc.Bytes()[wire.FrameOverhead:], &got); err != nil {
			b.Fatal(err)
		}
	}
}
