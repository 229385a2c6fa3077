package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
)

// E30RPCFastPath measures the RPC fast path under sender concurrency: the
// same token stream injected by 1..N concurrent senders through the dist
// engine, over the in-process fabric and over TCP loopback. Wall-clock per
// token should fall (or at least not collapse) as senders grow, because
// concurrent senders do not serialize on per-call locks: frames and reply
// slots come from pools, each call takes the idlest pooled connection, and
// every frame is one write. Counting stays exact in every cell. shared/call
// is the fraction of calls that found every connection of their
// destination's pool busy; the closing rows sweep the pool at two senders.
func E30RPCFastPath(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E30",
		Title: "RPC fast path under concurrency (pooled frames, idle-socket checkout)",
		Claim: "concurrent senders do not serialize: each call takes an idle pooled socket while the pool covers the senders, and counting stays exact",
		Headers: []string{"fabric", "pool", "senders", "tokens", "ms", "us/tok", "p50 us", "p95 us",
			"rpcs", "us/rpc", "shared/call", "conserved"},
	}
	const (
		w     = 1 << 10
		nodes = 64
	)
	tokens := 2048
	senders := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		tokens = 512
		senders = []int{1, 8}
	}
	level := estimate.IdealLevel(nodes, w)
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}
	retry := transport.RetryConfig{
		Timeout:    50 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}

	type cell struct {
		fabric        string
		pool, senders int // pool 0: the fabric has none (mem)
	}
	var cells []cell
	for _, f := range []cell{{fabric: "mem"}, {fabric: "tcp", pool: 2}} {
		for _, s := range senders {
			cells = append(cells, cell{f.fabric, f.pool, s})
		}
	}
	cells = append(cells, cell{"tcp", 1, 2}, cell{"tcp", 4, 2}, cell{"tcp", 8, 2})
	for _, c := range cells {
		fabric, s := c.fabric, c.senders
		env, err := buildCluster(clusterCell{
			Fabric: fabric, Width: w, Cut: cut, Retry: retry, Obs: opts.Obs, Pool: c.pool,
		})
		if err != nil {
			return nil, err
		}
		cl, tn := env.Cluster, env.TCP
		ins := make([]int, tokens)
		for i := range ins {
			ins[i] = (i * 2654435761) % w
		}
		var preWS tcpnet.WireStats
		if tn != nil {
			preWS = tn.WireStats()
		}
		_, preCS := cl.NetStats()

		// Each sender injects a disjoint contiguous share of the same
		// arrival sequence; the union is identical in every cell, so
		// the conservation check pins exactness under concurrency.
		share := (tokens + s - 1) / s
		var wg sync.WaitGroup
		errCh := make(chan error, s)
		lats := make([]float64, tokens) // per-token wall us, each sender its own share
		start := time.Now()
		for g := 0; g < s; g++ {
			lo := g * share
			hi := lo + share
			if hi > tokens {
				hi = tokens
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []int, lat []float64) {
				defer wg.Done()
				for i, in := range part {
					t0 := time.Now()
					if _, err := cl.Inject(in); err != nil {
						errCh <- err
						return
					}
					lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
				}
			}(ins[lo:hi], lats[lo:hi])
		}
		wg.Wait()
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		select {
		case err := <-errCh:
			return nil, err
		default:
		}

		_, postCS := cl.NetStats()
		rpcs := postCS.Sub(preCS).Calls
		usPerRPC := 0.0
		if rpcs > 0 {
			usPerRPC = ms * 1000 / float64(rpcs)
		}
		sort.Float64s(lats)
		shared, pool := "-", "-"
		if tn != nil {
			if rpcs > 0 {
				shared = fmt.Sprintf("%.2f", float64(tn.WireStats().Shared-preWS.Shared)/float64(rpcs))
			}
			pool = fmt.Sprintf("%d", c.pool)
		}
		conserved := cl.OutCounts().Total() == cl.InCounts().Total()
		t.AddRow(fabric, pool, s, tokens, ms, ms*1000/float64(tokens),
			lats[tokens/2], lats[tokens*95/100], rpcs,
			usPerRPC, shared, conserved)
		if err := env.Close(); err != nil {
			return nil, err
		}
	}
	t.Note("every cell injects the identical %d-token arrival sequence through the same cut (%d components at level %d), split across the senders, so conservation holds in all of them; shared/call is the fraction of calls that found every pooled connection of their destination busy and had to multiplex (0 while senders <= pool), p50/p95 are per-token wall times, and the last three rows sweep the pool size at 2 senders", tokens, len(cut), level)
	return t, nil
}
