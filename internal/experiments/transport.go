package experiments

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/estimate"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/tree"
)

// e24FaultyTransport runs the asynchronous engine over a fault-injecting
// message fabric: every token hop and every freeze-protocol control
// message can be dropped, duplicated or delayed, and the reliability layer
// (timeouts, capped-backoff retries, receiver-side dedup) must keep the
// count exact. The sweep quantifies what that reliability costs — extra
// messages, retries and latency — against the lossless rows, across
// system sizes N whose converged cuts the cluster instantiates.
func e24FaultyTransport(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E24",
		Title: "Exact counting over a lossy transport",
		Claim: "retries + at-most-once delivery preserve token conservation and the step property under message loss; overhead is a bounded message and latency tax",
		Headers: []string{"N", "loss", "tokens", "msgs", "msg/tok", "dropped",
			"dup", "retries", "deduped", "p50 us", "p99 us", "conserved", "step"},
	}
	const w = 1 << 10
	ns := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10}
	losses := []float64{0, 0.01, 0.05}
	tokens := 384

	for _, n := range ns {
		level := estimate.IdealLevel(n, w)
		cut, err := tree.UniformCut(w, level)
		if err != nil {
			return nil, err
		}
		for li, loss := range losses {
			// Loss-free rows use the same fault injector with the drop and
			// duplication knobs at zero, so latency and message accounting
			// stay comparable across the sweep.
			env, err := buildCluster(clusterCell{
				Fabric: "faulty", Width: w, Cut: cut,
				Fault: transport.FaultConfig{
					Seed:          opts.Seed + int64(n)*8 + int64(li),
					DropRate:      loss,
					DupRate:       loss / 2,
					LatencyBase:   time.Microsecond,
					LatencyJitter: 10 * time.Microsecond,
				},
				Retry: transport.RetryConfig{
					Timeout:    500 * time.Microsecond,
					MaxRetries: 16,
					Backoff:    20 * time.Microsecond,
					BackoffCap: 200 * time.Microsecond,
				},
			})
			if err != nil {
				return nil, err
			}
			cl, f := env.Cluster, env.Faulty
			// Delta accounting: snapshot the cumulative counters around the
			// injection phase so the row charges only injection traffic, not
			// any setup or verification messaging.
			preSt, preCs := cl.NetStats()
			if err := injectConcurrently(cl, tokens, opts.Seed); err != nil {
				return nil, err
			}
			postSt, postCs := cl.NetStats()
			st, cs := postSt.Sub(preSt), postCs.Sub(preCs)

			stepErr := cl.CheckStep()
			conserved := cl.OutCounts().Total() == cl.InCounts().Total()
			if cs.Failures > 0 {
				t.Note("N=%d loss=%.0f%%: %d calls exhausted their retry budget", n, loss*100, cs.Failures)
			}
			if stepErr != nil && conserved {
				t.Note("N=%d loss=%.0f%%: %v", n, loss*100, stepErr)
			}
			lat := stats.Summarize(f.Latencies())
			t.AddRow(n, formatCell(loss*100)+"%", tokens, st.Sent,
				stats.Ratio(float64(st.Sent), float64(tokens)),
				st.Dropped, st.Duplicated, cs.Retries, st.DedupHits,
				lat.P50*1e6, lat.P99*1e6, conserved, stepErr == nil)
		}
	}
	t.Note("loss applies per message leg; a dropped request or reply surfaces as a sender timeout and a retried message ID, which receiver dedup keeps at-most-once — conservation and the step property must hold in every row")
	return t, nil
}

// injectConcurrently drives tokens through the cluster from 8 goroutines
// with per-goroutine seeded wire choices; the first error wins.
func injectConcurrently(cl *dist.Cluster, tokens int, seed int64) error {
	const workers = 8
	w := cl.Width()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for g := 0; g < workers; g++ {
		share := tokens / workers
		if g < tokens%workers {
			share++
		}
		wg.Add(1)
		go func(g, share int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < share; i++ {
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(g, share)
	}
	wg.Wait()
	return firstErr
}
