package dist

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
)

// faultyCluster builds a cluster over a lossy, jittery fabric with a retry
// budget that makes per-call failure negligible at the configured loss.
func faultyCluster(t *testing.T, w int, cut tree.Cut, drop float64) *Cluster {
	t.Helper()
	f := transport.NewFaulty(transport.NewMem(), transport.FaultConfig{
		Seed:          13,
		DropRate:      drop,
		DupRate:       drop,
		ReorderRate:   0.1,
		LatencyBase:   time.Microsecond,
		LatencyJitter: 10 * time.Microsecond,
	})
	cl, err := New(w, cut, WithTransport(f), WithRetry(transport.RetryConfig{
		Timeout:    500 * time.Microsecond,
		MaxRetries: 16,
		Backoff:    20 * time.Microsecond,
		BackoffCap: 200 * time.Microsecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCountingUnderFaultyTransport: with every token hop and every control
// message subject to loss, duplication, reordering and delay, retries plus
// receiver-side dedup keep counting exact: no token is lost or counted
// twice (conservation), and the quiescent step property holds.
func TestCountingUnderFaultyTransport(t *testing.T) {
	w := 8
	cl := faultyCluster(t, w, tree.RootCut(), 0.05)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	st, cs := cl.NetStats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("faults not exercised: %+v", st)
	}
	if cs.Retries == 0 || st.DedupHits == 0 {
		t.Fatalf("reliability layer idle: transport %+v client %+v", st, cs)
	}
	if cs.Failures != 0 {
		t.Fatalf("client stats %+v: retries exhausted", cs)
	}
}

// TestReconfigUnderFaultyTransport: the freeze protocol's control messages
// (freeze, total polls, kill, resume) ride the same lossy fabric as token
// traffic, concurrently with injections, and the network still neither
// loses nor double-counts a token across split/merge cycles.
func TestReconfigUnderFaultyTransport(t *testing.T) {
	w := 8
	cl := faultyCluster(t, w, tree.RootCut(), 0.03)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Inject(rng.Intn(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	for cycle := 0; cycle < 3; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("0"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if _, cs := cl.NetStats(); cs.Failures != 0 {
		t.Fatalf("client stats %+v: retries exhausted", cs)
	}
}
