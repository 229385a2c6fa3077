package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripedDedupConcurrentRetries hammers one endpoint from many
// goroutines through a duplicating, lossy fabric. Every logical call's
// retries reuse its request ID, so the striped table must keep handler
// effects at-most-once per logical call, and the per-stripe hit counters
// must (a) sum to the switch-wide DedupHits and (b) spread across stripes
// rather than collapsing onto one. Run under -race this is the contention
// test for the stripe locking.
func TestStripedDedupConcurrentRetries(t *testing.T) {
	mem := NewMem()
	var runs atomic.Int64
	if err := mem.Bind("ctr", func(Request) (any, error) { return runs.Add(1), nil }); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(mem, FaultConfig{Seed: 3, DropRate: 0.2, DupRate: 0.6})

	const workers = 8
	const perWorker = 40
	// One shared client: request IDs identify logical calls switch-wide, so
	// all senders draw from its single atomic ID sequence.
	c := NewClient(f, RetryConfig{Timeout: time.Millisecond, MaxRetries: 20, Backoff: 20 * time.Microsecond})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Call("x", "ctr", "inc", nil); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(5 * time.Millisecond) // let duplicate deliveries drain
	if failed.Load() != 0 {
		t.Fatalf("%d calls exhausted retries", failed.Load())
	}
	if got := runs.Load(); got != workers*perWorker {
		t.Fatalf("handler ran %d times for %d logical calls (at-most-once violated)", got, workers*perWorker)
	}
	hits := mem.dedupShardHits()
	var sum uint64
	var used int
	for _, h := range hits {
		sum += h
		if h > 0 {
			used++
		}
	}
	if want := mem.Stats().DedupHits; sum != want {
		t.Fatalf("per-stripe hits sum to %d, switch counted %d", sum, want)
	}
	if sum == 0 {
		t.Fatal("no duplicates deduped; fault injection not exercised")
	}
	if used < 2 {
		t.Fatalf("all %d dedup hits landed on one stripe; shard hash not spreading", sum)
	}
}

// TestEnableDedupLiveSwitch turns dedup on while senders are mid-flight:
// the atomic table installation must be race-clean, every Send must either
// execute directly (pre-installation semantic) or dedup, and enabling twice
// must not discard already-cached replies.
func TestEnableDedupLiveSwitch(t *testing.T) {
	n := NewMem()
	var runs atomic.Int64
	if err := n.Bind("a", func(Request) (any, error) { return runs.Add(1), nil }); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				// Distinct IDs per sender: dedup state must not conflate them.
				id := uint64(g*1000 + i)
				if _, err := n.Send(Request{ID: id, To: "a"}, time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		n.EnableDedup()
	}()
	close(start)
	wg.Wait()
	if got := runs.Load(); got != 4*200 {
		t.Fatalf("handler ran %d times for 800 distinct IDs", got)
	}

	// Dedup is now on: a reply cached before a second EnableDedup must
	// survive it.
	if _, err := n.Send(Request{ID: 42_000, To: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	before := runs.Load()
	n.EnableDedup()
	if _, err := n.Send(Request{ID: 42_000, To: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != before {
		t.Fatal("re-enabling dedup discarded the cached reply; handler re-ran")
	}

	// Endpoints bound after enablement dedup from their first message.
	if err := n.Bind("b", func(Request) (any, error) { return runs.Add(1), nil }); err != nil {
		t.Fatal(err)
	}
	base := runs.Load()
	for i := 0; i < 2; i++ {
		if _, err := n.Send(Request{ID: 7, To: "b"}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != base+1 {
		t.Fatal("late-bound endpoint did not dedup")
	}
}

// TestDedupBounded is the retirement-bound contract: a long-lived endpoint
// must not accumulate dedup state forever. Completed calls retire oldest
// first once a stripe passes its share of the cap, recent completions stay
// deduplicable, and in-flight calls are never evicted regardless of
// pressure.
func TestDedupBounded(t *testing.T) {
	const capTotal = DedupShards * 8
	tbl := NewDedupTable(capTotal)
	var runs atomic.Int64
	exec := func() (any, error) { return runs.Add(1), nil }

	// 100x the cap in distinct IDs: the table must stay at (or below) the
	// cap instead of growing with traffic.
	for id := uint64(1); id <= capTotal*100; id++ {
		if _, err, _ := tbl.Do(id, exec); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.Len(); n > capTotal {
		t.Fatalf("table holds %d entries after %d calls, cap %d", n, capTotal*100, capTotal)
	}
	if n := tbl.Len(); n == 0 {
		t.Fatal("table empty; retirement evicted the live window too")
	}

	// The most recent completion is still cached: its duplicate must hit.
	last := uint64(capTotal * 100)
	if _, _, hit := tbl.Do(last, exec); !hit {
		t.Fatal("duplicate of the most recent call re-executed; retained window broken")
	}
	// A call far behind the retained window has been retired: its duplicate
	// re-executes (the documented bound semantic — acceptable because the
	// client protocol never re-sends an ID after receiving a reply).
	before := runs.Load()
	if _, _, hit := tbl.Do(1, exec); hit {
		t.Fatal("ancient ID still cached; retirement not happening")
	}
	if runs.Load() != before+1 {
		t.Fatal("retired ID neither hit nor re-executed")
	}

	// In-flight calls survive any amount of retirement pressure: a
	// duplicate arriving mid-execution awaits the original instead of
	// re-running it.
	started := make(chan struct{})
	release := make(chan struct{})
	var inflightRuns atomic.Int64
	go tbl.Do(1<<40, func() (any, error) {
		inflightRuns.Add(1)
		close(started)
		<-release
		return "slow", nil
	})
	<-started
	for id := uint64(1 << 41); id < 1<<41+capTotal*4; id++ {
		if _, err, _ := tbl.Do(id, exec); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		reply, _, hit := tbl.Do(1<<40, func() (any, error) { inflightRuns.Add(1); return "dup", nil })
		if !hit || reply != "slow" {
			t.Errorf("in-flight duplicate: hit=%v reply=%v, want cached original", hit, reply)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	close(release)
	<-done
	if inflightRuns.Load() != 1 {
		t.Fatalf("in-flight call executed %d times", inflightRuns.Load())
	}
}

// TestDedupShardSpread checks the shard hash statically: 4096 consecutive
// request IDs — the allocation pattern of transport.Client — must touch
// every stripe with no stripe holding more than twice its fair share.
func TestDedupShardSpread(t *testing.T) {
	tbl := NewDedupTable(0)
	counts := make(map[*dedupShard]int)
	for id := uint64(1); id <= 4096; id++ {
		counts[tbl.shard(id)]++
	}
	if len(counts) != DedupShards {
		t.Fatalf("consecutive IDs touched %d of %d stripes", len(counts), DedupShards)
	}
	fair := 4096 / DedupShards
	for _, c := range counts {
		if c > 2*fair {
			t.Fatalf("stripe holds %d of 4096 IDs (fair share %d)", c, fair)
		}
	}
}
