package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestConcurrentInjection drives many clients in parallel against a fixed
// topology and checks the lock-free token path kept counting exact: the
// step property holds at quiescence and no token was lost or duplicated.
func TestConcurrentInjection(t *testing.T) {
	n, err := New(Config{Width: 64, Seed: 1, InitialNodes: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	values := make([]map[uint64]bool, workers)
	for g := 0; g < workers; g++ {
		g := g
		client, err := n.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		values[g] = make(map[uint64]bool, per)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr, err := client.Inject()
				if err != nil {
					t.Error(err)
					return
				}
				values[g][tr.Value] = true
			}
		}()
	}
	wg.Wait()
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if got := n.Metrics().Tokens; got != workers*per {
		t.Fatalf("metrics counted %d tokens, want %d", got, workers*per)
	}
	// Counter values must be unique across all clients (each token gets
	// its own value — the counting property).
	seen := make(map[uint64]bool, workers*per)
	for _, m := range values {
		for v := range m {
			if seen[v] {
				t.Fatalf("counter value %d issued twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct values for %d tokens", len(seen), workers*per)
	}
}

// TestConcurrentInjectionDuringMaintain interleaves parallel token traffic
// with structural churn (joins driving splits, leaves driving merges). The
// structural lock drains in-flight tokens before each change and every
// token resolves against a published epoch snapshot, so at quiescence the
// output must still be a step sequence with exact conservation.
func TestConcurrentInjectionDuringMaintain(t *testing.T) {
	n, err := New(Config{Width: 32, Seed: 7, InitialNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	const per = 1500
	startEpoch := n.topologyEpoch()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		client, err := n.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := client.Inject(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Structural churn concurrent with the traffic: grow (splits), then
	// shrink (merges), re-running maintenance after each membership step.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var added []int64
		for i := 0; i < 6; i++ {
			id := n.addNode()
			added = append(added, int64(id))
			if _, err := n.MaintainToFixpoint(100); err != nil {
				t.Error(err)
				return
			}
		}
		for range added[:3] {
			if _, err := n.RemoveRandomNode(); err != nil {
				t.Error(err)
				return
			}
			if _, err := n.MaintainToFixpoint(100); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if got := n.Metrics().Tokens; got != workers*per {
		t.Fatalf("metrics counted %d tokens, want %d", got, workers*per)
	}
	if n.topologyEpoch() == startEpoch {
		t.Fatal("structural churn published no new topology epoch")
	}
	if n.Metrics().Splits == 0 {
		t.Fatal("churn drove no splits; the test exercised nothing")
	}
}

// TestLookupCacheInvalidationOnChurn checks the DHT lookup cache serves
// correct entries across joins, graceful leaves, and crashes: after each
// membership change tokens must still route and count exactly, and the
// cache must have flushed.
func TestLookupCacheInvalidationOnChurn(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := New(Config{Width: 32, Seed: 3, InitialNodes: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	inject := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := client.Inject(); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject(200) // warm the cache
	warm := n.LookupCacheStats()
	if warm.Hits == 0 {
		t.Fatal("warm traffic never hit the lookup cache")
	}

	churn := []struct {
		desc string
		do   func() error
	}{
		{"join", func() error { n.addNode(); return nil }},
		{"leave", func() error { _, err := n.RemoveRandomNode(); return err }},
		{"crash", func() error {
			if _, err := n.CrashRandomNode(); err != nil {
				return err
			}
			_, err := n.Stabilize()
			return err
		}},
	}
	for _, ch := range churn {
		before := n.LookupCacheStats().Flushes
		if err := ch.do(); err != nil {
			t.Fatalf("%s: %v", ch.desc, err)
		}
		if _, err := n.MaintainToFixpoint(100); err != nil {
			t.Fatalf("%s: %v", ch.desc, err)
		}
		inject(200)
		if err := n.CheckStep(); err != nil {
			t.Fatalf("after %s: %v", ch.desc, err)
		}
		if got := n.LookupCacheStats().Flushes; got == before {
			t.Fatalf("after %s: lookup cache never flushed (still %d flushes)", ch.desc, got)
		}
	}

	// The obs counters mirror the cache's own stats.
	st := n.LookupCacheStats()
	if got := reg.Counter("chord.lcache.hits").Value(); got != st.Hits {
		t.Fatalf("obs hits %d, cache stats %d", got, st.Hits)
	}
}

// TestLookupCacheDisabled checks the opt-out: with DisableCache (the E13
// ablation) every token keeps paying full lookups.
func TestLookupCacheDisabled(t *testing.T) {
	n, err := New(Config{Width: 16, Seed: 5, InitialNodes: 4, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := client.Inject(); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.LookupCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled lookup cache saw traffic: %+v", st)
	}
	if m := n.Metrics(); m.LCacheHits != 0 || m.NameLookups == 0 {
		t.Fatalf("disabled cache metrics: %+v", m)
	}
}
