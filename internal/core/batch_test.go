package core

import (
	"math/rand"
	"sync"
	"testing"
)

// twinNets builds two identically-configured, identically-seeded networks
// so one can be driven per-call and the other batched.
func twinNets(t *testing.T, nodes int) (*Network, *Network) {
	t.Helper()
	mk := func() *Network {
		n, err := New(Config{Width: 256, Seed: 7, InitialNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.MaintainToFixpoint(200); err != nil {
			t.Fatal(err)
		}
		return n
	}
	return mk(), mk()
}

// TestInjectBatchMatchesSequential drives the same token multiset through
// one network per-call and another batched. In quiescence a balancing
// network's state — and therefore its per-output-wire emission counts and
// total wire hops — is a pure function of the cumulative per-input-wire
// arrivals, so the two executions must agree exactly.
func TestInjectBatchMatchesSequential(t *testing.T) {
	for _, nodes := range []int{1, 4, 16} {
		seq, bat := twinNets(t, nodes)
		seqClient, err := seq.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		batClient, err := bat.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 40; round++ {
			var ins []int
			switch round % 3 {
			case 0: // burst on one wire
				wire := rng.Intn(256)
				for i := 0; i < 64; i++ {
					ins = append(ins, wire)
				}
			case 1: // uniform scatter
				for i := 0; i < 48; i++ {
					ins = append(ins, rng.Intn(256))
				}
			default: // tiny batch
				ins = append(ins, rng.Intn(256))
			}
			for _, in := range ins {
				if _, err := seqClient.InjectAt(in); err != nil {
					t.Fatal(err)
				}
			}
			bt, err := batClient.InjectBatch(ins)
			if err != nil {
				t.Fatal(err)
			}
			if bt.Tokens != len(ins) {
				t.Fatalf("nodes=%d: batch trace counted %d tokens, injected %d", nodes, bt.Tokens, len(ins))
			}
		}
		if got, want := bat.OutCounts(), seq.OutCounts(); !equalSeq(got, want) {
			t.Fatalf("nodes=%d: batched out counts %v != sequential %v", nodes, got, want)
		}
		sm, bm := seq.Metrics(), bat.Metrics()
		if sm.Tokens != bm.Tokens {
			t.Fatalf("nodes=%d: token counters differ: %d vs %d", nodes, sm.Tokens, bm.Tokens)
		}
		if sm.WireHops != bm.WireHops {
			t.Fatalf("nodes=%d: wire hop totals differ: seq %d vs batch %d", nodes, sm.WireHops, bm.WireHops)
		}
		if err := bat.CheckStep(); err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
	}
}

func equalSeq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInjectBatchAmortizes asserts the batched pipeline actually moves
// groups: a single-wire burst must pay far fewer component visits
// (GroupHops) than token traversals (WireHops), and entry tries must not
// scale with the batch size.
func TestInjectBatchAmortizes(t *testing.T) {
	n, err := New(Config{Width: 256, Seed: 3, InitialNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(200); err != nil {
		t.Fatal(err)
	}
	c, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 128) // all on wire 0
	if _, err := c.InjectBatch(ins); err != nil {
		t.Fatal(err) // warm the memos
	}
	bt, err := c.InjectBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if bt.WireHops < bt.GroupHops*2 {
		t.Fatalf("no amortization: %d wire hops over %d group hops", bt.WireHops, bt.GroupHops)
	}
	if bt.EntryTries > 2 {
		t.Fatalf("entry search ran per token: %d tries for one distinct wire", bt.EntryTries)
	}
	if bt.NameLookups > bt.EntryTries {
		t.Fatalf("lookups scaled past entry resolution: %d lookups for %d entry tries",
			bt.NameLookups, bt.EntryTries)
	}
}

// TestInjectBatchErrors covers the argument edge cases.
func TestInjectBatchErrors(t *testing.T) {
	n, err := New(Config{Width: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if bt, err := c.InjectBatch(nil); err != nil || bt.Tokens != 0 {
		t.Fatalf("empty batch: trace %+v err %v", bt, err)
	}
	if _, err := c.InjectBatch([]int{0, 16}); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
	if _, err := c.InjectBatch([]int{-1}); err == nil {
		t.Fatal("negative wire accepted")
	}
	m := n.Metrics()
	if m.Tokens != 0 {
		t.Fatalf("rejected batches injected %d tokens", m.Tokens)
	}
}

// TestInjectBatchDisableCache exercises the uncached (E13-ablation) path:
// every group resolution pays metered DHT lookups but counting stays
// exact.
func TestInjectBatchDisableCache(t *testing.T) {
	n, err := New(Config{Width: 64, Seed: 5, InitialNodes: 4, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(200); err != nil {
		t.Fatal(err)
	}
	c, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 96)
	rng := rand.New(rand.NewSource(2))
	for i := range ins {
		ins[i] = rng.Intn(64)
	}
	bt, err := c.InjectBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	if bt.NameLookups == 0 {
		t.Fatal("uncached batch issued no DHT lookups")
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectBatchConcurrentWithChurn batches from several goroutines while
// the main goroutine churns membership and runs maintenance: batches hold
// the structural lock in read mode for their whole wavefront, so they must
// interleave with structural writers without tripping the race detector or
// breaking the step property.
func TestInjectBatchConcurrentWithChurn(t *testing.T) {
	n, err := New(Config{Width: 256, Seed: 9, InitialNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(200); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for g := 0; g < workers; g++ {
		c, err := n.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, c *Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			ins := make([]int, 32)
			for round := 0; round < 50; round++ {
				wire := rng.Intn(256)
				for i := range ins {
					ins[i] = wire
				}
				if _, err := c.InjectBatch(ins); err != nil {
					errCh <- err
					return
				}
			}
		}(g, c)
	}
	for i := 0; i < 6; i++ {
		n.AddNode()
		if _, err := n.MaintainToFixpoint(200); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := n.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if got, want := n.Metrics().Tokens, uint64(workers*50*32); got != want {
		t.Fatalf("token counter %d, injected %d", got, want)
	}
}
