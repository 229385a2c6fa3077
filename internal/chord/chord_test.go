package chord

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestJoinUniqueSorted(t *testing.T) {
	r := NewRing(1)
	ids := r.JoinN(200)
	if r.Size() != 200 {
		t.Fatalf("size = %d, want 200", r.Size())
	}
	seen := make(map[NodeID]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	nodes := r.Nodes()
	if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
		t.Fatal("ring order not sorted")
	}
}

func TestRemove(t *testing.T) {
	r := NewRing(2)
	ids := r.JoinN(10)
	if err := r.Remove(ids[3]); err != nil {
		t.Fatal(err)
	}
	if r.Contains(ids[3]) {
		t.Fatal("removed node still present")
	}
	if r.Size() != 9 {
		t.Fatalf("size = %d, want 9", r.Size())
	}
	if err := r.Remove(ids[3]); err == nil {
		t.Fatal("removing twice should fail")
	}
}

func TestSuccessorSemantics(t *testing.T) {
	r := NewRing(3)
	// Build a deterministic ring by hand through Join, then query around
	// the actual members.
	r.JoinN(16)
	nodes := r.Nodes()
	for i, id := range nodes {
		// A key exactly at a node belongs to that node.
		got, err := r.Successor(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != id {
			t.Fatalf("Successor(own id) = %d, want %d", got, id)
		}
		// A key just after a node belongs to the next node (wrapping).
		got, err = r.Successor(id + 1)
		if err != nil {
			t.Fatal(err)
		}
		want := nodes[(i+1)%len(nodes)]
		if got != want {
			t.Fatalf("Successor(id+1) = %d, want %d", got, want)
		}
	}
}

func TestSuccK(t *testing.T) {
	r := NewRing(4)
	r.JoinN(8)
	nodes := r.Nodes()
	v := nodes[5]
	for k := 0; k <= 20; k++ {
		got, err := r.SuccK(v, k)
		if err != nil {
			t.Fatal(err)
		}
		want := nodes[(5+k)%len(nodes)]
		if got != want {
			t.Fatalf("SuccK(%d) = %d, want %d", k, got, want)
		}
	}
	if _, err := r.SuccK(NodeID(12345), 1); err == nil {
		t.Fatal("SuccK of a non-member should fail")
	}
}

func TestDist(t *testing.T) {
	r := NewRing(5)
	half := NodeID(uint64(1) << 63)
	if d := r.Dist(0, half); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("half-ring distance = %v", d)
	}
	if d := r.Dist(half, 0); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("wrap half-ring distance = %v", d)
	}
	if d := r.Dist(7, 7); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	// Distances around the ring sum to 1.
	r.JoinN(50)
	nodes := r.Nodes()
	sum := 0.0
	for i := range nodes {
		sum += r.Dist(nodes[i], nodes[(i+1)%len(nodes)])
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ring distances sum to %v, want 1", sum)
	}
}

// TestNodeAddrAndDistFormulas holds the hand-written address formatter to
// fmt's %016x and Dist's constant divisor to math.Exp2(64), bit for bit.
func TestNodeAddrAndDistFormulas(t *testing.T) {
	r := NewRing(9)
	rng := rand.New(rand.NewSource(9))
	ids := []NodeID{0, 1, 0xf, 0x10, 1 << 63, ^NodeID(0)}
	for range 1000 {
		ids = append(ids, NodeID(rng.Uint64()))
	}
	for i, id := range ids {
		if got, want := string(nodeAddr(id)), fmt.Sprintf("n:%016x", uint64(id)); got != want {
			t.Fatalf("nodeAddr(%d) = %q, want %q", uint64(id), got, want)
		}
		v := ids[(i+1)%len(ids)]
		if got, want := r.Dist(id, v), float64(uint64(v-id))/math.Exp2(64); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Dist(%d, %d) = %v, want %v", uint64(id), uint64(v), got, want)
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	if Hash("B8@") != Hash("B8@") {
		t.Fatal("hash not deterministic")
	}
	if Hash("B8@0") == Hash("B8@1") {
		t.Fatal("suspicious collision on sibling names")
	}
}

func TestOwnerMatchesSuccessorOfHash(t *testing.T) {
	r := NewRing(6)
	r.JoinN(32)
	name := "M16@021"
	owner, err := r.Owner(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Successor(Hash(name))
	if err != nil {
		t.Fatal(err)
	}
	if owner != want {
		t.Fatalf("owner = %d, want %d", owner, want)
	}
}

func TestLookupFindsOwner(t *testing.T) {
	r := NewRing(7)
	r.JoinN(128)
	rng := rand.New(rand.NewSource(7))
	nodes := r.Nodes()
	for trial := 0; trial < 200; trial++ {
		from := nodes[rng.Intn(len(nodes))]
		key := NodeID(rng.Uint64())
		owner, hops, err := r.Lookup(from, key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Successor(key)
		if err != nil {
			t.Fatal(err)
		}
		if owner != want {
			t.Fatalf("lookup owner = %d, want %d", owner, want)
		}
		if from == want && hops != 0 {
			t.Fatalf("self-lookup took %d hops", hops)
		}
	}
}

// TestLookupHopsLogarithmic: mean lookup cost should be O(log N) — for
// idealized Chord about (log2 N)/2 — and certainly no more than log2 N
// plus slack.
func TestLookupHopsLogarithmic(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		r := NewRing(int64(n))
		r.JoinN(n)
		rng := rand.New(rand.NewSource(99))
		nodes := r.Nodes()
		totalHops := 0
		const trials = 300
		for trial := 0; trial < trials; trial++ {
			from := nodes[rng.Intn(len(nodes))]
			_, hops, err := r.Lookup(from, NodeID(rng.Uint64()))
			if err != nil {
				t.Fatal(err)
			}
			totalHops += hops
		}
		mean := float64(totalHops) / trials
		logN := math.Log2(float64(n))
		if mean > logN+2 {
			t.Fatalf("N=%d: mean hops %.2f exceeds log2(N)+2 = %.2f", n, mean, logN+2)
		}
		if mean < 0.25*logN {
			t.Fatalf("N=%d: mean hops %.2f suspiciously low (cost model broken?)", n, mean)
		}
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := NewRing(8)
	if _, err := r.Successor(1); err == nil {
		t.Fatal("Successor on empty ring should fail")
	}
	if _, err := r.RandomNode(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("RandomNode on empty ring should fail")
	}
	if _, _, err := r.Lookup(1, 2); err == nil {
		t.Fatal("Lookup on empty ring should fail")
	}
}

func TestLookupFromNonMember(t *testing.T) {
	r := NewRing(9)
	r.JoinN(4)
	if _, _, err := r.Lookup(NodeID(1), NodeID(2)); err == nil && !r.Contains(1) {
		t.Fatal("lookup from non-member should fail")
	}
}

func TestInOpenInterval(t *testing.T) {
	tests := []struct {
		x, a, b NodeID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{0, 10, 1, true},  // wrap
		{11, 10, 1, true}, // wrap
		{5, 10, 1, false},
		{3, 7, 7, true}, // full ring except a
		{7, 7, 7, false},
	}
	for _, tt := range tests {
		if got := inOpenInterval(tt.x, tt.a, tt.b); got != tt.want {
			t.Errorf("inOpenInterval(%d, %d, %d) = %v, want %v", tt.x, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRing(10)
	r.JoinN(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				switch rng.Intn(3) {
				case 0:
					r.Join()
				case 1:
					if id, err := r.RandomNode(rng); err == nil {
						_, _, _ = r.Lookup(id, NodeID(rng.Uint64()))
					}
				case 2:
					if id, err := r.RandomNode(rng); err == nil {
						_ = r.Remove(id)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestLookupInstrumented(t *testing.T) {
	r := NewRing(9)
	ids := r.JoinN(64)
	reg := obs.NewRegistry()
	r.Instrument(reg)
	lookups := 0
	for i, from := range ids {
		if _, _, err := r.Lookup(from, ids[(i*7+3)%len(ids)]); err != nil {
			t.Fatal(err)
		}
		lookups++
	}
	snap := reg.Snapshot()
	hops := snap.Histograms["chord.lookup.hops"]
	if hops.Count != lookups {
		t.Fatalf("hop samples = %d, want %d", hops.Count, lookups)
	}
	// 64 nodes: mean hops should be O(log n), certainly below log2(64)+2.
	if hops.Mean > 8 {
		t.Fatalf("mean lookup hops %.2f implausibly high for 64 nodes", hops.Mean)
	}
	lat := snap.Histograms["chord.lookup.seconds"]
	if lat.Count != lookups {
		t.Fatalf("latency samples = %d, want %d", lat.Count, lookups)
	}
	// The client's call RTTs ride along via rc.Instrument.
	if snap.Histograms["transport.call.seconds"].Count == 0 {
		t.Fatal("ring did not instrument its transport client")
	}
}
