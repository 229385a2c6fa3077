package dist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
)

// flushCounter is a batch-capable fabric that counts the batches it is
// handed. Embedding the concrete tcpnet.Net keeps every other capability.
type flushCounter struct {
	*tcpnet.Net
	batches atomic.Int64
}

func (f *flushCounter) SendBatch(reqs []transport.Request, timeout time.Duration, replies []any, errs []error) {
	f.batches.Add(1)
	f.Net.SendBatch(reqs, timeout, replies, errs)
}

// patient is a retry policy whose deadline a loaded loopback socket does
// not miss, so the RPC accounting below is not blurred by retries (the
// default 2 ms deadline suits the in-memory fabric).
var patient = transport.RetryConfig{Timeout: time.Second, MaxRetries: 3}

func randomWires(seed int64, n, w int) []int {
	return randomBatch(rand.New(rand.NewSource(seed)), n, w)
}

// randomBatch draws the input wires of one n-token batch.
func randomBatch(rng *rand.Rand, n, w int) []int {
	ins := make([]int, n)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	return ins
}

// TestBatchFlushMatchesSequential: over a fabric that flushes a round as
// one batch, InjectBatch stays count-for-count equal to InjectBatchSeq on
// the ideal fabric, with and without a group cap, and keeps the RPC
// accounting: an RPC is one component visit (or one cap-sized slice of
// one), whatever shares its flush.
func TestBatchFlushMatchesSequential(t *testing.T) {
	const w, tokens = 16, 200
	ins := randomWires(31, tokens, w)
	for _, tc := range []struct {
		name    string
		cut     tree.Cut
		uniform bool // every path crosses equally many components
	}{
		{"root", tree.RootCut(), true},
		{"uniform1", mustCut(t, w, 1), true},
		{"uniform2", mustCut(t, w, 2), true},
		{"leaf", tree.LeafCut(w), true},
		{"random", tree.RandomCut(w, 0.5, rand.New(rand.NewSource(8))), false},
	} {
		for _, limit := range []int{0, 7} {
			tn, err := tcpnet.New(tcpnet.Config{})
			if err != nil {
				t.Fatal(err)
			}
			fc := &flushCounter{Net: tn}
			grp, err := New(w, tc.cut, WithTransport(fc), WithRetry(patient))
			if err != nil {
				t.Fatal(err)
			}
			if err := grp.SetGroupLimit(limit); err != nil {
				t.Fatal(err)
			}
			seq, err := New(w, tc.cut)
			if err != nil {
				t.Fatal(err)
			}
			_, before := grp.NetStats()
			got, err := grp.InjectBatch(ins)
			if err != nil {
				t.Fatalf("%s limit %d: group batch: %v", tc.name, limit, err)
			}
			_, after := grp.NetStats()
			if _, err := seq.InjectBatchSeq(ins); err != nil {
				t.Fatal(err)
			}
			g, s := grp.OutCounts(), seq.OutCounts()
			for i := range g {
				if g[i] != s[i] {
					t.Fatalf("%s limit %d: output counts diverge: batch %v vs sequential %v", tc.name, limit, g, s)
				}
			}
			if err := grp.CheckStep(); err != nil {
				t.Fatalf("%s limit %d: %v", tc.name, limit, err)
			}
			perOut := make([]int64, w)
			for _, o := range got {
				perOut[o]++
			}
			for i := range g {
				if perOut[i] != g[i] {
					t.Fatalf("%s limit %d: returned outputs %v disagree with the counters %v", tc.name, limit, perOut, g)
				}
			}
			calls := after.Sub(before).Calls
			depth, err := grp.EffectiveDepth()
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "root" {
				want := uint64(1)
				if limit > 0 {
					want = (tokens + uint64(limit) - 1) / uint64(limit)
				}
				if calls != want {
					t.Fatalf("root limit %d: %d RPCs for one component visit by %d tokens, want %d", limit, calls, tokens, want)
				}
			}
			// On a uniform cut a component sits at one depth, so the whole
			// batch visits it in one round: at most one RPC per component.
			if tc.uniform && limit == 0 && calls > uint64(grp.Size()) {
				t.Fatalf("%s: %d RPCs on a cut of %d components: more than one per component visit", tc.name, calls, grp.Size())
			}
			// A round with a single RPC is a plain Send, so flushes can fall
			// short of the depth, but a batch never takes more rounds than
			// the cut is deep.
			if n := fc.batches.Load(); n > int64(depth) {
				t.Fatalf("%s limit %d: %d flushes on a cut of effective depth %d", tc.name, limit, n, depth)
			}
			if err := tn.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBurstPaysEffectiveDepth is the PR's headline as a count: a 128-token
// burst on the level-2 cut of BITONIC[64] visits each of the 24 components
// once (24 RPCs, 0.1875 per token) and needs 6 flushes, the cut's effective
// depth (Definition 1.2) — not 24 round trips.
func TestBurstPaysEffectiveDepth(t *testing.T) {
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	fc := &flushCounter{Net: tn}
	cl, err := New(64, mustCut(t, 64, 2), WithTransport(fc), WithRetry(patient))
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(1); round <= 3; round++ {
		_, before := cl.NetStats()
		if _, err := cl.InjectBatch(randomWires(round, 128, 64)); err != nil {
			t.Fatal(err)
		}
		_, after := cl.NetStats()
		if calls := after.Sub(before).Calls; calls != 24 {
			t.Fatalf("burst %d: %d RPCs, want 24", round, calls)
		}
		if n := fc.batches.Load(); n != 6*round {
			t.Fatalf("burst %d: %d flushes so far, want %d", round, n, 6*round)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// sendSeam hides every optional capability of the fabric it wraps — as a
// wrapper that interposes on Send does — and checks that the Sends issued
// from one token endpoint never overlap in time.
type sendSeam struct {
	transport.Transport
	mu       sync.Mutex
	inFlight map[transport.Addr]int
	overlaps int
	sends    int
}

func (s *sendSeam) Send(req transport.Request, timeout time.Duration) (any, error) {
	s.mu.Lock()
	s.sends++
	if s.inFlight[req.From]++; s.inFlight[req.From] > 1 {
		s.overlaps++
	}
	s.mu.Unlock()
	reply, err := s.Transport.Send(req, timeout)
	s.mu.Lock()
	s.inFlight[req.From]--
	s.mu.Unlock()
	return reply, err
}

// TestBatchSendsSequentialWithoutCapability: behind a wrapper that does
// not forward BatchSender, the group RPCs of one InjectBatch leave one
// after another on the caller's goroutine. Tools that time the Send seam
// (the benchmark's traced repetitions) attribute an op's time by its
// Sends and book overlapping ones as unexplained, so this fallback is
// load-bearing, not an accident of the implementation.
func TestBatchSendsSequentialWithoutCapability(t *testing.T) {
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tn.Close() })
	seam := &sendSeam{Transport: tn, inFlight: make(map[transport.Addr]int)}
	if _, ok := transport.Transport(seam).(transport.BatchSender); ok {
		t.Fatal("the wrapper forwards BatchSender; it is meant to hide it")
	}
	cl, err := New(64, mustCut(t, 64, 2), WithTransport(seam), WithRetry(patient))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for round := int64(0); round < 4; round++ {
				if _, err := cl.InjectBatch(randomWires(seed*10+round, 128, 64)); err != nil {
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
	_, cs := cl.NetStats()
	if cs.Calls != 3*4*24 || uint64(seam.sends) != cs.Calls+cs.Retries {
		t.Fatalf("%d Sends, %+v for 12 bursts of 24 component visits", seam.sends, cs)
	}
	if seam.overlaps != 0 {
		t.Fatalf("%d Sends overlapped another Send of the same batch", seam.overlaps)
	}
}

// TestBatchAllocs pins what a warm 128-token burst at the level-2 cut of
// BITONIC[64] allocates over the ideal fabric, so the batch bookkeeping
// cannot silently regrow (it was about 3500 when every round re-walked the
// tree and rebuilt its groups in maps). What is left is per RPC or per
// round, not per token: each of the 24 group RPCs boxes its request body,
// and its handler allocates the reply's output-wire slice and boxes the
// reply (72); each of the 6 rounds allocates its two payload slices, which
// must stay untouched after the round because a fabric may keep a request
// (12); and the batch returns one result slice.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cl, err := New(64, mustCut(t, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ins := randomWires(3, 128, 64)
	for i := 0; i < 4; i++ { // warm the endpoint and scratch pools
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 85 {
		t.Fatalf("a warm 128-token batch allocates %.0f times, pinned at 85", allocs)
	}
}
