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
	"repro/internal/wire"
)

// flushCounter is a batch-capable fabric that counts the flushes of group
// arrives it is asked for: the batches it is handed, and the single group
// arrives sent on their own (a round of one message is a plain Send).
// Embedding the concrete tcpnet.Net keeps every other capability.
type flushCounter struct {
	*tcpnet.Net
	batches atomic.Int64
}

func (f *flushCounter) SendBatch(reqs []transport.Request, timeout time.Duration, replies []any, errs []error) {
	f.batches.Add(1)
	f.Net.SendBatch(reqs, timeout, replies, errs)
}

func (f *flushCounter) Send(req transport.Request, timeout time.Duration) (any, error) {
	if req.Kind == kindGroupArrive {
		f.batches.Add(1)
	}
	return f.Net.Send(req, timeout)
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

// injectEach routes ins one token at a time through Inject: the sequential
// oracle the group path is held to.
func injectEach(cl *Cluster, ins []int) error {
	for _, in := range ins {
		if _, err := cl.Inject(in); err != nil {
			return err
		}
	}
	return nil
}

// TestBatchFlushMatchesSequential: over a fabric that flushes a round as
// one batch, InjectBatch stays count-for-count equal to token-by-token
// Inject on the ideal fabric and keeps the RPC accounting: RPCs per round =
// destination fabrics. Here that is one fabric and one round, so one RPC
// whatever the cut, visiting the entry components its tokens stand at and
// then chaining on.
func TestBatchFlushMatchesSequential(t *testing.T) {
	const w, tokens = 16, 200
	ins := randomWires(31, tokens, w)
	for _, tc := range []struct {
		name string
		cut  tree.Cut
	}{
		{"root", tree.RootCut()},
		{"uniform1", mustCut(t, w, 1)},
		{"uniform2", mustCut(t, w, 2)},
		{"leaf", tree.LeafCut(w)},
		{"random", tree.RandomCut(w, 0.5, rand.New(rand.NewSource(8)))},
	} {
		tn, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fc := &flushCounter{Net: tn}
		grp, err := New(w, tc.cut, WithTransport(fc), WithRetry(patient))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := New(w, tc.cut)
		if err != nil {
			t.Fatal(err)
		}
		_, before := grp.NetStats()
		got, err := grp.InjectBatch(ins)
		if err != nil {
			t.Fatalf("%s: group batch: %v", tc.name, err)
		}
		_, after := grp.NetStats()
		if err := injectEach(seq, ins); err != nil {
			t.Fatal(err)
		}
		g, s := grp.OutCounts(), seq.OutCounts()
		for i := range g {
			if g[i] != s[i] {
				t.Fatalf("%s: output counts diverge: batch %v vs sequential %v", tc.name, g, s)
			}
		}
		if err := grp.CheckStep(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perOut := make([]int64, w)
		for _, o := range got {
			perOut[o]++
		}
		for i := range g {
			if perOut[i] != g[i] {
				t.Fatalf("%s: returned outputs %v disagree with the counters %v", tc.name, perOut, g)
			}
		}
		if calls := after.Sub(before).Calls; calls != 1 {
			t.Fatalf("%s: %d RPCs for %d tokens on one fabric, want 1", tc.name, calls, tokens)
		}
		// One round, so one SendBatch.
		if n := fc.batches.Load(); n != 1 {
			t.Fatalf("%s: %d SendBatch calls for a batch that never leaves its fabric", tc.name, n)
		}
		if err := tn.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchCutAtMaxSlice: a batch bound for one fabric with more tokens than
// the codec takes in one slice (wire.MaxSlice) goes out as ceil(n/MaxSlice)
// group RPCs in one round over a real socket, and counts exactly. Sent
// whole, the receiver's decoder would refuse the message and drop the
// connection.
func TestBatchCutAtMaxSlice(t *testing.T) {
	const w = 64
	for _, tokens := range []int{1 << 17, 1 << 19} {
		tn, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tn.Close() })
		cl, err := New(w, mustCut(t, w, 2), WithTransport(tn), WithRetry(patient))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.InjectBatch(randomWires(int64(tokens), tokens, w)); err != nil {
			t.Fatalf("%d tokens: %v", tokens, err)
		}
		if in, out := cl.InCounts().Total(), cl.OutCounts().Total(); in != int64(tokens) || out != in {
			t.Fatalf("%d tokens: %d in, %d out", tokens, in, out)
		}
		if err := cl.CheckStep(); err != nil {
			t.Fatalf("%d tokens: %v", tokens, err)
		}
		if _, cs := cl.NetStats(); cs.Calls != uint64((tokens+wire.MaxSlice-1)/wire.MaxSlice) {
			t.Fatalf("%d tokens: client stats %+v, want one group RPC per %d tokens", tokens, cs, wire.MaxSlice)
		}
	}
}

// apartBatcher is a batch-capable fabric that places every address apart:
// it forwards BatchSender, so a round's groups still leave in one
// SendBatch, but every group handler's chain is one step long.
type apartBatcher struct {
	apart
	transport.BatchSender
}

// TestBurstPaysCrossings is the batch path's model as counts. A 128-token
// burst on the level-2 cut of BITONIC[64] enters at 4 components, all of
// them served by the one fabric, and that fabric is all it pays: 1 group
// RPC in 1 flush, whose handler visits the 4 and steps the whole burst
// through the other 5 layers in place. On a fabric that places every
// address apart every component visit is a message again: 24 RPCs, and 6 flushes, the
// cut's effective depth (Definition 1.2). The sibling of
// TestTokenPaysCrossings.
func TestBurstPaysCrossings(t *testing.T) {
	for _, tc := range []struct {
		name           string
		apart          bool
		calls, flushes int64
	}{
		{"one fabric", false, 1, 1},
		{"every address apart", true, 24, 6},
	} {
		tn, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tn.Close() })
		fc := &flushCounter{Net: tn}
		var fabric transport.Transport = fc
		if tc.apart {
			fabric = apartBatcher{apart: apart{fc}, BatchSender: fc}
			if fabric.Site("c:0#1") == "" {
				t.Fatal("the wrapper places an address here; it is meant to place every address apart")
			}
		}
		cl, err := New(64, mustCut(t, 64, 2), WithTransport(fabric), WithRetry(patient))
		if err != nil {
			t.Fatal(err)
		}
		for round := int64(1); round <= 3; round++ {
			_, before := cl.NetStats()
			if _, err := cl.InjectBatch(randomWires(round, 128, 64)); err != nil {
				t.Fatal(err)
			}
			_, after := cl.NetStats()
			if calls := after.Sub(before).Calls; calls != uint64(tc.calls) {
				t.Fatalf("%s: burst %d: %d RPCs, want %d", tc.name, round, calls, tc.calls)
			}
			if n := fc.batches.Load(); n != tc.flushes*round {
				t.Fatalf("%s: burst %d: %d flushes so far, want %d", tc.name, round, n, tc.flushes*round)
			}
		}
		if err := cl.CheckStep(); err != nil {
			t.Fatal(err)
		}
	}
}

// spanSeam is shaped like a tracing wrapper: it embeds the fabric and
// overrides only Send and Bind, counting the Sends it sees and the handler
// runs they cause. Everything else — placement, RPC observation — is the
// wrapped fabric's, promoted.
type spanSeam struct {
	transport.Transport
	sends, handled atomic.Int64
}

func (s *spanSeam) Send(req transport.Request, timeout time.Duration) (any, error) {
	s.sends.Add(1)
	return s.Transport.Send(req, timeout)
}

func (s *spanSeam) Bind(a transport.Addr, h transport.Handler) error {
	return s.Transport.Bind(a, func(req transport.Request) (any, error) {
		s.handled.Add(1)
		return h(req)
	})
}

// TestTracingWrapperTakesProductionPath: a wrapper that overrides only Send
// and Bind, as the benchmark's span tracer does, costs what the bare fabric
// costs. Over tcpnet at the level-2 cut of BITONIC[64] that is one RPC per
// single token and one per 128-token burst; a wrapper that dropped the
// fabric's placement would cost 6 and 24 (TestTokenPaysCrossings,
// TestBurstPaysCrossings).
func TestTracingWrapperTakesProductionPath(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		tn, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tn.Close() })
		var fabric transport.Transport = tn
		seam := &spanSeam{Transport: tn}
		if wrapped {
			fabric = seam
		}
		cl, err := New(64, mustCut(t, 64, 2), WithTransport(fabric), WithRetry(patient))
		if err != nil {
			t.Fatal(err)
		}
		calls := func() uint64 {
			_, cs := cl.NetStats()
			return cs.Calls
		}
		for i, in := range randomWires(19, 20, 64) {
			before := calls()
			if _, err := cl.Inject(in); err != nil {
				t.Fatal(err)
			}
			if got := calls() - before; got != 1 {
				t.Fatalf("wrapped %v: token %d cost %d RPCs, want 1", wrapped, i, got)
			}
		}
		for round := int64(1); round <= 3; round++ {
			before := calls()
			if _, err := cl.InjectBatch(randomWires(round, 128, 64)); err != nil {
				t.Fatal(err)
			}
			if got := calls() - before; got != 1 {
				t.Fatalf("wrapped %v: burst %d cost %d RPCs, want 1", wrapped, round, got)
			}
		}
		if err := cl.CheckStep(); err != nil {
			t.Fatal(err)
		}
		if _, cs := cl.NetStats(); wrapped && (seam.sends.Load() != int64(cs.Calls+cs.Retries) || seam.handled.Load() != seam.sends.Load()) {
			t.Fatalf("the wrapper saw %d Sends and %d handler runs for %+v", seam.sends.Load(), seam.handled.Load(), cs)
		}
	}
}

// sendSeam interposes on Send, as a wrapper that observes it does, so it
// hides BatchSender; it places every address apart, so a round has many
// Sends. It checks that the Sends issued by one batch never overlap in time.
type sendSeam struct {
	transport.Transport
	mu       sync.Mutex
	inFlight map[transport.Addr]int
	overlaps int
	sends    int
}

func (s *sendSeam) Site(a transport.Addr) string { return string(a) }

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

// TestInjectBatchAllocs pins what a warm 128-token burst at the level-2 cut
// of BITONIC[64] allocates over the ideal fabric, so the batch bookkeeping
// cannot silently regrow (it was about 3500 when every round re-walked the
// tree and rebuilt its groups in maps, and 85 when every component visit
// was an RPC, and 15 when every entry component was). What is left is per
// RPC or per round, not per token: the one group RPC boxes its request body,
// and its handler allocates the reply's output-wire slice and visit list and
// boxes the reply (4); the one round allocates its two payload slices —
// wires and further visits — which must stay untouched after the round
// because a fabric may keep a request (2); and the batch returns one result
// slice.
func TestInjectBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cl, err := New(64, mustCut(t, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	ins := randomWires(3, 128, 64)
	for i := 0; i < 4; i++ { // warm the scratch pools
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := cl.InjectBatch(ins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("a warm 128-token batch allocates %.0f times, pinned at 7", allocs)
	}
}
