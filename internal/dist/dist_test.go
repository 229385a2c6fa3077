package dist

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// startLoad runs n injector goroutines against cl until the returned stop
// function is called; stop waits for them to finish their token in hand.
// Every injector has completed one injection by the time startLoad returns,
// and only then are they all released to loop, so what the caller does next
// runs against a network that has counted tokens on any host, and against
// live traffic wherever there is a second CPU to run it. (Left to the
// scheduler, a one-CPU run finishes its reconfigurations before the first
// injector is ever scheduled, and the test's final checks hold vacuously;
// stop fails the test if nothing was injected.)
func startLoad(t *testing.T, cl *Cluster, n int, inject func(g int, rng *rand.Rand) error) (stop func()) {
	t.Helper()
	var started, running sync.WaitGroup
	release, quit := make(chan struct{}), make(chan struct{})
	for g := 0; g < n; g++ {
		started.Add(1)
		running.Add(1)
		go func(g int) {
			defer running.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			err := inject(g, rng)
			started.Done()
			<-release
			for err == nil {
				select {
				case <-quit:
					return
				default:
				}
				err = inject(g, rng)
			}
			t.Error(err)
		}(g)
	}
	started.Wait()
	close(release)
	return func() {
		close(quit)
		running.Wait()
		if cl.InCounts().Total() == 0 {
			t.Error("no token was injected: the test ran without load")
		}
	}
}

// injectOne is the startLoad body of the single-token tests.
func injectOne(cl *Cluster) func(int, *rand.Rand) error {
	return func(_ int, rng *rand.Rand) error {
		_, err := cl.Inject(rng.Intn(cl.Width()))
		return err
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(8, tree.Cut{"0": true}); err == nil {
		t.Fatal("incomplete cut accepted")
	}
	cl, err := NewRootOnly(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Inject(-1); err == nil {
		t.Fatal("negative wire accepted")
	}
	if _, err := cl.Inject(8); err == nil {
		t.Fatal("out-of-range wire accepted")
	}
}

func TestSequentialCounting(t *testing.T) {
	cl, err := NewRootOnly(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		out, err := cl.Inject(rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		if out != i%8 {
			t.Fatalf("token %d exited %d, want %d", i, out, i%8)
		}
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMergeErrors(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Split("0"); err == nil {
		t.Fatal("splitting a non-live path should fail")
	}
	if err := cl.Merge(""); err == nil {
		t.Fatal("merging a live path should fail")
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Split("0"); err == nil {
		t.Fatal("splitting a leaf should fail")
	}
	if err := cl.Merge("0"); err == nil {
		t.Fatal("merging a leaf path should fail")
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
}

// TestConcurrentTrafficNoReconfig: many concurrent injectors, quiescent
// step property.
func TestConcurrentTrafficNoReconfig(t *testing.T) {
	w := 16
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
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
}

// TestSplitUnderLoad: splitting while tokens flow never loses or
// misorders tokens (quiescent step property + conservation).
func TestSplitUnderLoad(t *testing.T) {
	w := 16
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 4, injectOne(cl))
	// Split everything down to leaves while traffic flows.
	rng := rand.New(rand.NewSource(42))
	for {
		var splittable []tree.Path
		for p := range cl.Cut() {
			c, err := tree.ComponentAt(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if !c.IsLeaf() {
				splittable = append(splittable, p)
			}
		}
		if len(splittable) == 0 {
			break
		}
		if err := cl.Split(splittable[rng.Intn(len(splittable))]); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Size(), len(tree.LeafCut(w)); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
}

// TestReconfigThawsImbalancedFreeze pins the exactness check of a live
// split and merge. At the level-1 cut of BITONIC[8], one token has passed
// through; a second is held by the fabric just before X4@4 while a third
// overtakes it there. Frozen now, X4@4 (or, for the merge, the two halves
// it was split into) has routed a history its replacement would not have
// emitted the same way: one token misplaced. The reconfiguration thaws —
// republishes the same incarnations, active again — and waits; once the
// held token has gone through, it freezes again, finds the history exact,
// and publishes, having thawed once (dist.reconfig.thaws). Without the
// check the count ends wrong.
func TestReconfigThawsImbalancedFreeze(t *testing.T) {
	const w = 8
	for _, merge := range []bool{false, true} {
		name := "split"
		if merge {
			name = "merge"
		}
		t.Run(name, func(t *testing.T) {
			fabric := &gatedMem{Net: transport.NewMem()}
			cl, err := New(w, mustCut(t, w, 1), WithTransport(fabric))
			if err != nil {
				t.Fatal(err)
			}
			if merge {
				if err := cl.Split("4"); err != nil {
					t.Fatal(err)
				}
			}
			tr := cl.Trace(1, 16)
			reg := obs.NewRegistry()
			cl.Instrument(reg)
			if _, err := cl.Inject(0); err != nil {
				t.Fatal(err)
			}
			path, _ := tokenPath(cl, 0)
			held := path[len(path)-1]
			if p := held.c.Path; p != "4" && p != "40" && p != "41" {
				t.Fatalf("wire 0's last component is %v, want X4@4 or one of its halves", held.c)
			}
			gated := make(map[transport.Addr]bool)
			for _, cm := range cl.topo.Load().live {
				gated[cm.addr] = cm.c.Path[0] == '4'
			}
			var holding atomic.Bool
			asked, release := make(chan struct{}), make(chan struct{})
			fabric.gate = func(a transport.Addr) {
				if gated[a] && holding.CompareAndSwap(false, true) {
					close(asked)
					<-release
				}
			}
			done := make(chan error, 1)
			go func() {
				_, err := cl.Inject(0)
				done <- err
			}()
			<-asked
			if _, err := cl.Inject(0); err != nil {
				t.Fatal(err)
			}

			before := cl.topo.Load()
			reconf := make(chan error, 1)
			go func() {
				if merge {
					reconf <- cl.Merge("4")
				} else {
					reconf <- cl.Split("4")
				}
			}()
			for cl.topo.Load() == before {
				time.Sleep(time.Millisecond)
			}
			if !slices.Equal(cl.topo.Load().live, before.live) {
				t.Fatal("the first snapshot after the freeze replaced incarnations: the imbalanced history went unnoticed")
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := <-reconf; err != nil {
				t.Fatal(err)
			}
			if got := cl.topo.Load().at("4") != nil; got != merge {
				t.Fatalf("X4@4 live = %v after the %s", got, name)
			}
			if err := cl.CheckStep(); err != nil {
				t.Fatal(err)
			}
			var kinds []string
			for _, s := range tr.Spans() {
				if s.Name != name {
					continue
				}
				for _, e := range s.Events {
					if e.Kind == "thaw" && e.V != 1 {
						t.Fatalf("thaw event %+v, want one misplaced token", e)
					}
					kinds = append(kinds, e.Kind)
				}
			}
			freezes := 2 // the entry children
			if !merge {
				freezes = 1
			}
			want := []string{"target"}
			for range freezes {
				want = append(want, "freeze")
			}
			want = append(want, "thaw")
			for range freezes {
				want = append(want, "freeze")
			}
			if merge {
				want = append(want, "drained")
			}
			want = append(want, "publish")
			if !slices.Equal(kinds, want) {
				t.Fatalf("%s events %v, want %v", name, kinds, want)
			}
			if h := reg.Snapshot().Histograms["dist.reconfig.thaws"]; h.Count != 1 || h.Mean != 1 {
				t.Fatalf("dist.reconfig.thaws %+v, want one observation of 1", h)
			}
		})
	}
}

// TestMergeUnderLoad: the freeze protocol merges a live network back to a
// single component without losing tokens.
func TestMergeUnderLoad(t *testing.T) {
	w := 16
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 4, injectOne(cl))
	// One recursive merge of the root does it all.
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	stop()
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestOscillationUnderLoad: repeated split/merge cycles with continuous
// traffic.
func TestOscillationUnderLoad(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 4, injectOne(cl))
	for cycle := 0; cycle < 10; cycle++ {
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("0"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Split("3"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// waitTokens blocks until cl has counted more tokens than it had when
// called, by at least n, so the reconfiguration that follows runs against
// traffic that really flowed since the previous one.
func waitTokens(t *testing.T, cl *Cluster, n int64) {
	t.Helper()
	want := cl.InCounts().Total() + n
	deadline := time.Now().Add(30 * time.Second)
	for cl.InCounts().Total() < want {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d tokens injected in 30 s", n)
		}
		runtime.Gosched()
	}
}

// TestSplitBitonicUnderLoad: splitting only BITONIC components while tokens
// flow keeps the count exact. A BITONIC's children (B B M M X X) form a
// counting network for any input, so replaying the frozen parent's
// per-wire input history through them also reproduces what the parent
// emitted. All 15 splittable BITONICs of BITONIC[32] are split, in a
// seeded order, each after at least 64 more tokens.
func TestSplitBitonicUnderLoad(t *testing.T) {
	const w = 32
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 4, injectOne(cl))
	rng := rand.New(rand.NewSource(42))
	splits := 0
	for {
		var bitonic []tree.Path
		for p := range cl.Cut() {
			c, err := tree.ComponentAt(w, p)
			if err != nil {
				t.Fatal(err)
			}
			if c.Kind == tree.KindBitonic && !c.IsLeaf() {
				bitonic = append(bitonic, p)
			}
		}
		if len(bitonic) == 0 {
			break
		}
		slices.Sort(bitonic)
		waitTokens(t, cl, 64)
		if err := cl.Split(bitonic[rng.Intn(len(bitonic))]); err != nil {
			t.Fatal(err)
		}
		splits++
	}
	stop()
	if splits != 15 {
		t.Fatalf("%d BITONIC splits, want 15", splits)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestOscillateRootUnderLoad: the root splits into its six children and
// merges back 30 times while tokens flow, with at least 32 more tokens
// before every step, and the count stays exact.
func TestOscillateRootUnderLoad(t *testing.T) {
	const w = 16
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	stop := startLoad(t, cl, 4, injectOne(cl))
	for cycle := 0; cycle < 30; cycle++ {
		waitTokens(t, cl, 32)
		if err := cl.Split(""); err != nil {
			t.Fatal(err)
		}
		waitTokens(t, cl, 32)
		if err := cl.Merge(""); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if cl.Size() != 1 {
		t.Fatalf("size = %d, want 1", cl.Size())
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialAcrossReconfig: with a single injector, the exact counter
// sequence survives split and merge (the strongest behavioral check the
// async engine admits).
func TestSequentialAcrossReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	token := 0
	step := func(k int) {
		for j := 0; j < k; j++ {
			out, err := cl.Inject(rng.Intn(w))
			if err != nil {
				t.Fatal(err)
			}
			if out != token%w {
				t.Fatalf("token %d exited %d, want %d", token, out, token%w)
			}
			token++
		}
	}
	step(10)
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Split("2"); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Merge("2"); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	step(10)
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestLocateAscendsAfterMerge: a token addressed to a merged-away child
// resolves upward through the entry-child inverse to the merged parent in
// the cluster's current snapshot.
func TestLocateAscendsAfterMerge(t *testing.T) {
	w := 8
	cl, err := New(w, tree.LeafCut(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	// "00" was an entry child of "0", which was an entry child of the root.
	tp := cl.topo.Load()
	at, err := tp.rt.Locate("00", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm := tp.live[at.Comp]; cm.c.Path != "" {
		t.Fatalf("resolved to %v, want the root", cm.c)
	}
	if wire := at.Wire; wire != 1 {
		t.Fatalf("wire = %d, want 1 (B8 input 1 feeds B4@0 input 1 feeds B2@00 input 1)", wire)
	}
	// A non-entry child has no upward wire mapping; such tokens can only
	// exist while the assembly drains, so after the merge this is an error.
	if _, err := tp.rt.Locate("2", 0); err == nil {
		t.Fatal("stranded non-entry delivery should error")
	}
}

// TestLocateDescendsAfterSplit: a token addressed to a split-away parent
// resolves downward through the input maps in the cluster's current
// snapshot.
func TestLocateDescendsAfterSplit(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	tp := cl.topo.Load()
	at, err := tp.rt.Locate("", 5)
	if err != nil {
		t.Fatal(err)
	}
	// Input 5 of B8 feeds B4@1 input 1.
	if cm := tp.live[at.Comp]; cm.c.Path != "1" || at.Wire != 1 {
		t.Fatalf("resolved to %v wire %d, want B4@1 wire 1", cm.c, at.Wire)
	}
}

// TestArriveOnDeadComponent: a token's arrive at an incarnation a published
// snapshot has retired is answered with StatusDead, nothing stepped, so the
// sender re-resolves.
func TestArriveOnDeadComponent(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	cm := cl.topo.Load().at("")
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.compRPC(cm, transport.Request{Kind: kindGroupArrive, Body: wire.GroupArrive{Wires: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusDead {
		t.Fatalf("status = %v, want StatusDead", res.Status)
	}
	if cm.arrived[0] != 0 || cm.total != 0 {
		t.Fatal("retired component recorded an arrival")
	}
}

// TestArriveOnFrozenComponentTurnsAway: a token's arrive at a frozen component
// is turned away exactly like one at a retired incarnation — StatusDead,
// nothing counted and nothing kept — so the token waits at its sender, not
// in a queue at the component, and the frozen history the children are built
// from is the routed history alone.
func TestArriveOnFrozenComponentTurnsAway(t *testing.T) {
	cl, err := NewRootOnly(4)
	if err != nil {
		t.Fatal(err)
	}
	cm := &comp{c: tree.MustRoot(4), frozen: true, total: 3, arrived: []uint64{1, 0, 2, 0}}
	reply, err := cl.compRPC(cm, transport.Request{Kind: kindGroupArrive, Body: wire.GroupArrive{Wires: []int{2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusDead || res.Outs != nil {
		t.Fatalf("reply %+v, want StatusDead with nothing stepped", res)
	}
	if cm.total != 3 || !slices.Equal(cm.arrived, []uint64{1, 0, 2, 0}) {
		t.Fatalf("frozen component counted a turned-away token: total %d, arrived %v", cm.total, cm.arrived)
	}
	reply, err = cl.control(cm, kindFreeze)
	if err != nil {
		t.Fatal(err)
	}
	if snap := reply.(wire.FreezeRes); snap.Total != 3 || !slices.Equal(snap.Processed, []uint64{1, 0, 2, 0}) {
		t.Fatalf("freeze snapshot %+v, want the routed history", snap)
	}
}

func TestClusterEffectiveWidthDepth(t *testing.T) {
	cl, err := New(16, tree.LeafCut(16))
	if err != nil {
		t.Fatal(err)
	}
	ew, err := cl.EffectiveWidth()
	if err != nil {
		t.Fatal(err)
	}
	ed, err := cl.EffectiveDepth()
	if err != nil {
		t.Fatal(err)
	}
	if ew != 8 || ed != 10 {
		t.Fatalf("width/depth = %d/%d, want 8/10", ew, ed)
	}
}

// TestInstrumentedUnderReconfig: the engine's histograms and batch spans
// capture token and round latency, freeze-queue waits and reconfiguration
// timing while traffic — single tokens and bursts — races a split and a
// merge. Every token is a token-latency sample, whichever call returned it.
func TestInstrumentedUnderReconfig(t *testing.T) {
	w := 8
	cl, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl.Instrument(reg)
	tr := cl.Trace(1, 32)

	var calls atomic.Uint64
	inject := func(g int, rng *rand.Rand) error {
		calls.Add(1)
		if g%2 == 0 {
			_, err := cl.Inject(rng.Intn(w))
			return err
		}
		_, err := cl.InjectBatch(randomBatch(rng, 1+rng.Intn(16), w))
		return err
	}
	stop := startLoad(t, cl, 4, inject)
	if err := cl.Split(""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Merge(""); err != nil {
		t.Fatal(err)
	}
	// Guarantee traffic of both kinds regardless of goroutine scheduling.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		if err := inject(i, rng); err != nil {
			t.Fatal(err)
		}
	}
	stop()
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	tokens := int(cl.InCounts().Total())
	if got := snap.Histograms["dist.token.seconds"].Count; got != tokens {
		t.Fatalf("token latency samples = %d, want %d", got, tokens)
	}
	// At least one round per call.
	if got := snap.Histograms["dist.hop.seconds"].Count; got < int(calls.Load()) {
		t.Fatalf("round samples %d < calls %d", got, calls.Load())
	}
	if got := snap.Histograms["dist.split.seconds"].Count; got != 1 {
		t.Fatalf("split timing samples = %d, want 1", got)
	}
	// Merge("") recursively times each submerge; at least the top one fires.
	if snap.Histograms["dist.merge.seconds"].Count == 0 ||
		snap.Histograms["dist.merge.drain.seconds"].Count == 0 {
		t.Fatal("merge or drain timing missing")
	}
	if snap.Histograms["transport.call.seconds"].Count == 0 {
		t.Fatal("cluster did not instrument its reliability client")
	}

	if cl.Tracer() != tr {
		t.Fatal("Tracer() accessor mismatch")
	}
	// Every call plus the two reconfigurations (Split and Merge each open
	// a span at stride 1).
	if want := calls.Load() + 2; tr.Sampled() != want {
		t.Fatalf("sampled %d spans, want calls+reconfigs (%d)", tr.Sampled(), want)
	}
	groups := 0
	for _, s := range tr.Spans() {
		if s.Name != "batch" {
			continue
		}
		for _, e := range s.Events {
			switch e.Kind {
			case "group":
				groups++
			case "inject", "dead", "retry":
			default:
				t.Fatalf("unexpected event kind %q", e.Kind)
			}
		}
	}
	if groups == 0 {
		t.Fatal("no group events recorded")
	}
}
