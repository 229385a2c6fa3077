package acn_test

import (
	"testing"
	"time"

	acn "repro"
	"repro/internal/chord"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring the
// package documentation's quick start.
func TestFacadeQuickstart(t *testing.T) {
	net, err := acn.New(acn.Config{Width: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.AddNodes(31)
	if _, err := net.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	client, err := net.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		tr, err := client.Inject()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Value != i {
			t.Fatalf("value = %d, want %d", tr.Value, i)
		}
	}
	if err := net.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCutNetwork(t *testing.T) {
	n, err := acn.NewCutNetwork(8, acn.LeafCut(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		out, err := n.Inject(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		if out != i%8 {
			t.Fatalf("token %d exited %d", i, out)
		}
	}
	if _, err := acn.NewCutNetwork(8, acn.RootCut()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCluster(t *testing.T) {
	cl, err := acn.NewCluster(8, acn.RootCut())
	if err != nil {
		t.Fatal(err)
	}
	if out, err := cl.Inject(3); err != nil || out != 0 {
		t.Fatalf("inject = %d, %v", out, err)
	}
}

func TestFacadeClassicNetworks(t *testing.T) {
	b, err := acn.NewBitonic(16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := acn.NewPeriodic(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got := b.Traverse(i % 16); got != i%16 {
			t.Fatalf("bitonic token %d exited %d", i, got)
		}
		if got := p.Traverse(i % 16); got != i%16 {
			t.Fatalf("periodic token %d exited %d", i, got)
		}
	}
}

func TestFacadeMatcher(t *testing.T) {
	m, err := acn.NewMatcher[string, string](8, 1)
	if err != nil {
		t.Fatal(err)
	}
	pch, err := m.Produce("item")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Consume("req"); err != nil {
		t.Fatal(err)
	}
	if got := <-pch; got != "req" {
		t.Fatalf("matched %q", got)
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d", m.Pending())
	}
}

func TestFacadeBaselines(t *testing.T) {
	ring := acn.NewRing(1)
	ring.JoinN(8)
	c, err := acn.NewCentralCounter(ring, "ctr")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Next(); v != 0 {
		t.Fatalf("central first value %d", v)
	}
	s, err := acn.NewStaticNetwork(ring, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Next(0); err != nil || v != 0 {
		t.Fatalf("static first value %d, %v", v, err)
	}
	d, err := acn.NewDiffractingTree(3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Next(); v != 0 {
		t.Fatalf("tree first value %d", v)
	}
}

func TestFacadeReactiveTree(t *testing.T) {
	r, err := acn.NewReactiveTree(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if v, _ := r.Next(); v != i {
			t.Fatalf("value %d, want %d", v, i)
		}
	}
	r.React()
}

func TestFacadeControllerAndSim(t *testing.T) {
	cl, err := acn.NewCluster(64, acn.RootCut())
	if err != nil {
		t.Fatal(err)
	}
	ring := acn.NewRing(5)
	ring.JoinN(32)
	ctrl := acn.NewController(cl, ring)
	if _, _, err := ctrl.Sync(); err != nil {
		t.Fatal(err)
	}
	if cl.Size() < 2 {
		t.Fatalf("cluster did not expand: %d", cl.Size())
	}

	res, err := acn.Simulate(acn.SimConfig{
		Width: 16, Nodes: 4, ServiceTime: 1, LinkDelay: 0.1,
		ArrivalRate: 0.5, Tokens: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestFacadeOptions builds a cluster and a ring through the functional
// options path: transport, retry, observability and tracing composed in
// one constructor call.
func TestFacadeOptions(t *testing.T) {
	reg := acn.NewObsRegistry()
	cl, err := acn.NewCluster(8, acn.RootCut(),
		acn.WithTransport(acn.NewMemTransport()),
		acn.WithRetry(acn.RetryConfig{MaxRetries: 2}),
		acn.WithObs(reg),
		acn.WithTrace(1, 128),
	)
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]int, 64)
	for i := range ins {
		ins[i] = i % 8
	}
	if _, err := cl.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Histograms["dist.hop.seconds"].Count == 0 {
		t.Fatal("WithObs did not instrument the cluster")
	}
	if len(reg.TraceSpans()) == 0 {
		t.Fatal("WithTrace did not retain spans")
	}

	ringReg := acn.NewObsRegistry()
	ring := acn.NewRing(7,
		acn.WithTransport(acn.NewMemTransport()),
		acn.WithRetry(acn.RetryConfig{MaxRetries: 1}),
		acn.WithObs(ringReg),
	)
	ids := ring.JoinN(16)
	if _, _, err := ring.Lookup(ids[0], chord.Hash("y")); err != nil {
		t.Fatal(err)
	}
	if ringReg.Snapshot().Histograms["chord.lookup.hops"].Count == 0 {
		t.Fatal("WithObs did not instrument the ring")
	}
}

// TestFacadeFaultyTransport runs a cluster and a ring over the public
// fault-injection API: counting stays exact despite message loss.
func TestFacadeFaultyTransport(t *testing.T) {
	f := acn.NewFaultyTransport(acn.FaultConfig{
		Seed:          2,
		DropRate:      0.05,
		DupRate:       0.05,
		LatencyJitter: 10 * time.Microsecond,
	})
	retry := acn.RetryConfig{Timeout: 500 * time.Microsecond, MaxRetries: 12, Backoff: 20 * time.Microsecond}
	cl, err := acn.NewCluster(8, acn.RootCut(), acn.WithTransport(f), acn.WithRetry(retry))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		out, err := cl.Inject(i % 8)
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
	st, _ := cl.NetStats()
	if st.Dropped == 0 {
		t.Fatalf("faults not exercised: %+v", st)
	}

	ring := acn.NewRing(3, acn.WithTransport(acn.NewFaultyTransport(acn.FaultConfig{Seed: 4, DropRate: 0.1})), acn.WithRetry(retry))
	ids := ring.JoinN(32)
	if _, _, err := ring.Lookup(ids[0], chord.Hash("x")); err != nil {
		t.Fatal(err)
	}
}
