package sim

import (
	"math"
	"testing"

	"repro/internal/balancer"
	"repro/internal/tree"
)

func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	valid := Config{Width: 8, Nodes: 1, ServiceTime: 1, ArrivalRate: 1, Tokens: 1}
	if _, err := New(valid); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero service time", func(c *Config) { c.ServiceTime = 0 }},
		{"invalid cut", func(c *Config) { c.Cut = tree.Cut{"0": true} }},
		{"NaN service time", func(c *Config) { c.ServiceTime = nan }},
		{"infinite service time", func(c *Config) { c.ServiceTime = inf }},
		{"NaN arrival rate", func(c *Config) { c.ArrivalRate = nan }},
		{"infinite arrival rate", func(c *Config) { c.ArrivalRate = inf }},
		{"negative link delay", func(c *Config) { c.LinkDelay = -5 }},
		{"NaN link delay", func(c *Config) { c.LinkDelay = nan }},
		{"infinite link delay", func(c *Config) { c.LinkDelay = inf }},
		{"negative retry timeout", func(c *Config) { c.RetryTimeout = -1 }},
		{"NaN retry timeout", func(c *Config) { c.RetryTimeout = nan }},
		{"infinite retry timeout", func(c *Config) { c.RetryTimeout = inf }},
		{"NaN drop rate", func(c *Config) { c.DropRate = nan }},
	} {
		cfg := valid
		c.edit(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestAllTokensCompleteAndCount(t *testing.T) {
	cut, err := tree.UniformCut(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Width: 16, Cut: cut, Nodes: 8,
		ServiceTime: 1, LinkDelay: 0.5, ArrivalRate: 0.8, Tokens: 500, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if !balancer.Seq(res.Out).HasStep() {
		t.Fatalf("asynchronous execution broke the step property: %v", res.Out)
	}
	if res.LatencyP50 > res.LatencyP99 || res.LatencyMean <= 0 {
		t.Fatalf("latency stats inconsistent: %+v", res)
	}
}

// TestCentralSaturates: a single node serving the whole network cannot
// exceed 1/ServiceTime throughput no matter the offered load.
func TestCentralSaturates(t *testing.T) {
	s, err := New(Config{
		Width: 64, Nodes: 1,
		ServiceTime: 1, LinkDelay: 0.1, ArrivalRate: 10, Tokens: 2000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 1.01 {
		t.Fatalf("central throughput %.3f exceeds the service rate", res.Throughput)
	}
	if res.MaxNodeBusy < 0.95 {
		t.Fatalf("central node utilization %.3f, expected saturation", res.MaxNodeBusy)
	}
}

// TestParallelCutOutperformsCentral: the same offered load over a split
// cut on many nodes completes sooner.
func TestParallelCutOutperformsCentral(t *testing.T) {
	run := func(cut tree.Cut, nodes int) Result {
		t.Helper()
		s, err := New(Config{
			Width: 64, Cut: cut, Nodes: nodes,
			ServiceTime: 1, LinkDelay: 0.1, ArrivalRate: 1.2, Tokens: 2000, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	central := run(tree.RootCut(), 1)
	cut, err := tree.UniformCut(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel := run(cut, 128)
	// The central counter is capped at 1/ServiceTime = 1; the offered load
	// of 1.2 is sustainable only with parallelism.
	if central.Throughput > 1.01 {
		t.Fatalf("central exceeded its service rate: %.3f", central.Throughput)
	}
	if parallel.Throughput < 1.1*central.Throughput {
		t.Fatalf("parallel throughput %.3f not clearly above central %.3f",
			parallel.Throughput, central.Throughput)
	}
}

// TestDeeperCutHigherLatencyAtLowLoad: at negligible load, latency is
// depth * (service + link), so deeper cuts cost more per token.
func TestDeeperCutHigherLatencyAtLowLoad(t *testing.T) {
	run := func(cut tree.Cut) Result {
		t.Helper()
		s, err := New(Config{
			Width: 64, Cut: cut, Nodes: 64,
			ServiceTime: 1, LinkDelay: 1, ArrivalRate: 0.01, Tokens: 200, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow := run(tree.RootCut())
	cut, err := tree.UniformCut(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	deep := run(cut)
	if deep.LatencyMean <= shallow.LatencyMean {
		t.Fatalf("deep cut latency %.2f not above shallow %.2f",
			deep.LatencyMean, shallow.LatencyMean)
	}
	// Shallow = one service, no links: exactly ServiceTime at idle.
	if shallow.LatencyP50 < 1 || shallow.LatencyP50 > 1.2 {
		t.Fatalf("idle central latency p50 = %.3f, want ~1", shallow.LatencyP50)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{
		Width: 32, Nodes: 8, ServiceTime: 1, LinkDelay: 0.3,
		ArrivalRate: 1, Tokens: 300, Seed: 9,
	}
	cut, err := tree.UniformCut(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cut = cut
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.LatencyMean != r2.LatencyMean {
		t.Fatalf("non-deterministic simulation: %+v vs %+v", r1, r2)
	}
}

// TestLinkLossAddsLatencyNotLossage: with DropRate set, every token still
// completes (retries, not losses), resends are counted, and latency rises
// against the lossless baseline; a fixed seed keeps the run deterministic.
func TestLinkLossAddsLatencyNotLossage(t *testing.T) {
	cut, err := tree.UniformCut(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Width: 32, Cut: cut, Nodes: 8, ServiceTime: 1, LinkDelay: 0.3,
		ArrivalRate: 1, Tokens: 300, Seed: 4,
	}
	run := func(cfg Config) Result {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	clean := run(base)
	lossyCfg := base
	lossyCfg.DropRate = 0.2
	lossy := run(lossyCfg)
	if clean.Resends != 0 {
		t.Fatalf("lossless run resent %d messages", clean.Resends)
	}
	if lossy.Completed != base.Tokens || lossy.Resends == 0 {
		t.Fatalf("lossy run: %+v", lossy)
	}
	if lossy.LatencyMean <= clean.LatencyMean {
		t.Fatalf("loss did not cost latency: %.3f vs %.3f", lossy.LatencyMean, clean.LatencyMean)
	}
	if again := run(lossyCfg); again.Resends != lossy.Resends || again.Makespan != lossy.Makespan {
		t.Fatalf("lossy run not deterministic: %+v vs %+v", again, lossy)
	}
	if _, err := New(Config{Width: 32, Nodes: 1, ServiceTime: 1, ArrivalRate: 1, Tokens: 1, DropRate: 1}); err == nil {
		t.Fatal("DropRate 1 accepted")
	}
}

// TestSingleCoreUnchanged pins a node, one single-server FIFO queue, to
// the exact numbers it produced before the per-core queues and work stealing
// were deleted (captured from this config with one core per node): routing
// through the compiled table must not move an event or an RNG draw, so the
// floats are bit-identical, not approximately equal.
func TestSingleCoreUnchanged(t *testing.T) {
	cut, err := tree.UniformCut(1<<6, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Width: 1 << 6, Cut: cut, Nodes: 8,
		ServiceTime: 1, LinkDelay: 0.25, ArrivalRate: 3, Tokens: 500, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 1024.1652461383007 ||
		r.Throughput != 0.48820246721443744 ||
		r.LatencyMean != 513.4724985549342 ||
		r.LatencyP50 != 558.7183695362254 ||
		r.LatencyP99 != 933.9542615360359 ||
		r.MaxNodeBusy != 0.9998386528551678 {
		t.Fatalf("single-server run diverged from its golden numbers: %+v", r)
	}
	if !balancer.Seq(r.Out).HasStep() {
		t.Fatalf("step property broken: %v", r.Out)
	}
}
