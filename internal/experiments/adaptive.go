package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/stats"
	"repro/internal/workload"
)

// converged builds an adaptive network with n nodes and runs maintenance
// to fixpoint.
func converged(width, n int, seed int64) (*core.Network, error) {
	net, err := core.New(core.Config{Width: width, Seed: seed, InitialNodes: n})
	if err != nil {
		return nil, err
	}
	if _, err := net.MaintainToFixpoint(200); err != nil {
		return nil, err
	}
	return net, nil
}

// e9ComponentLevels (Lemma 3.4): after convergence, every component's
// level lies within the range of the nodes' level estimates.
func e9ComponentLevels(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Component levels track node level estimates",
		Claim: "component levels lie within [min l_v, max l_v] (Lemma 3.4)",
		Headers: []string{"N", "node levels [min,max]", "component levels [min,max]",
			"components", "within range"},
	}
	sizes := []int{16, 64, 256, 1024}
	w := 1 << 16
	for _, n := range sizes {
		net, err := converged(w, n, opts.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		nodeLevels, err := net.NodeLevels()
		if err != nil {
			return nil, err
		}
		nMin, nMax := minMax(nodeLevels)
		compLevels := net.ComponentLevels()
		cMin, cMax := minMax(compLevels)
		ok := cMin >= nMin && cMax <= nMax
		t.AddRow(n, pair(nMin, nMax), pair(cMin, cMax), net.NumComponents(), ok)
	}
	return t, nil
}

// e10ComponentsPerNode (Lemma 3.5): the total number of components is
// Theta(N); the expected number per node is O(1); the maximum per node is
// O(log N / log log N).
func e10ComponentsPerNode(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Component population and distribution over nodes",
		Claim: "total components Theta(N); mean per node O(1); max per node O(log N/log log N) (Lemma 3.5)",
		Headers: []string{"N", "components", "components/N", "mean/node", "max/node",
			"log N/log log N"},
	}
	sizes := []int{32, 64, 128, 256, 512, 1024}
	w := 1 << 16
	for _, n := range sizes {
		net, err := converged(w, n, opts.Seed+3*int64(n))
		if err != nil {
			return nil, err
		}
		per := net.ComponentsPerNode()
		s := stats.SummarizeInts(per)
		logN := math.Log2(float64(n))
		t.AddRow(n, net.NumComponents(), float64(net.NumComponents())/float64(n),
			s.Mean, int(s.Max), logN/math.Log2(logN))
	}
	t.Note("components/N should stay within a constant band as N grows")
	return t, nil
}

// e11WidthDepthScaling (Theorem 3.6): effective depth O(log^2 N),
// effective width Omega(N/log^2 N).
func e11WidthDepthScaling(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Effective width and depth scaling",
		Claim: "depth O(log^2 N), width Omega(N/log^2 N) (Theorem 3.6)",
		Headers: []string{"N", "eff depth", "depth/log^2 N", "eff width",
			"width*log^2 N/N", "2^(l*-4) lower bound ok"},
	}
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	w := 1 << 16
	for _, n := range sizes {
		net, err := converged(w, n, opts.Seed+5*int64(n))
		if err != nil {
			return nil, err
		}
		depth, err := net.EffectiveDepth()
		if err != nil {
			return nil, err
		}
		width, err := net.EffectiveWidth()
		if err != nil {
			return nil, err
		}
		log2N := math.Log2(float64(n))
		lstar := estimate.IdealLevel(n, w)
		lb := 1
		if lstar > 4 {
			lb = 1 << uint(lstar-4)
		}
		t.AddRow(n, depth, float64(depth)/(log2N*log2N), width,
			float64(width)*log2N*log2N/float64(n), width >= lb)
	}
	t.Note("depth/log^2 N and width*log^2 N/N should each stay within a constant band")
	return t, nil
}

// e12Churn (Section 3.4): the network adapts to growth, shrink, flash
// crowds and crashes, preserving the counter throughout.
func e12Churn(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Adaptation under churn",
		Claim: "splits/merges follow membership; state survives leaves and (with repair) crashes (Section 3.4)",
		Headers: []string{"phase", "nodes", "components", "eff width", "eff depth",
			"splits", "merges", "moves", "repairs"},
	}
	w := 1 << 14
	net, err := core.New(core.Config{Width: w, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	client, err := net.NewClient()
	if err != nil {
		return nil, err
	}
	arrivals := workload.NewUniform(w, opts.Seed+1)

	record := func(phase string) error {
		ew, err := net.EffectiveWidth()
		if err != nil {
			return err
		}
		ed, err := net.EffectiveDepth()
		if err != nil {
			return err
		}
		m := net.Metrics()
		t.AddRow(phase, net.NumNodes(), net.NumComponents(), ew, ed,
			m.Splits, m.Merges, m.Moves, m.Repairs)
		return nil
	}
	if err := record("start (1 node)"); err != nil {
		return nil, err
	}

	grow := 255
	batch := 200
	phases := []struct {
		name  string
		trace []workload.Event
	}{
		{"grow", workload.Grow(grow, 4, batch)},
		{"flash crowd x2", workload.FlashCrowd(grow+1, 2, batch)},
		{"crash storm", workload.CrashStorm(5, batch/2)},
		{"shrink", workload.Shrink((grow+1)/2, 4, batch)},
		{"oscillate", workload.Oscillate((grow+1)/4, 2, batch)},
	}
	for _, ph := range phases {
		if _, err := workload.Run(net, client, ph.trace, arrivals); err != nil {
			return nil, err
		}
		if err := record(ph.name); err != nil {
			return nil, err
		}
	}
	if err := net.CheckStep(); err != nil {
		t.Note("FINAL CHECK FAILED: %v", err)
	} else {
		t.Note("step property and token conservation held through every phase (%d tokens)", net.Metrics().Tokens)
	}
	return t, nil
}

// e18AblationNoMerge: with the merge rule disabled, the component
// population never shrinks after churn subsides, inflating depth and
// routing state (what Section 3.2's merge rule exists to prevent).
func e18AblationNoMerge(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E18",
		Title: "Ablation: merge rule disabled",
		Claim: "without merging, shrink leaves the network over-fragmented",
		Headers: []string{"variant", "nodes after", "components", "eff depth",
			"mean comps/node", "max comps/node"},
	}
	w := 1 << 14
	grow, shrink := 255, 252
	batch := 100
	for _, disable := range []bool{false, true} {
		net, err := core.New(core.Config{Width: w, Seed: opts.Seed, DisableMerge: disable})
		if err != nil {
			return nil, err
		}
		client, err := net.NewClient()
		if err != nil {
			return nil, err
		}
		arrivals := workload.NewUniform(w, opts.Seed+2)
		trace := append(workload.Grow(grow, 4, batch), workload.Shrink(shrink, 4, batch)...)
		if _, err := workload.Run(net, client, trace, arrivals); err != nil {
			return nil, err
		}
		depth, err := net.EffectiveDepth()
		if err != nil {
			return nil, err
		}
		per := stats.SummarizeInts(net.ComponentsPerNode())
		name := "merge enabled (paper)"
		if disable {
			name = "merge disabled"
		}
		t.AddRow(name, net.NumNodes(), net.NumComponents(), depth, per.Mean, int(per.Max))
	}
	t.Note("the merge-disabled network strands Theta(N_peak) components on the few surviving nodes")
	return t, nil
}

func minMax(xs []int) (int, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func pair(a, b int) string {
	return "[" + itoa(a) + "," + itoa(b) + "]"
}

func itoa(x int) string {
	return formatCell(x)
}
