package core

import (
	"fmt"

	"repro/internal/balancer"
	"repro/internal/cutnet"
	"repro/internal/tree"
)

// Cut returns the network's current cut of T_w.
func (n *Network) Cut() tree.Cut {
	n.mu.RLock()
	defer n.mu.RUnlock()
	cut := make(tree.Cut, len(n.comps))
	for p := range n.comps {
		cut[p] = true
	}
	return cut
}

// EffectiveWidth computes Definition 1.1 for the current cut.
func (n *Network) EffectiveWidth() (int, error) {
	d, err := n.analyzeCut()
	if err != nil {
		return 0, err
	}
	return d.EffectiveWidth(), nil
}

// EffectiveDepth computes Definition 1.2 for the current cut.
func (n *Network) EffectiveDepth() (int, error) {
	d, err := n.analyzeCut()
	if err != nil {
		return 0, err
	}
	return d.EffectiveDepth(), nil
}

func (n *Network) analyzeCut() (*cutnet.DAG, error) {
	rt, err := tree.CompileRoutes(n.cfg.Width, n.Cut())
	if err != nil {
		return nil, err
	}
	return cutnet.NewDAG(rt), nil
}

// ComponentsPerNode returns, for every overlay node, the number of
// components it hosts (Lemma 3.5 measures this distribution).
func (n *Network) ComponentsPerNode() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, len(node.comps))
	}
	return out
}

// TokenLoadPerNode returns, for every overlay node, the number of
// component-processing events it has served (the load-concentration metric
// of the E15 comparison): the load banked from components that left it,
// plus what each component on it has processed since it arrived.
func (n *Network) TokenLoadPerNode() []uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]uint64, 0, len(n.nodes))
	for _, node := range n.nodes {
		load := node.served
		for p := range node.comps {
			lc := n.comps[p]
			load += lc.st.Total() - lc.base
		}
		out = append(out, load)
	}
	return out
}

// ComponentLevels returns the multiset of live component levels, sorted.
func (n *Network) ComponentLevels() []int {
	return n.Cut().Levels()
}

// NodeLevels returns every node's current level estimate l_v. Estimates
// are refreshed first so the values reflect the current membership.
func (n *Network) NodeLevels() ([]int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.refreshEstimatesLocked(); err != nil {
		return nil, err
	}
	out := make([]int, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, node.level)
	}
	return out, nil
}

// sizeEstimates returns every node's current size estimate n_v.
func (n *Network) sizeEstimates() ([]float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.refreshEstimatesLocked(); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(n.nodes))
	for _, node := range n.nodes {
		out = append(out, node.estimate)
	}
	return out, nil
}

// OutNeighborCounts returns, per live component, the number of distinct
// out-neighbor components its output wires lead to (Section 3.5 argues the
// expectation is O(1)).
func (n *Network) OutNeighborCounts() ([]int, error) {
	d, err := n.analyzeCut()
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(d.Comps))
	for _, e := range d.Edges {
		counts[e[0]]++
	}
	return counts, nil
}

// OutCounts returns the per-output-wire emission counts.
func (n *Network) OutCounts() balancer.Seq {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := make(balancer.Seq, len(n.out))
	for i := range n.out {
		s[i] = int64(n.out[i].Load())
	}
	return s
}

// InCounts returns the per-input-wire injection counts.
func (n *Network) InCounts() balancer.Seq {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := make(balancer.Seq, len(n.injected))
	for i := range n.injected {
		s[i] = int64(n.injected[i].Load())
	}
	return s
}

// CheckStep verifies the quiescent step property of the network's output
// and token conservation, plus the validity of the current cut.
func (n *Network) CheckStep() error {
	if err := n.Cut().Validate(n.cfg.Width); err != nil {
		return err
	}
	out := n.OutCounts()
	if !out.HasStep() {
		return fmt.Errorf("core: output %v violates the step property", out)
	}
	if got, want := out.Total(), n.InCounts().Total(); got != want {
		return fmt.Errorf("core: %d tokens out, %d in", got, want)
	}
	return nil
}
