package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chord"
	"repro/internal/component"
	"repro/internal/estimate"
	"repro/internal/tree"
)

// refreshEstimatesLocked recomputes every node's size and level estimate
// (Section 3.1). Estimates are deterministic functions of the current ring.
func (n *Network) refreshEstimatesLocked() error {
	params := estimate.Params{Mult: n.cfg.EstimatorMult}
	for id, node := range n.nodes {
		est, err := estimate.SizeEstimate(n.ring, id, params)
		if err != nil {
			return err
		}
		node.estimate = est.Size
		node.level = estimate.Level(est.Size, n.cfg.Width)
	}
	return nil
}

// maintain runs one decentralized maintenance round: every node refreshes
// its level estimate and applies the splitting and merging rules of
// Section 3.2 to the components it is responsible for. It reports whether
// any structural change happened.
func (n *Network) maintain() (bool, error) {
	defer n.unlockStruct(n.lockStruct())
	defer n.publishLocked()
	return n.maintainLocked()
}

// MaintainToFixpoint runs maintenance rounds until no node wants further
// changes (or maxRounds is hit) and returns the number of rounds that made
// changes.
func (n *Network) MaintainToFixpoint(maxRounds int) (int, error) {
	defer n.unlockStruct(n.lockStruct())
	defer n.publishLocked()
	for round := 0; round < maxRounds; round++ {
		changed, err := n.maintainLocked()
		if err != nil {
			return round, err
		}
		if !changed {
			return round, nil
		}
	}
	return maxRounds, fmt.Errorf("core: maintenance did not converge in %d rounds", maxRounds)
}

func (n *Network) maintainLocked() (bool, error) {
	if len(n.lost) > 0 {
		return false, fmt.Errorf("core: %d components lost to crashes; run Stabilize first", len(n.lost))
	}
	if err := n.refreshEstimatesLocked(); err != nil {
		return false, err
	}
	n.metrics.maintainRuns.Add(1)
	changed := false
	pristine := n.pristineLocked()

	// Deterministic node order keeps runs reproducible.
	ids := make([]chord.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	responsibilities := n.splitResponsibilitiesLocked()

	for _, id := range ids {
		node := n.nodes[id]
		if node == nil {
			continue
		}
		// Splitting rule: split every hosted component whose level is less
		// than the node's level estimate.
		paths := make([]tree.Path, 0, len(node.comps))
		for p := range node.comps {
			paths = append(paths, p)
		}
		sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
		for _, p := range paths {
			lc := n.comps[p]
			if lc == nil || lc.st.Comp.IsLeaf() {
				continue
			}
			if p.Level() < node.level {
				if err := n.splitLocked(p, pristine); err != nil {
					return changed, err
				}
				changed = true
			}
		}
		if n.cfg.DisableMerge {
			continue
		}
		// Merging rule: the node responsible for a split component (the
		// owner of its name, which re-hosts it after the merge) merges it
		// back when the component's level is no longer below the node's
		// level estimate.
		for _, p := range responsibilities[id] {
			// Skip entries that went stale within this round: p (or an
			// ancestor) may already have been merged back into a single
			// component, vacating p's subtree.
			if n.coveredLocked(p) {
				continue
			}
			if p.Level() >= node.level {
				if err := n.mergeLocked(p); err != nil {
					return changed, err
				}
				changed = true
			}
		}
	}
	return changed, nil
}

// splitResponsibilitiesLocked returns the split-but-unmerged components
// (n.inner, the internal nodes of the current cut), grouped by the node
// that owns each one's name. The paper has each node remember the
// components it split; keeping the set with the network and deriving the
// responsible node from name ownership is equivalent under Chord's
// hand-off rule (the successor inherits both the name and the merge
// responsibility, Section 3.4) and additionally survives crashes.
func (n *Network) splitResponsibilitiesLocked() map[chord.NodeID][]tree.Path {
	out := make(map[chord.NodeID][]tree.Path, len(n.nodes))
	for p, hash := range n.inner {
		owner, err := n.ring.Successor(hash)
		if err != nil {
			continue
		}
		out[owner] = append(out[owner], p)
	}
	// Merge bottom-up: deepest parents first, so a recursive merge of an
	// ancestor sees already-merged children when both are due.
	for _, paths := range out {
		sort.Slice(paths, func(i, j int) bool {
			if len(paths[i]) != len(paths[j]) {
				return len(paths[i]) > len(paths[j])
			}
			return paths[i] < paths[j]
		})
	}
	return out
}

// coveredLocked reports whether p or one of its ancestors is a live
// component (in which case p's subtree is vacated and p cannot be merged).
func (n *Network) coveredLocked(p tree.Path) bool {
	for {
		if n.comps[p] != nil {
			return true
		}
		pp, _, ok := p.Parent()
		if !ok {
			return false
		}
		p = pp
	}
}

// pristineLocked reports whether no token has ever entered the network and
// no fault was ever injected into it. Then every component total, and so
// every in-neighbour count, is zero: a token is the only thing that steps
// a component, and a split, merge, repair or audit of all-zero state
// produces zeros.
func (n *Network) pristineLocked() bool {
	if n.faulted {
		return false
	}
	for i := range n.injected {
		if n.injected[i].Load() != 0 {
			return false
		}
	}
	return true
}

// splitLocked splits the component at p into its children (Section 2.2),
// initializing them from the component's cumulative per-input-wire counts
// and mapping each child to the owner of its name. pristine is
// pristineLocked's answer for the current round: then a component whose
// total is zero splits into zero children without reconstructing its
// inputs, which would find only zeros and pass the in-neighbour check. Any
// other split — a nonzero total included — reconstructs and checks.
func (n *Network) splitLocked(p tree.Path, pristine bool) error {
	var start time.Time
	if n.hSplit != nil {
		start = time.Now()
	}
	lc := n.comps[p]
	if lc == nil {
		return fmt.Errorf("core: split: no live component at %q", p)
	}
	c := lc.st.Comp
	if c.IsLeaf() {
		return fmt.Errorf("core: split: %v is an individual balancer", c)
	}
	children := c.Children()
	var totals []uint64
	if pristine && lc.st.Total() == 0 {
		totals = make([]uint64, len(children))
	} else {
		inputs, err := n.inputCountsLocked(c)
		if err != nil {
			return err
		}
		var sum uint64
		for _, cnt := range inputs {
			sum += cnt
		}
		if sum != lc.st.Total() {
			return fmt.Errorf("core: split: %v in-neighbor counts %d != processed %d", c, sum, lc.st.Total())
		}
		if totals, err = component.SplitTotalsFromInputs(c, inputs); err != nil {
			return err
		}
	}
	n.removeCompLocked(p)
	n.inner[p] = lc.hash
	for i, child := range children {
		if err := n.placeLocked(component.NewWithTotal(child, totals[i])); err != nil {
			return err
		}
	}
	n.metrics.splits.Add(1)
	n.hSplit.Since(start)
	return nil
}

// mergeLocked merges the children of p back into p (Section 2.2),
// recursively merging children that are themselves split, and re-hosts the
// merged component on the owner of its name.
func (n *Network) mergeLocked(p tree.Path) error {
	var start time.Time
	if n.hMerge != nil {
		start = time.Now()
	}
	if n.comps[p] != nil {
		return fmt.Errorf("core: merge: %q is already live", p)
	}
	c, err := tree.ComponentAt(n.cfg.Width, p)
	if err != nil {
		return err
	}
	if c.IsLeaf() {
		return fmt.Errorf("core: merge: %v has no children", c)
	}
	children := c.Children()
	totals := make([]uint64, len(children))
	for i, child := range children {
		if n.comps[child.Path] == nil {
			if err := n.mergeLocked(child.Path); err != nil {
				return fmt.Errorf("core: recursive merge of %v: %w", child, err)
			}
		}
		totals[i] = n.comps[child.Path].st.Total()
	}
	if err := component.CheckConservation(c, totals); err != nil {
		return err
	}
	total, err := component.MergeTotal(c, totals)
	if err != nil {
		return err
	}
	for _, child := range children {
		n.removeCompLocked(child.Path)
	}
	delete(n.inner, p)
	if err := n.placeLocked(component.NewWithTotal(c, total)); err != nil {
		return err
	}
	n.metrics.merges.Add(1)
	n.hMerge.Since(start)
	return nil
}

// inputCountsLocked computes component c's cumulative per-input-wire token
// counts from its in-neighbors' states (and the per-network-input
// injection counters for input-layer wires): tree.InputCounts over the
// live directory. A wire whose producer was lost to a crash is an error
// wrapping tree.ErrNoProducer.
func (n *Network) inputCountsLocked(c tree.Component) ([]uint64, error) {
	n.reconstructions.Add(1)
	inputs := make([]uint64, c.Width)
	err := tree.InputCounts(n.cfg.Width, c.Path, inputs,
		func(netIn int) uint64 { return n.injected[netIn].Load() },
		func(path []byte) tree.Producer {
			if lc := n.comps[tree.Path(path)]; lc != nil {
				return lc.st
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return inputs, nil
}
