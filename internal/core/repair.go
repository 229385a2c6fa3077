package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/component"
	"repro/internal/tree"
)

// Stabilize reconstructs components lost to crashes (Section 3.4). The
// repair is the local stabilization action of Herlihy & Tirthapura
// generalized to components: in a quiescent network, a component's total is
// exactly the number of tokens its in-neighbors have sent it, and every
// component's per-wire emissions are the step sequence of its total. A lost
// component is therefore rebuilt by summing its in-neighbors' emissions
// into it; repairs proceed in dependency order so that chains of lost
// components heal in O(depth) passes. It returns the number of components
// reconstructed.
func (n *Network) Stabilize() (int, error) {
	defer n.unlockStruct(n.lockStruct())
	defer n.publishLocked()

	repaired := 0
	for len(n.lost) > 0 {
		progress := false
		paths := make([]tree.Path, 0, len(n.lost))
		for p := range n.lost {
			paths = append(paths, p)
		}
		sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
		for _, p := range paths {
			var begin time.Time
			if n.hRepair != nil {
				begin = time.Now()
			}
			c, err := tree.ComponentAt(n.cfg.Width, p)
			if err != nil {
				return repaired, err
			}
			inputs, err := n.inputCountsLocked(c)
			if errors.Is(err, tree.ErrNoProducer) {
				continue // an in-neighbor is lost too: heal upstream first
			}
			if err != nil {
				return repaired, err
			}
			var total uint64
			for _, cnt := range inputs {
				total += cnt
			}
			if err := n.placeLocked(component.NewWithTotal(c, total)); err != nil {
				return repaired, err
			}
			delete(n.lost, p)
			n.metrics.repairs.Add(1)
			n.hRepair.Since(begin)
			repaired++
			progress = true
		}
		if !progress {
			return repaired, fmt.Errorf("core: stabilization stuck with %d unrecoverable components", len(n.lost))
		}
	}
	return repaired, nil
}

// Lost returns the number of components currently lost to crashes.
func (n *Network) Lost() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.lost)
}

// InjectFault overwrites the state of a live component, modeling the
// transient memory corruption of the self-stabilization fault model
// (Section 3.4: "if the network was reset to an illegal state by a fault").
// Audit detects and repairs such corruption.
func (n *Network) InjectFault(p tree.Path, total uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	lc := n.comps[p]
	if lc == nil {
		return fmt.Errorf("core: no live component at %q", p)
	}
	lc.setTotalLocked(total)
	n.faulted = true
	return nil
}

// Audit is the self-stabilization sweep (Section 3.4, after Herlihy &
// Tirthapura's self-stabilizing counting): in quiescence every component's
// total must equal the tokens its in-neighbors have sent it, with the
// network's own injection counters as ground truth at the input layer.
// Audit checks every live component in topological order and, when repair
// is set, overwrites inconsistent totals with the value implied by the
// (already audited) upstream state — so a single sweep heals arbitrarily
// many corrupted components. It returns the number of inconsistencies
// found.
func (n *Network) Audit(repair bool) (int, error) {
	dag, err := n.analyzeCut()
	if err != nil {
		return 0, err
	}
	order := topoOrder(len(dag.Comps), dag.Edges)

	n.mu.Lock()
	defer n.mu.Unlock()
	inconsistent := 0
	for _, idx := range order {
		c := dag.Comps[idx]
		lc := n.comps[c.Path]
		if lc == nil {
			return inconsistent, fmt.Errorf("core: audit: %v vanished", c)
		}
		inputs, err := n.inputCountsLocked(c)
		if err != nil {
			return inconsistent, err
		}
		var expected uint64
		for _, cnt := range inputs {
			expected += cnt
		}
		if lc.st.Total() == expected {
			continue
		}
		inconsistent++
		if repair {
			lc.setTotalLocked(expected)
			n.metrics.repairs.Add(1)
		}
	}
	return inconsistent, nil
}

// topoOrder returns a topological order of a DAG given as edges over
// vertices 0..n-1.
func topoOrder(n int, edges [][2]int) []int {
	adj := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range adj[v] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return order
}
