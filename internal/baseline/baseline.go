// Package baseline implements the comparison systems the paper positions
// itself against:
//
//   - Central: a conventional centralized counter on a single overlay node
//     (the "centralized low parallelism implementation" of Section 2).
//   - Static: the balancer-per-object implementation of Section 2 — every
//     balancer of BITONIC[w] is a separate DHT object, so the object count
//     is w*log(w)*(log(w)+1)/4 regardless of the system size.
//   - DiffractingTree: the tree-of-balancers counter of Shavit & Zemach
//     (Section 1.3 related work), with leaf counters; implemented without
//     the shared-memory prism (the message-passing setting has no
//     contended root to diffract around, which is the paper's point).
//
// All three meter overlay hops the same way internal/core does, so the E15
// comparison is apples-to-apples.
package baseline

import (
	"fmt"
	"sync"

	"repro/internal/balancer"
	"repro/internal/bitonic"
	"repro/internal/chord"
)

// Central is a single counter object placed on one overlay node.
type Central struct {
	host chord.NodeID

	mu    sync.Mutex
	count uint64
	hops  uint64
}

// NewCentral places a counter object on the owner of its name.
func NewCentral(ring *chord.Ring, name string) (*Central, error) {
	host, err := ring.Owner(name)
	if err != nil {
		return nil, err
	}
	return &Central{host: host}, nil
}

// Next returns the next counter value. The client pays one overlay
// round-trip to the counter's host (its address is cached after the first
// lookup, as in Section 3.5's cost model).
func (c *Central) Next() (value uint64, hops int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	value = c.count
	c.count++
	c.hops++
	return value, 1
}

// Hops returns the total overlay hops spent.
func (c *Central) Hops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hops
}

// Host returns the node holding the counter (the bottleneck).
func (c *Central) Host() chord.NodeID { return c.host }

// Static is the balancer-per-object bitonic network of Section 2: every
// balancer is an independent DHT object on node h(name).
type Static struct {
	w    int
	net  *balancer.Network
	host [][]chord.NodeID // host[layer][wire] of the comparator touching wire

	mu   sync.Mutex
	out  []uint64
	hops uint64
}

// NewStatic builds the width-w balancer-per-object network over the ring.
func NewStatic(ring *chord.Ring, w int) (*Static, error) {
	net, err := bitonic.New(w)
	if err != nil {
		return nil, err
	}
	s := &Static{w: w, net: net, out: make([]uint64, w)}
	s.host = make([][]chord.NodeID, len(net.Layers))
	for li, layer := range net.Layers {
		row := make([]chord.NodeID, w)
		for _, cmp := range layer {
			name := fmt.Sprintf("bal@%d/%d", li, cmp.Top)
			h, err := ring.Owner(name)
			if err != nil {
				return nil, err
			}
			row[cmp.Top], row[cmp.Bottom] = h, h
		}
		s.host[li] = row
	}
	return s, nil
}

// Objects returns the number of balancer objects: w*log(w)*(log(w)+1)/4.
func (s *Static) Objects() int { return s.net.Size() }

// Depth returns the number of balancer layers.
func (s *Static) Depth() int { return s.net.Depth() }

// Next injects a token on input wire in and returns its counter value and
// the overlay hops spent: one hop per balancer-to-balancer forwarding
// (addresses cached), counted only when the hosting node changes.
func (s *Static) Next(in int) (value uint64, hops int, err error) {
	if in < 0 || in >= s.w {
		return 0, 0, fmt.Errorf("baseline: input wire %d out of range [0,%d)", in, s.w)
	}
	// Count host transitions along the path before traversing (the path is
	// determined by toggles, so walk and traverse together).
	var prev chord.NodeID
	first := true
	wire := in
	for li := range s.net.Layers {
		if !s.net.HasComparator(li, wire) {
			continue
		}
		h := s.host[li][wire]
		if first || h != prev {
			hops++
		}
		prev, first = h, false
		wire = s.net.WireAfter(li, wire)
	}
	s.mu.Lock()
	value = s.out[wire]*uint64(s.w) + uint64(wire)
	s.out[wire]++
	s.hops += uint64(hops)
	s.mu.Unlock()
	return value, hops, nil
}

// Out returns the per-output-wire emission counts.
func (s *Static) Out() balancer.Seq {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(balancer.Seq, s.w)
	for i, v := range s.out {
		out[i] = int64(v)
	}
	return out
}

// Hops returns the total overlay hops spent.
func (s *Static) Hops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hops
}

// ObjectsPerNode returns how many balancer objects each node hosts.
func (s *Static) ObjectsPerNode() map[chord.NodeID]int {
	counts := make(map[chord.NodeID]int)
	for li, layer := range s.net.Layers {
		for _, cmp := range layer {
			counts[s.host[li][cmp.Top]]++
		}
	}
	return counts
}

// DiffractingTree is a counting tree: a binary tree of balancers whose
// leaves hold counters returning leaf + leaves*visits.
type DiffractingTree struct {
	depth int

	mu      sync.Mutex
	toggles []uint64 // heap-indexed internal nodes, 1-based
	visits  []uint64 // per leaf
	hops    uint64
}

// NewDiffractingTree builds a tree with 2^depth leaf counters.
func NewDiffractingTree(depth int) (*DiffractingTree, error) {
	if depth < 0 || depth > 30 {
		return nil, fmt.Errorf("baseline: tree depth %d out of range [0,30]", depth)
	}
	return &DiffractingTree{
		depth:   depth,
		toggles: make([]uint64, 1<<uint(depth)),
		visits:  make([]uint64, 1<<uint(depth)),
	}, nil
}

// Leaves returns the number of leaf counters.
func (d *DiffractingTree) Leaves() int { return 1 << uint(d.depth) }

// Next returns the next counter value; the token pays one overlay hop per
// tree level plus one for the leaf counter.
func (d *DiffractingTree) Next() (value uint64, hops int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	node := 1
	logical := 0 // bit-reversed leaf index: consecutive tokens hit 0,1,2,...
	for level := 0; level < d.depth; level++ {
		t := d.toggles[node]
		d.toggles[node]++
		bit := int(t % 2)
		node = node*2 + bit
		logical |= bit << uint(level)
		hops++
	}
	value = d.visits[logical]*uint64(d.Leaves()) + uint64(logical)
	d.visits[logical]++
	hops++
	d.hops += uint64(hops)
	return value, hops
}

// Visits returns the per-leaf token counts.
func (d *DiffractingTree) Visits() balancer.Seq {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(balancer.Seq, len(d.visits))
	for i, v := range d.visits {
		out[i] = int64(v)
	}
	return out
}

// Hops returns the total overlay hops spent.
func (d *DiffractingTree) Hops() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hops
}
