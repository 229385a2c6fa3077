// Package cutnet instantiates a counting network from an arbitrary cut of
// the decomposition tree T_w (Section 2.2 of the paper): the components at
// the cut's leaves, wired by the recursive decomposition, form BITONIC[w]
// (Theorem 2.1).
//
// The engine in this package is single-process and synchronous: a token
// fully traverses the network inside Inject, so the network is quiescent
// between calls and Split/Merge need no freeze protocol. The distributed,
// message-passing engine that maps components onto Chord nodes lives in
// internal/core and reuses the same wire algebra.
package cutnet

import (
	"fmt"
	"sync"

	"repro/internal/balancer"
	"repro/internal/component"
	"repro/internal/tree"
)

// WiringFunc resolves a child's output wire inside its parent's
// decomposition; it is tree.ChildNext for the correct AHS94 wiring.
type WiringFunc func(kind tree.Kind, width, child, out int) tree.Dest

// InputFunc resolves a component's input wire to a child; it is
// tree.ChildInput for the correct AHS94 wiring.
type InputFunc func(kind tree.Kind, width, in int) (child, childIn int)

// Option configures a Net.
type Option func(*Net)

// WithProseWiring switches the network to the paper's literal prose wiring
// (see the erratum in DESIGN.md). Used only by the E17 experiment.
func WithProseWiring() Option {
	return func(n *Net) {
		n.next = tree.ChildNextProse
		n.input = tree.ChildInputProse
	}
}

// Net is a counting network over a cut of T_w.
type Net struct {
	width int
	next  WiringFunc
	input InputFunc

	mu     sync.RWMutex
	comps  map[tree.Path]*component.State
	splits int64
	merges int64

	cmu      sync.Mutex // guards the token counters below
	out      []int64
	injected []int64
}

// New builds the network for the given cut of T_w.
func New(w int, cut tree.Cut, opts ...Option) (*Net, error) {
	if err := cut.Validate(w); err != nil {
		return nil, err
	}
	n := &Net{
		width:    w,
		next:     tree.ChildNext,
		input:    tree.ChildInput,
		comps:    make(map[tree.Path]*component.State, len(cut)),
		out:      make([]int64, w),
		injected: make([]int64, w),
	}
	for _, o := range opts {
		o(n)
	}
	comps, err := cut.Components(w)
	if err != nil {
		return nil, err
	}
	for _, c := range comps {
		n.comps[c.Path] = component.New(c)
	}
	return n, nil
}

// NewRootOnly builds the network implemented by a single component (the
// initial state of the adaptive network: the whole BITONIC[w] on one node).
func NewRootOnly(w int, opts ...Option) (*Net, error) {
	return New(w, tree.RootCut(), opts...)
}

// Width returns the network width w.
func (n *Net) Width() int { return n.width }

// Inject routes one token into network input wire in and returns the
// network output wire it leaves on. It is safe for concurrent use;
// traversals exclude structural changes (Split/Merge).
func (n *Net) Inject(in int) (int, error) {
	out, _, err := n.InjectTrace(in)
	return out, err
}

// InjectTrace is Inject, additionally reporting the number of components
// the token passed through (its latency in overlay hops).
func (n *Net) InjectTrace(in int) (out, hops int, err error) {
	if in < 0 || in >= n.width {
		return 0, 0, fmt.Errorf("cutnet: input wire %d out of range [0,%d)", in, n.width)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.cmu.Lock()
	n.injected[in]++
	n.cmu.Unlock()

	cur, wire, err := n.entryLocked(in)
	if err != nil {
		return 0, 0, err
	}
	_ = wire // components ignore the input wire they receive tokens on
	for {
		st := n.comps[cur.Path]
		if st == nil {
			return 0, 0, fmt.Errorf("cutnet: component %v missing from cut", cur)
		}
		hops++
		o := st.Step()
		nextComp, nextWire, exited, netOut, rerr := n.resolveOutLocked(cur, o)
		if rerr != nil {
			return 0, 0, rerr
		}
		if exited {
			n.recordOut(netOut)
			return netOut, hops, nil
		}
		cur, wire = nextComp, nextWire
	}
}

func (n *Net) recordOut(wire int) {
	n.cmu.Lock()
	n.out[wire]++
	n.cmu.Unlock()
}

// entryLocked descends from the root to the cut member receiving network
// input wire in. Caller holds at least a read lock.
func (n *Net) entryLocked(in int) (tree.Component, int, error) {
	cur := tree.MustRoot(n.width)
	wire := in
	for n.comps[cur.Path] == nil {
		if cur.IsLeaf() {
			return tree.Component{}, 0, fmt.Errorf("cutnet: no cut member covers input %d", in)
		}
		ci, cin := n.input(cur.Kind, cur.Width, wire)
		child, err := cur.Child(ci)
		if err != nil {
			return tree.Component{}, 0, err
		}
		cur, wire = child, cin
	}
	return cur, wire, nil
}

// resolveOutLocked resolves where a token leaving component c on output
// wire o goes: either into another cut member (with its input wire) or out
// of the network. Caller holds at least a read lock.
func (n *Net) resolveOutLocked(c tree.Component, o int) (dst tree.Component, dstWire int, exited bool, netOut int, err error) {
	node, wire := c, o
	for {
		parent, idx, ok := node.Parent(n.width)
		if !ok {
			return tree.Component{}, 0, true, wire, nil
		}
		d := n.next(parent.Kind, parent.Width, idx, wire)
		if !d.ToChild {
			node, wire = parent, d.ParentOut
			continue
		}
		target, cerr := parent.Child(d.Child)
		if cerr != nil {
			return tree.Component{}, 0, false, 0, cerr
		}
		wire = d.ChildIn
		for n.comps[target.Path] == nil {
			if target.IsLeaf() {
				return tree.Component{}, 0, false, 0, fmt.Errorf("cutnet: no cut member covers %v", target)
			}
			ci, cin := n.input(target.Kind, target.Width, wire)
			target, cerr = target.Child(ci)
			if cerr != nil {
				return tree.Component{}, 0, false, 0, cerr
			}
			wire = cin
		}
		return target, wire, false, 0, nil
	}
}

// Split replaces the component at path p by its six (or four, or two)
// children, initialized so that the network's externally observable
// behavior is unchanged.
func (n *Net) Split(p tree.Path) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.comps[p]
	if st == nil {
		return fmt.Errorf("cutnet: split: no component at %q", p)
	}
	c := st.Comp
	if c.IsLeaf() {
		return fmt.Errorf("cutnet: split: %v is an individual balancer", c)
	}
	inputs, err := n.inputCountsLocked(c)
	if err != nil {
		return err
	}
	var sum uint64
	for _, cnt := range inputs {
		sum += cnt
	}
	if sum != st.Total() {
		return fmt.Errorf("cutnet: split: %v received %d tokens per in-neighbors but processed %d",
			c, sum, st.Total())
	}
	totals, err := component.SplitTotalsFromInputs(c, inputs)
	if err != nil {
		return err
	}
	delete(n.comps, p)
	for i, child := range c.Children() {
		n.comps[child.Path] = component.NewWithTotal(child, totals[i])
	}
	n.splits++
	return nil
}

// inputCountsLocked computes the cumulative number of tokens that have
// entered each input wire of component c, from the states of its
// in-neighbors (and, for input-layer wires, the per-network-input injection
// counters): tree.InputCounts over this network's cut. Caller holds the
// write lock.
func (n *Net) inputCountsLocked(c tree.Component) ([]uint64, error) {
	inputs := make([]uint64, c.Width)
	n.cmu.Lock()
	defer n.cmu.Unlock()
	err := tree.InputCounts(n.width, c.Path, inputs,
		func(netIn int) uint64 { return uint64(n.injected[netIn]) },
		func(path []byte) tree.Producer {
			if st := n.comps[tree.Path(path)]; st != nil {
				return st
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("cutnet: %w", err)
	}
	return inputs, nil
}

// Merge reforms the component at path p from its children, recursively
// merging any child that has itself been split.
func (n *Net) Merge(p tree.Path) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mergeLocked(p)
}

func (n *Net) mergeLocked(p tree.Path) error {
	if n.comps[p] != nil {
		return fmt.Errorf("cutnet: merge: %q is already a live component", p)
	}
	c, err := tree.ComponentAt(n.width, p)
	if err != nil {
		return err
	}
	if c.IsLeaf() {
		return fmt.Errorf("cutnet: merge: %v has no children", c)
	}
	children := c.Children()
	totals := make([]uint64, len(children))
	for i, child := range children {
		if n.comps[child.Path] == nil {
			if err := n.mergeLocked(child.Path); err != nil {
				return fmt.Errorf("cutnet: recursive merge of %v: %w", child, err)
			}
		}
		totals[i] = n.comps[child.Path].Total()
	}
	if err := component.CheckConservation(c, totals); err != nil {
		return err
	}
	total, err := component.MergeTotal(c, totals)
	if err != nil {
		return err
	}
	for _, child := range children {
		delete(n.comps, child.Path)
	}
	n.comps[p] = component.NewWithTotal(c, total)
	n.merges++
	return nil
}

// Cut returns the current cut.
func (n *Net) Cut() tree.Cut {
	n.mu.RLock()
	defer n.mu.RUnlock()
	cut := make(tree.Cut, len(n.comps))
	for p := range n.comps {
		cut[p] = true
	}
	return cut
}

// Components returns the live components in deterministic order.
func (n *Net) Components() []tree.Component {
	cut := n.Cut()
	comps, _ := cut.Components(n.width)
	return comps
}

// State returns the component state at path p, if live.
func (n *Net) State(p tree.Path) (*component.State, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	st, ok := n.comps[p]
	return st, ok
}

// Size returns the number of live components.
func (n *Net) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.comps)
}

// Splits and Merges return the number of structural operations performed.
func (n *Net) Splits() int64 { n.mu.RLock(); defer n.mu.RUnlock(); return n.splits }

// Merges returns the number of merge operations performed.
func (n *Net) Merges() int64 { n.mu.RLock(); defer n.mu.RUnlock(); return n.merges }

// OutCounts returns the per-output-wire token counts.
func (n *Net) OutCounts() balancer.Seq {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	s := make(balancer.Seq, len(n.out))
	copy(s, n.out)
	return s
}

// InCounts returns the per-input-wire injection counts.
func (n *Net) InCounts() balancer.Seq {
	n.cmu.Lock()
	defer n.cmu.Unlock()
	s := make(balancer.Seq, len(n.injected))
	copy(s, n.injected)
	return s
}

// CheckStep verifies the quiescent step property of the network's outputs
// and token conservation. The caller must ensure no Inject is in flight.
func (n *Net) CheckStep() error {
	out := n.OutCounts()
	if !out.HasStep() {
		return fmt.Errorf("cutnet: output %v violates the step property", out)
	}
	if got, want := out.Total(), n.InCounts().Total(); got != want {
		return fmt.Errorf("cutnet: %d tokens out, %d in", got, want)
	}
	return nil
}
