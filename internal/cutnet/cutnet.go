// Package cutnet instantiates a counting network from an arbitrary cut of
// the decomposition tree T_w (Section 2.2 of the paper): the components at
// the cut's leaves, wired by the recursive decomposition, form BITONIC[w]
// (Theorem 2.1).
//
// The engine in this package is single-process and synchronous: a token
// fully traverses the network inside Inject, so the network is quiescent
// between calls and Split/Merge need no freeze protocol. A token steps
// through the cut's compiled tree.RouteTable, the routing kernel shared
// with internal/sim and internal/dist; the engine that maps components
// onto Chord nodes lives in internal/core and reuses the same wire algebra.
package cutnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/balancer"
	"repro/internal/component"
	"repro/internal/tree"
)

// Net is a counting network over a cut of T_w.
type Net struct {
	width int

	mu     sync.RWMutex // Inject reads; Split and Merge write
	rt     *tree.RouteTable
	live   []*component.State // live[i] is the state of rt.Components()[i]
	splits int64
	merges int64

	out      []atomic.Int64
	injected []atomic.Int64
}

// New builds the network for the given cut of T_w.
func New(w int, cut tree.Cut) (*Net, error) {
	if err := cut.Validate(w); err != nil {
		return nil, err
	}
	rt, err := tree.CompileRoutes(w, cut)
	if err != nil {
		return nil, err
	}
	n := &Net{
		width:    w,
		rt:       rt,
		live:     make([]*component.State, len(rt.Components())),
		out:      make([]atomic.Int64, w),
		injected: make([]atomic.Int64, w),
	}
	for i, c := range rt.Components() {
		n.live[i] = component.New(c)
	}
	return n, nil
}

// NewRootOnly builds the network implemented by a single component (the
// initial state of the adaptive network: the whole BITONIC[w] on one node).
func NewRootOnly(w int) (*Net, error) {
	return New(w, tree.RootCut())
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
	n.injected[in].Add(1)
	at := n.rt.Entry(in)
	for !at.Exited() {
		at = n.rt.Next(at.Comp, n.live[at.Comp].Step())
		hops++
	}
	n.out[at.Wire].Add(1)
	return int(at.Wire), hops, nil
}

// statesLocked returns the live states by path, for a structural operation
// to edit and install. Caller holds the write lock.
func (n *Net) statesLocked() map[tree.Path]*component.State {
	comps := make(map[tree.Path]*component.State, len(n.live))
	for _, st := range n.live {
		comps[st.Comp.Path] = st
	}
	return comps
}

// installLocked makes comps the network's cut: it compiles the cut's
// routing and indexes the states like the table. Caller holds the write
// lock.
func (n *Net) installLocked(comps map[tree.Path]*component.State) error {
	cut := make(tree.Cut, len(comps))
	for p := range comps {
		cut[p] = true
	}
	rt, err := tree.CompileRoutes(n.width, cut)
	if err != nil {
		return err
	}
	live := make([]*component.State, len(comps))
	for i, c := range rt.Components() {
		live[i] = comps[c.Path]
	}
	n.rt, n.live = rt, live
	return nil
}

// Split replaces the component at path p by its six (or four, or two)
// children, initialized so that the network's externally observable
// behavior is unchanged.
func (n *Net) Split(p tree.Path) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	i, ok := n.rt.Index(p)
	if !ok {
		return fmt.Errorf("cutnet: split: no component at %q", p)
	}
	st := n.live[i]
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
	comps := n.statesLocked()
	delete(comps, p)
	for i, child := range c.Children() {
		comps[child.Path] = component.NewWithTotal(child, totals[i])
	}
	if err := n.installLocked(comps); err != nil {
		return err
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
	err := tree.InputCounts(n.width, c.Path, inputs,
		func(netIn int) uint64 { return uint64(n.injected[netIn].Load()) },
		func(path []byte) tree.Producer {
			if i, ok := n.rt.Index(tree.Path(path)); ok {
				return n.live[i]
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("cutnet: %w", err)
	}
	return inputs, nil
}

// Merge reforms the component at path p from its children, recursively
// merging any child that has itself been split. On error the network is
// unchanged.
func (n *Net) Merge(p tree.Path) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	comps := n.statesLocked()
	merges, err := n.merge(comps, p)
	if err != nil {
		return err
	}
	if err := n.installLocked(comps); err != nil {
		return err
	}
	n.merges += merges
	return nil
}

// merge replaces p's descendants in comps by p and returns the number of
// merges that took.
func (n *Net) merge(comps map[tree.Path]*component.State, p tree.Path) (int64, error) {
	if comps[p] != nil {
		return 0, fmt.Errorf("cutnet: merge: %q is already a live component", p)
	}
	c, err := tree.ComponentAt(n.width, p)
	if err != nil {
		return 0, err
	}
	if c.IsLeaf() {
		return 0, fmt.Errorf("cutnet: merge: %v has no children", c)
	}
	children := c.Children()
	totals := make([]uint64, len(children))
	merges := int64(1)
	for i, child := range children {
		if comps[child.Path] == nil {
			m, err := n.merge(comps, child.Path)
			if err != nil {
				return 0, fmt.Errorf("cutnet: recursive merge of %v: %w", child, err)
			}
			merges += m
		}
		totals[i] = comps[child.Path].Total()
	}
	if err := component.CheckConservation(c, totals); err != nil {
		return 0, err
	}
	total, err := component.MergeTotal(c, totals)
	if err != nil {
		return 0, err
	}
	for _, child := range children {
		delete(comps, child.Path)
	}
	comps[p] = component.NewWithTotal(c, total)
	return merges, nil
}

// routes returns the compiled routing of the current cut.
func (n *Net) routes() *tree.RouteTable {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.rt
}

// Cut returns the current cut.
func (n *Net) Cut() tree.Cut {
	comps := n.routes().Components()
	cut := make(tree.Cut, len(comps))
	for _, c := range comps {
		cut[c.Path] = true
	}
	return cut
}

// Components returns the live components in deterministic order.
func (n *Net) Components() []tree.Component {
	return append([]tree.Component(nil), n.routes().Components()...)
}

// State returns the component state at path p, if live.
func (n *Net) State(p tree.Path) (*component.State, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if i, ok := n.rt.Index(p); ok {
		return n.live[i], true
	}
	return nil, false
}

// Size returns the number of live components.
func (n *Net) Size() int { return len(n.routes().Components()) }

// Splits and Merges return the number of structural operations performed.
func (n *Net) Splits() int64 { n.mu.RLock(); defer n.mu.RUnlock(); return n.splits }

// Merges returns the number of merge operations performed.
func (n *Net) Merges() int64 { n.mu.RLock(); defer n.mu.RUnlock(); return n.merges }

// loadCounts copies per-wire token counters.
func loadCounts(c []atomic.Int64) balancer.Seq {
	s := make(balancer.Seq, len(c))
	for i := range c {
		s[i] = c[i].Load()
	}
	return s
}

// OutCounts returns the per-output-wire token counts.
func (n *Net) OutCounts() balancer.Seq { return loadCounts(n.out) }

// InCounts returns the per-input-wire injection counts.
func (n *Net) InCounts() balancer.Seq { return loadCounts(n.injected) }

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
