// Package component implements the paper's component runtime (Section 2.2).
//
// Every component — BITONIC[k], MERGER[k] or MIX[k] alike — is implemented
// by a single local variable: the next token entering the component exits on
// wire x, and x is incremented modulo k. This package additionally tracks
// the total number of tokens processed, which (a) determines the per-wire
// emission counts in quiescence (they form the unique step sequence of the
// total), (b) makes merging well-defined (the merged counter is the sum of
// the entry children's totals, mod k), and (c) provides a quiescence
// detector for assemblies (tokens entered == tokens exited).
//
// The paper's pitch is that this single variable is uncontended enough to
// scale: State implements it as a lock-free atomic word, not a mutex. The
// low 63 bits hold the token total and the top bit is a freeze flag, so one
// compare-and-swap both checks the freeze flag and claims the next output
// wire. Freezing (the split/merge state capture of Section 2.2) atomically
// sets the flag; from that instant the total is immutable and every
// concurrent TryStep fails, telling the token to re-resolve against the
// new topology. This replaces the per-token mutex acquisition that
// serialized all traffic through a component.
//
// Split-state initialization (the paper leaves this "appropriate"
// initialization unspecified): a component with counter x is replaced by
// children whose state is obtained by replaying x virtual tokens,
// sequentially, into the fresh child assembly on input wires 0..x-1. A
// counting network fed sequentially emits token t on wire t, so the replay
// reproduces exactly the output history the parent has already produced.
package component

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/tree"
)

// frozenBit marks a frozen component; the remaining 63 bits are the token
// total. 2^63 tokens is out of reach, so the flag never collides with a
// real count.
const frozenBit = uint64(1) << 63

// State is the runtime state of one live component. It is safe for
// concurrent use; Step and TryStep are lock-free.
type State struct {
	Comp tree.Component

	// state packs the token total (low 63 bits) with the freeze flag (top
	// bit) so wire assignment and freeze detection are one atomic op.
	state atomic.Uint64
}

// New creates a component with zero state.
func New(c tree.Component) *State {
	return &State{Comp: c}
}

// NewWithTotal creates a component that behaves as if total tokens had
// already passed through it.
func NewWithTotal(c tree.Component, total uint64) *State {
	s := &State{Comp: c}
	s.state.Store(total)
	return s
}

// TryStep routes one token through the component and returns the output
// wire it leaves on. It fails (ok == false) when the component is frozen
// for a split or merge: the caller must re-resolve the token's position
// against the current topology, because this incarnation's state has been
// captured and is being replaced.
func (s *State) TryStep() (out int, ok bool) {
	// Every width in T_w is a power of two, so "mod k" is a mask: a 64-bit
	// divide would sit on the critical path behind every CAS result.
	mask := uint64(s.Comp.Width - 1)
	for {
		cur := s.state.Load()
		if cur&frozenBit != 0 {
			return 0, false
		}
		// The CAS is the paper's "x := x+1 mod k" fetch-add; retrying only
		// races other tokens on the same component, never a lock holder.
		// (A hardware fetch-and-add measured slower: see DESIGN.md.)
		if s.state.CompareAndSwap(cur, cur+1) {
			return int(cur & mask), true
		}
	}
}

// TryStepN routes n tokens through the component with one atomic claim and
// returns the total before the claim: token i of the batch (0 <= i < n)
// leaves on wire (base+i) mod width. Claiming n consecutive slots is
// indistinguishable from n sequential TryStep calls that happened to run
// back-to-back — a counting network admits every interleaving — so batched
// engines pay one CAS per component visit instead of one per token. Like
// TryStep it fails when the component is frozen, and the freeze flag makes
// the claim all-or-nothing: no token of the batch received a wire.
func (s *State) TryStepN(n uint64) (base uint64, ok bool) {
	for {
		cur := s.state.Load()
		if cur&frozenBit != 0 {
			return 0, false
		}
		if s.state.CompareAndSwap(cur, cur+n) {
			return cur, true
		}
	}
}

// Step routes one token through the component and returns the output wire
// it leaves on, spinning across a concurrent freeze. Engines that replace
// frozen components (internal/core's concurrent router) should use TryStep
// and re-resolve instead; Step is for single-engine networks (internal/
// cutnet) where a frozen component is always unfrozen or replaced promptly.
func (s *State) Step() int {
	for {
		if out, ok := s.TryStep(); ok {
			return out
		}
		runtime.Gosched()
	}
}

// Freeze atomically sets the freeze flag and returns the captured total.
// From the linearization point of the Freeze, no TryStep succeeds, so the
// returned total is exact and final: every token counted in it received a
// wire assignment, every later token is refused. Freezing an already-frozen
// component returns the same captured total (idempotent under retries).
func (s *State) Freeze() uint64 {
	return s.state.Or(frozenBit) &^ frozenBit
}

// Frozen reports whether the component is frozen.
func (s *State) Frozen() bool {
	return s.state.Load()&frozenBit != 0
}

// Total returns the number of tokens the component has processed.
func (s *State) Total() uint64 {
	return s.state.Load() &^ frozenBit
}

// Counter returns the paper's local variable x: the wire the next token
// will leave on.
func (s *State) Counter() int {
	return int(s.Total() % uint64(s.Comp.Width))
}

// SetTotal overwrites the component's state (used by the self-stabilization
// repair actions). It also clears the freeze flag.
func (s *State) SetTotal(total uint64) {
	s.state.Store(total)
}

// EmittedOn returns the number of tokens emitted so far on output wire out:
// in quiescence the component's output history is the unique step sequence
// with the component's total.
func (s *State) EmittedOn(out int) uint64 {
	total := s.Total()
	w := uint64(s.Comp.Width)
	base := total / w
	if uint64(out) < total%w {
		return base + 1
	}
	return base
}

// SplitTotalsFromInputs computes the state of the children created when a
// component splits, given the component's cumulative per-input-wire token
// counts. In quiescence the internal state of a balancing (sub-)network is
// a pure function of its cumulative per-wire inputs, so the children's
// totals follow by staged aggregation: entry children receive the input
// wires the decomposition assigns them; every child's cumulative output is
// the step sequence of its total, pushed along the decomposition's wires to
// the next stage.
//
// This is the "appropriate" initialization Section 2.2 leaves unspecified.
// Note that the component's own counter is NOT sufficient: two valid input
// histories with the same total can induce different child states (see
// DESIGN.md and the E17b experiment); the per-wire counts are recoverable
// from the in-neighbors' states, which is what internal/cutnet and
// internal/core do.
func SplitTotalsFromInputs(c tree.Component, inputs []uint64) ([]uint64, error) {
	return split(c, inputs, nil)
}

// SplitFlows is SplitTotalsFromInputs, additionally returning each child's
// cumulative per-input-wire arrival counts (flows[j][i] is the number of
// tokens that entered input wire i of child j). The asynchronous engine
// needs the per-wire breakdown so that the children can themselves split
// later.
func SplitFlows(c tree.Component, inputs []uint64) (totals []uint64, flows [][]uint64, err error) {
	if !c.IsLeaf() {
		flows = make([][]uint64, tree.Degree(c.Kind))
		for j := range flows {
			flows[j] = make([]uint64, c.Width/2)
		}
	}
	if totals, err = split(c, inputs, flows); err != nil {
		return nil, nil, err
	}
	return totals, flows, nil
}

// split pushes the cumulative input counts of c through its decomposition
// and returns each child's total; when flows is non-nil it also adds every
// child's per-input-wire arrivals into it. The totals alone need no
// per-wire state, which is what a split of a wide component is spared.
func split(c tree.Component, inputs []uint64, flows [][]uint64) ([]uint64, error) {
	if c.IsLeaf() {
		return nil, fmt.Errorf("component: cannot split leaf %v", c)
	}
	if len(inputs) != c.Width {
		return nil, fmt.Errorf("component: %v needs %d input counts, got %d", c, c.Width, len(inputs))
	}
	deg := tree.Degree(c.Kind)
	h := c.Width / 2
	totals := make([]uint64, deg)
	for in, cnt := range inputs {
		j, ci := tree.ChildInput(c.Kind, c.Width, in)
		totals[j] += cnt
		if flows != nil {
			flows[j][ci] += cnt
		}
	}
	// Children are staged: 0,1 then 2,3 then 4,5 (as present). Process in
	// index order; ChildNext only ever feeds strictly later stages, so a
	// child's total is final when its turn comes.
	for j := 0; j < deg; j++ {
		// Push this child's cumulative output distribution — the step
		// sequence of its total — downstream.
		base := totals[j] / uint64(h)
		rem := int(totals[j] % uint64(h))
		for o := 0; o < h; o++ {
			emitted := base
			if o < rem {
				emitted++
			}
			if emitted == 0 {
				break // a step sequence: the wires after this one are empty too
			}
			d := tree.ChildNext(c.Kind, c.Width, j, o)
			if !d.ToChild {
				continue
			}
			totals[d.Child] += emitted
			if flows != nil {
				flows[d.Child][d.ChildIn] += emitted
			}
		}
	}
	return totals, nil
}

// SplitTotalsSequential computes child totals by replaying total mod width
// virtual tokens sequentially on input wires 0..x-1 plus the full-cycle
// contribution. This is the initialization that uses only the component's
// own state, as the paper's prose suggests; it is correct only when the
// component's true input history was itself round-robin. It is retained for
// the E17b experiment, which demonstrates the difference. Use
// SplitTotalsFromInputs for correct splits.
func SplitTotalsSequential(c tree.Component, total uint64) ([]uint64, error) {
	if c.IsLeaf() {
		return nil, fmt.Errorf("component: cannot split leaf %v", c)
	}
	deg := tree.Degree(c.Kind)
	totals := make([]uint64, deg)
	h := uint64(c.Width / 2)
	x := int(total % uint64(c.Width))
	for v := 0; v < x; v++ {
		ci, _ := tree.ChildInput(c.Kind, c.Width, v)
		for {
			out := int(totals[ci] % h)
			totals[ci]++
			d := tree.ChildNext(c.Kind, c.Width, ci, out)
			if !d.ToChild {
				break
			}
			ci = d.Child
		}
	}
	// Each full cycle of width tokens routes exactly width/2 tokens through
	// every child (the sequential pattern has period width), so preserving
	// the full-cycle count keeps child totals exact rather than merely
	// correct modulo the child width. Exact totals are what make nested
	// merges and the conservation-based quiescence detector sound.
	cycles := total / uint64(c.Width)
	for i := range totals {
		totals[i] += cycles * h
	}
	return totals, nil
}

// MergeTotal computes the state of the component reformed by merging the
// children of c: the total of tokens that entered the assembly, which is
// the sum of the entry children's totals (children 0 and 1 for every kind).
func MergeTotal(c tree.Component, childTotals []uint64) (uint64, error) {
	if len(childTotals) != tree.Degree(c.Kind) {
		return 0, fmt.Errorf("component: merge of %v needs %d child totals, got %d",
			c, tree.Degree(c.Kind), len(childTotals))
	}
	return childTotals[0] + childTotals[1], nil
}

// CheckConservation verifies the assembly invariant used as a quiescence
// detector: the tokens that entered an assembly (entry children's totals)
// equal the tokens that left it (exit children's totals). It returns an
// error when the assembly has in-flight tokens or inconsistent state.
func CheckConservation(c tree.Component, childTotals []uint64) error {
	deg := tree.Degree(c.Kind)
	if len(childTotals) != deg {
		return fmt.Errorf("component: conservation check of %v needs %d totals, got %d",
			c, deg, len(childTotals))
	}
	// Every token traverses exactly one child of each stage (B, M, X for a
	// BITONIC parent; M, X for a MERGER; X for a MIX), so in quiescence the
	// per-stage totals must all equal the number of tokens that entered.
	in := childTotals[0] + childTotals[1]
	for stage := 1; stage < deg/2; stage++ {
		got := childTotals[2*stage] + childTotals[2*stage+1]
		if got != in {
			return fmt.Errorf("component: assembly %v not quiescent: %d entered, stage %d saw %d",
				c, in, stage, got)
		}
	}
	return nil
}

// Imbalance measures how far an assembly of c's children with the given
// totals, in quiescence, is from c itself with the same total: the number of
// tokens its exit children have emitted on another output wire of c than c
// — one round-robin counter, whose output history is the step sequence of
// the tokens that entered it — would have. A split or merge between c and
// its children is exact only when it is 0: for a BITONIC the children form
// a counting network for any input, so it always is, but a MERGER's or
// MIX's children count correctly only from step-shaped inputs, and a
// component frozen while tokens are in flight towards it may have seen
// others.
func Imbalance(c tree.Component, childTotals []uint64) (uint64, error) {
	deg := tree.Degree(c.Kind)
	if len(childTotals) != deg {
		return 0, fmt.Errorf("component: imbalance of %v needs %d child totals, got %d", c, deg, len(childTotals))
	}
	h := uint64(c.Width / 2)
	emitted := make([]uint64, c.Width)
	for j, total := range childTotals {
		for o := uint64(0); o < h; o++ {
			d := tree.ChildNext(c.Kind, c.Width, j, int(o))
			if d.ToChild {
				continue
			}
			emitted[d.ParentOut] += total / h
			if o < total%h {
				emitted[d.ParentOut]++
			}
		}
	}
	w := uint64(c.Width)
	total := childTotals[0] + childTotals[1]
	var misplaced uint64
	for o, got := range emitted {
		want := total / w
		if uint64(o) < total%w {
			want++
		}
		if got > want {
			misplaced += got - want
		}
	}
	return misplaced, nil
}
