package tree

import "fmt"

// This file implements the wire algebra of the decomposition (Section 2.1).
// All functions are pure. Throughout, a parent component has width k, its
// children have width h = k/2, and q = k/4 is the half-child width used by
// the merger interleavings.

// Dest describes where a child's output wire leads inside its parent's
// decomposition: either into a sibling child's input wire, or out of the
// parent on one of the parent's output wires.
type Dest struct {
	ToChild   bool
	Child     int // valid when ToChild
	ChildIn   int // valid when ToChild
	ParentOut int // valid when !ToChild
}

// ChildInput maps input wire in (0 <= in < width) of a component of the
// given kind to the child that receives it and the child's input wire.
// Input wires always feed entry children 0 and 1.
func ChildInput(kind Kind, width, in int) (child, childIn int) {
	h := width / 2
	q := width / 4
	switch kind {
	case KindBitonic, KindMix:
		// Top half of the inputs feeds the top child, bottom half the
		// bottom child, in order.
		if in < h {
			return 0, in
		}
		return 1, in - h
	case KindMerger:
		// AHS94 cross: even wires of the top half and odd wires of the
		// bottom half feed the top merger; the rest feed the bottom merger.
		// Wires from the top half occupy the child's top q inputs; wires
		// from the bottom half occupy the child's bottom q inputs.
		if in < h {
			if in%2 == 0 {
				return 0, in / 2
			}
			return 1, (in - 1) / 2
		}
		j := in - h
		if j%2 == 1 {
			return 0, q + (j-1)/2
		}
		return 1, q + j/2
	default:
		panic(fmt.Sprintf("tree: unknown kind %v", kind))
	}
}

// InvChildInput is the inverse of ChildInput: it maps the childIn-th input
// wire of entry child (0 or 1) back to the parent's input wire. It reports
// ok=false for non-entry children, whose inputs come from siblings.
func InvChildInput(kind Kind, width, child, childIn int) (in int, ok bool) {
	if child != 0 && child != 1 {
		return 0, false
	}
	h := width / 2
	q := width / 4
	switch kind {
	case KindBitonic, KindMix:
		if child == 0 {
			return childIn, true
		}
		return h + childIn, true
	case KindMerger:
		if childIn < q { // from the top half
			if child == 0 {
				return 2 * childIn, true
			}
			return 2*childIn + 1, true
		}
		j := childIn - q // from the bottom half
		if child == 0 {
			return h + 2*j + 1, true
		}
		return h + 2*j, true
	default:
		panic(fmt.Sprintf("tree: unknown kind %v", kind))
	}
}

// ChildNext maps output wire out of child (by index) of a component of the
// given kind and width to its destination within the decomposition.
func ChildNext(kind Kind, width, child, out int) Dest {
	h := width / 2
	q := width / 4
	switch kind {
	case KindBitonic:
		switch child {
		case 0: // BITONIC top: AHS94 cross into the mergers.
			if out%2 == 0 {
				return Dest{ToChild: true, Child: 2, ChildIn: out / 2}
			}
			return Dest{ToChild: true, Child: 3, ChildIn: (out - 1) / 2}
		case 1: // BITONIC bottom (cross: odd to top merger).
			if out%2 == 1 {
				return Dest{ToChild: true, Child: 2, ChildIn: q + (out-1)/2}
			}
			return Dest{ToChild: true, Child: 3, ChildIn: q + out/2}
		case 2: // MERGER top: top q outputs are even inputs of MIX top.
			if out < q {
				return Dest{ToChild: true, Child: 4, ChildIn: 2 * out}
			}
			return Dest{ToChild: true, Child: 5, ChildIn: 2 * (out - q)}
		case 3: // MERGER bottom: odd inputs of the MIX components.
			if out < q {
				return Dest{ToChild: true, Child: 4, ChildIn: 2*out + 1}
			}
			return Dest{ToChild: true, Child: 5, ChildIn: 2*(out-q) + 1}
		case 4: // MIX top: network outputs 0..h-1.
			return Dest{ParentOut: out}
		case 5: // MIX bottom: network outputs h..k-1.
			return Dest{ParentOut: h + out}
		}
	case KindMerger:
		switch child {
		case 0: // MERGER top
			if out < q {
				return Dest{ToChild: true, Child: 2, ChildIn: 2 * out}
			}
			return Dest{ToChild: true, Child: 3, ChildIn: 2 * (out - q)}
		case 1: // MERGER bottom
			if out < q {
				return Dest{ToChild: true, Child: 2, ChildIn: 2*out + 1}
			}
			return Dest{ToChild: true, Child: 3, ChildIn: 2*(out-q) + 1}
		case 2:
			return Dest{ParentOut: out}
		case 3:
			return Dest{ParentOut: h + out}
		}
	case KindMix:
		switch child {
		case 0:
			return Dest{ParentOut: out}
		case 1:
			return Dest{ParentOut: h + out}
		}
	}
	panic(fmt.Sprintf("tree: ChildNext(%v, %d, %d, %d) out of range", kind, width, child, out))
}

// InvChildNext inverts ChildNext for internal edges: it returns the sibling
// (and its output wire) that feeds input wire childIn of the given
// non-entry child. It reports ok=false for entry children (0 and 1), whose
// inputs come from the parent's inputs.
func InvChildNext(kind Kind, width, child, childIn int) (sib, sibOut int, ok bool) {
	q := width / 4
	switch kind {
	case KindBitonic:
		switch child {
		case 2: // MERGER top: fed by even outs of B-top, odd outs of B-bottom.
			if childIn < q {
				return 0, 2 * childIn, true
			}
			return 1, 2*(childIn-q) + 1, true
		case 3: // MERGER bottom: odd outs of B-top, even outs of B-bottom.
			if childIn < q {
				return 0, 2*childIn + 1, true
			}
			return 1, 2 * (childIn - q), true
		case 4: // MIX top: even inputs from MERGER top, odd from MERGER bottom.
			if childIn%2 == 0 {
				return 2, childIn / 2, true
			}
			return 3, (childIn - 1) / 2, true
		case 5: // MIX bottom: lower halves of the mergers' outputs.
			if childIn%2 == 0 {
				return 2, q + childIn/2, true
			}
			return 3, q + (childIn-1)/2, true
		}
	case KindMerger:
		switch child {
		case 2:
			if childIn%2 == 0 {
				return 0, childIn / 2, true
			}
			return 1, (childIn - 1) / 2, true
		case 3:
			if childIn%2 == 0 {
				return 0, q + childIn/2, true
			}
			return 1, q + (childIn-1)/2, true
		}
	}
	return 0, 0, false
}

// OutputSource inverts ChildNext for parent outputs: it returns the child
// (and its output wire) that produces output wire out of a component of the
// given kind and width. Outputs are always produced by the exit children
// (the last two).
func OutputSource(kind Kind, width, out int) (child, childOut int) {
	h := width / 2
	deg := Degree(kind)
	if out < h {
		return deg - 2, out
	}
	return deg - 1, out - h
}

// ChildNextProse is the literal prose wiring of Section 2.1, which routes
// even outputs of both BITONIC children to the top merger. It differs from
// ChildNext only on the outputs of a BITONIC parent's bottom BITONIC child
// and is provided solely for the E17 erratum experiment: expanded to
// balancer granularity it violates the step property.
func ChildNextProse(kind Kind, width, child, out int) Dest {
	if kind == KindBitonic && child == 1 {
		q := width / 4
		if out%2 == 0 {
			return Dest{ToChild: true, Child: 2, ChildIn: q + out/2}
		}
		return Dest{ToChild: true, Child: 3, ChildIn: q + (out-1)/2}
	}
	return ChildNext(kind, width, child, out)
}

// ChildInputProse is the merger input map consistent with ChildNextProse
// (even wires of both halves to the top merger).
func ChildInputProse(kind Kind, width, in int) (child, childIn int) {
	if kind == KindMerger {
		h := width / 2
		q := width / 4
		j := in
		off := 0
		if in >= h {
			j = in - h
			off = q
		}
		if j%2 == 0 {
			return 0, off + j/2
		}
		return 1, off + (j-1)/2
	}
	return ChildInput(kind, width, in)
}

// SourceOf computes the inverse of the component-level wiring: for input
// wire in of the component at path p in T_w, it returns either the network
// input wire that feeds it (fromNetwork=true) or the sibling component and
// output wire it is connected to in the decomposition containing it.
//
// The returned source component is expressed at the coarsest level at which
// the connection appears; a caller resolving against a cut descends from it
// with OutputSource. The engines reconstruct inputs with InputCounts, which
// does both without allocating; SourceOf is the reference the tests compare
// it against.
func SourceOf(w int, p Path, in int) (src Component, srcOut int, fromNetwork bool, netIn int, err error) {
	cur, err := ComponentAt(w, p)
	if err != nil {
		return Component{}, 0, false, 0, err
	}
	wire := in
	for {
		parentPath, idx, ok := cur.Path.Parent()
		if !ok {
			// Root input wire: fed by the network input.
			return Component{}, 0, true, wire, nil
		}
		parent, perr := ComponentAt(w, parentPath)
		if perr != nil {
			return Component{}, 0, false, 0, perr
		}
		if pin, isEntry := InvChildInput(parent.Kind, parent.Width, idx, wire); isEntry {
			// This input comes from the parent's own input; keep climbing.
			cur, wire = parent, pin
			continue
		}
		// Otherwise it is fed by a sibling's output: invert ChildNext.
		sib, sibOut, hasSib := InvChildNext(parent.Kind, parent.Width, idx, wire)
		if !hasSib {
			return Component{}, 0, false, 0, fmt.Errorf("tree: no source found for %v input %d", cur, in)
		}
		sc, cerr := parent.Child(sib)
		if cerr != nil {
			return Component{}, 0, false, 0, cerr
		}
		return sc, sibOut, false, 0, nil
	}
}
