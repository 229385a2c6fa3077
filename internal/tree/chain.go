package tree

import (
	"errors"
	"fmt"
)

// The wire algebra's two walks out of a component — where an output wire
// leads (OutChain, and OutRow for all of them at once), what feeds an input
// wire (InputCounts) — without allocating per wire: the ancestor chain is
// resolved once, climbed with integers, and descended into a byte buffer
// that callers look up with m[Path(buf)], which Go compiles without a
// conversion.

// MaxPathLen bounds a component path: one byte per level, and levels are
// < 64 for any realizable width.
const MaxPathLen = 64

// Chain is the ancestor chain of one component of T_w, resolved once: the
// kind of the component at every prefix of its path (its width is w halved
// per level).
type Chain struct {
	w     int
	path  Path
	kinds [MaxPathLen + 1]Kind // kinds[l] is the kind of the component at path[:l]
}

// Resolve points the chain at the component at path p of T_w. (A width is
// an int, so the leaf check stops the walk before kinds could overflow.)
func (ch *Chain) Resolve(w int, p Path) error {
	root, err := Root(w)
	if err != nil {
		return err
	}
	ch.w, ch.path, ch.kinds[0] = w, p, root.Kind
	for i := 0; i < len(p); i++ {
		kinds, ci := childKinds(ch.kinds[i]), int(p[i]-'0')
		if w>>i == 2 || ci >= len(kinds) {
			c := Component{Kind: ch.kinds[i], Width: w >> i, Path: p[:i]}
			return fmt.Errorf("tree: invalid path %q: tree: %v has no child %d", p, c, ci)
		}
		ch.kinds[i+1] = kinds[ci]
	}
	return nil
}

// Component returns the component the chain was resolved for.
func (ch *Chain) Component() Component {
	l := len(ch.path)
	return Component{Kind: ch.kinds[l], Width: ch.w >> l, Path: ch.path}
}

// OutChain resolves where output wire out of the chain's component leads.
// Either the wire leaves the network (exit, on network output wire netOut),
// or it enters a sibling subtree of some ancestor: then leaf (built in buf)
// is the path of the input balancer the wire reaches, and the components
// that can receive it are leaf[:top] (the sibling), leaf[:top+1], ...,
// leaf, of which a cut holds exactly one. Input wires only ever feed entry
// children, which are of their parent's kind, so the descent is one kind.
func (ch *Chain) OutChain(out int, buf []byte) (leaf []byte, top int, exit bool, netOut int) {
	wire := out
	for l := len(ch.path); l > 0; l-- {
		d := ChildNext(ch.kinds[l-1], ch.w>>(l-1), int(ch.path[l-1]-'0'), wire)
		if !d.ToChild {
			wire = d.ParentOut
			continue
		}
		leaf = append(append(buf[:0], ch.path[:l-1]...), byte('0'+d.Child))
		kind := childKinds(ch.kinds[l-1])[d.Child]
		return descendInputs(leaf, kind, ch.w>>l, d.ChildIn), l, false, 0
	}
	return nil, 0, true, wire
}

// Row is where every output wire of one component leads (Chain.OutRow):
// Next[out] is input wire Wire of the sibling subtree Sibs[Comp] that the
// wire's climb enters, or, when Comp is Exit, network output wire Wire.
// A component's wires enter at most two siblings, so Sibs is short; which
// member of a cut below a sibling receives the wire is what
// Component.Reaches answers, one candidate at a time.
type Row struct {
	Sibs []Component
	Next []Hop
}

// OutRow resolves where every output wire of the chain's component leads,
// in one pass over its wires. Unlike OutChain it stops where a wire enters
// its sibling subtree and does not descend to the balancer the wire
// reaches: a caller with a cut member in mind checks it with Reaches, which
// descends only as deep as that member.
//
// The climb is found once, not per wire: a child hands either all of its
// output wires to its parent's outputs (the last two children, in order:
// ParentOut is the wire plus a constant) or all of them to siblings, so
// every wire leaves the same ancestor, shifted by the same amount.
func (ch *Chain) OutRow() Row {
	row := Row{Next: make([]Hop, ch.w>>len(ch.path))}
	l, shift := len(ch.path), 0
	for ; l > 0; l-- {
		d := ChildNext(ch.kinds[l-1], ch.w>>(l-1), int(ch.path[l-1]-'0'), 0)
		if d.ToChild {
			break
		}
		shift += d.ParentOut
	}
	if l == 0 {
		for out := range row.Next {
			row.Next[out] = Hop{Comp: Exit, Wire: int32(out + shift)}
		}
		return row
	}
	kind, width, idx := ch.kinds[l-1], ch.w>>(l-1), int(ch.path[l-1]-'0')
	var sibs [6]int32 // by child index, +1
	for out := range row.Next {
		d := ChildNext(kind, width, idx, out+shift)
		if sibs[d.Child] == 0 {
			row.Sibs = append(row.Sibs, Component{
				Kind:  childKinds(kind)[d.Child],
				Width: width / 2,
				Path:  ch.path[:l-1] + Path([]byte{byte('0' + d.Child)}),
			})
			sibs[d.Child] = int32(len(row.Sibs))
		}
		row.Next[out] = Hop{Comp: sibs[d.Child] - 1, Wire: int32(d.ChildIn)}
	}
	return row
}

// Reaches reports whether input wire in of c enters the component at path
// p: whether p is c itself or one of the entry descendants of c that the
// wire passes on its way down to a balancer. It descends only as deep as
// p.
func (c Component) Reaches(in int, p Path) bool {
	if len(p) < len(c.Path) || p[:len(c.Path)] != c.Path {
		return false
	}
	for i, width := len(c.Path), c.Width; i < len(p); i, width = i+1, width/2 {
		if width == 2 {
			return false
		}
		var ci int
		if ci, in = ChildInput(c.Kind, width, in); p[i] != byte('0'+ci) {
			return false
		}
	}
	return true
}

// InputLeaf returns (built in buf) the path of the balancer that input wire
// in of c reaches; its prefixes from c's path down can receive the wire.
func (c Component) InputLeaf(in int, buf []byte) []byte {
	return descendInputs(append(buf[:0], c.Path...), c.Kind, c.Width, in)
}

// NetInput returns the network input wire that feeds input wire in of c,
// or ok == false when c's inputs come from a sibling at some level. Only
// components whose every step from the root is an entry child (0 or 1) are
// fed by the network, and those are all BITONIC.
func (c Component) NetInput(in int) (netIn int, ok bool) {
	width := c.Width
	for l := len(c.Path); l > 0; l-- {
		width *= 2
		if in, ok = InvChildInput(KindBitonic, width, int(c.Path[l-1]-'0'), in); !ok {
			return 0, false
		}
	}
	return in, true
}

// descendInputs extends path, which names a component of the given kind
// and width, down to the balancer that the component's input wire reaches.
func descendInputs(path []byte, kind Kind, width, wire int) []byte {
	for ; width > 2; width /= 2 {
		var ci int
		ci, wire = ChildInput(kind, width, wire)
		path = append(path, byte('0'+ci))
	}
	return path
}

// ErrNoProducer is wrapped by InputCounts when an input wire's producer is
// missing from the cut (lost to a crash and not yet repaired).
var ErrNoProducer = errors.New("no live component produces the wire")

// Producer is a cut member as InputCounts reads it: EmittedOn is the number
// of tokens it has sent out of its output wire out so far.
type Producer interface{ EmittedOn(out int) uint64 }

// producer is a cut member found under one feeding sibling: it drives that
// sibling's output wires [lo, hi).
type producer struct {
	sib    int
	lo, hi int
	Producer
}

// InputCounts reconstructs the cumulative number of tokens that have
// entered each input wire of the component at path p of T_w, from the state
// of its in-neighbours in a cut: inputs[in] is injected(netIn) for a wire
// the network input netIn feeds, and otherwise what the cut member that
// drives the wire has emitted on it. member returns the cut member at path,
// or nil when there is none (path is scratch: valid only during the call).
// In a quiescent network this determines the internal state of p's
// decomposition exactly: what a split, a repair and an audit need.
//
// It is SourceOf plus the descent to the live producer for every wire, but
// the descent — the only part that consults the cut — is made once per
// producer, not per wire: a member under a feeding sibling drives a
// contiguous range of the sibling's outputs, and each level of the chain
// remembers the member last found under each of its two feeding siblings.
func InputCounts(w int, p Path, inputs []uint64, injected func(netIn int) uint64, member func(path []byte) Producer) error {
	var ch Chain
	if err := ch.Resolve(w, p); err != nil {
		return err
	}
	var (
		buf   [MaxPathLen]byte
		found [MaxPathLen + 1][2]producer // by level; a child's two feeders differ in their low bit
	)
wires:
	for in := range inputs {
		wire := in
		for l := len(p); l > 0; l-- {
			kind, width, idx := ch.kinds[l-1], w>>(l-1), int(p[l-1]-'0')
			if pin, isEntry := InvChildInput(kind, width, idx, wire); isEntry {
				wire = pin // fed by the parent's own input: keep climbing
				continue
			}
			// Fed by a sibling's output: invert ChildNext, then descend to
			// the cut member that produces that output.
			sib, out, ok := InvChildNext(kind, width, idx, wire)
			if !ok {
				return fmt.Errorf("tree: no source found for %v input %d", ch.Component(), in)
			}
			f := &found[l][sib&1]
			if f.Producer == nil || f.sib != sib || out < f.lo || out >= f.hi {
				src := append(append(buf[:0], p[:l-1]...), byte('0'+sib))
				kind, width = childKinds(kind)[sib], width/2
				*f = producer{sib: sib, hi: width}
				for f.Producer = member(src); f.Producer == nil; f.Producer = member(src) {
					if width == 2 {
						c := Component{Kind: kind, Width: width, Path: Path(src)}
						return fmt.Errorf("tree: output %d of %v: %w", out-f.lo, c, ErrNoProducer)
					}
					ci, co := OutputSource(kind, width, out-f.lo)
					kind, width = childKinds(kind)[ci], width/2
					f.lo, f.hi = out-co, out-co+width
					src = append(src, byte('0'+ci))
				}
			}
			inputs[in] = f.EmittedOn(out - f.lo)
			continue wires
		}
		inputs[in] = injected(wire)
	}
	return nil
}
