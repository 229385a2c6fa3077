// Package tree implements the recursive decomposition tree T_w of the
// bitonic counting network (Section 2 of the paper).
//
// A component is a BITONIC[k], MERGER[k] or MIX[k] sub-network with k input
// and k output wires. BITONIC[w] is the root; a BITONIC[k] decomposes into
// two BITONIC[k/2], two MERGER[k/2] and two MIX[k/2] children; a MERGER[k]
// into two MERGER[k/2] and two MIX[k/2]; a MIX[k] into two MIX[k/2]. Width-2
// components of every kind are individual balancers and are the leaves.
//
// The package provides:
//
//   - component identity (Path: the child-index sequence from the root) and
//     the paper's pre-order naming,
//   - phi(l), the number of components at level l of T_w (Fact 1),
//   - cuts of T_w and their validation (Definition 2.1),
//   - the wire algebra connecting components: ChildInput maps a component
//     input wire to a child input, ChildNext maps a child output wire to
//     either a sibling input or a component output, and InvChildInput maps
//     an entry child's input back to the parent's input wire.
//
// Erratum implemented here (see DESIGN.md): the paper's prose sends even
// outputs of both BITONIC[k/2] children to the top merger; at balancer
// granularity that violates the step property. We use the AHS94 cross
// wiring the paper cites (even-of-top with odd-of-bottom), and expose the
// literal prose variant as ChildNextProse for the E17 regression experiment.
package tree

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the type of a component.
type Kind uint8

// Component kinds.
const (
	KindBitonic Kind = iota + 1
	KindMerger
	KindMix
)

func (k Kind) String() string {
	switch k {
	case KindBitonic:
		return "B"
	case KindMerger:
		return "M"
	case KindMix:
		return "X"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Child index conventions, fixed by the decomposition in Section 2.1.
// For a BITONIC parent: 0=BITONIC top, 1=BITONIC bottom, 2=MERGER top,
// 3=MERGER bottom, 4=MIX top, 5=MIX bottom. For a MERGER parent: 0=MERGER
// top, 1=MERGER bottom, 2=MIX top, 3=MIX bottom. For a MIX parent:
// 0=MIX top, 1=MIX bottom. In every case children 0 and 1 are the entry
// children: the parent's own input wires feed only them.

// childKindTable[kind] lists the kinds of the children of a component. It
// is indexed on every level of every climb and descent, so it is an array,
// read only through childKinds.
var childKindTable = [...][]Kind{
	KindBitonic: {KindBitonic, KindBitonic, KindMerger, KindMerger, KindMix, KindMix},
	KindMerger:  {KindMerger, KindMerger, KindMix, KindMix},
	KindMix:     {KindMix, KindMix},
}

// childKinds returns the kinds of the children of a component of kind k;
// a value that is not a component kind has no children.
func childKinds(k Kind) []Kind {
	if int(k) >= len(childKindTable) {
		return nil
	}
	return childKindTable[k]
}

// Degree returns the number of children of a component of the given kind
// (6 for BITONIC, 4 for MERGER, 2 for MIX).
func Degree(k Kind) int { return len(childKinds(k)) }

// Path identifies a component by the sequence of child indices from the
// root; the root's path is the empty string. Each index is one byte
// '0'..'5'.
type Path string

// Level returns the level (depth in T_w) of the component: the root is at
// level 0.
func (p Path) Level() int { return len(p) }

// Parent returns the parent path and the child index within it.
// The root has no parent.
func (p Path) Parent() (Path, int, bool) {
	if len(p) == 0 {
		return "", 0, false
	}
	return p[:len(p)-1], int(p[len(p)-1] - '0'), true
}

// Child returns the path of the i-th child.
func (p Path) Child(i int) Path {
	return p + Path([]byte{byte('0' + i)})
}

// IsAncestorOf reports whether p is a strict ancestor of q.
func (p Path) IsAncestorOf(q Path) bool {
	return len(p) < len(q) && strings.HasPrefix(string(q), string(p))
}

// Component is a node of T_w.
type Component struct {
	Kind  Kind
	Width int // number of input (= output) wires
	Path  Path
}

// Root returns the root component BITONIC[w]. Width must be a power of two
// and at least 2.
func Root(w int) (Component, error) {
	if w < 2 || w&(w-1) != 0 {
		return Component{}, fmt.Errorf("tree: width %d is not a power of two >= 2", w)
	}
	return Component{Kind: KindBitonic, Width: w}, nil
}

// MustRoot is Root for widths known to be valid; it panics otherwise.
func MustRoot(w int) Component {
	c, err := Root(w)
	if err != nil {
		panic(err)
	}
	return c
}

// Level returns the component's level in T_w.
func (c Component) Level() int { return c.Path.Level() }

// IsLeaf reports whether the component is an individual balancer.
func (c Component) IsLeaf() bool { return c.Width == 2 }

// Children returns the component's children in child-index order, or nil
// for a leaf.
func (c Component) Children() []Component {
	if c.IsLeaf() {
		return nil
	}
	kinds := childKinds(c.Kind)
	out := make([]Component, len(kinds))
	for i, k := range kinds {
		out[i] = Component{Kind: k, Width: c.Width / 2, Path: c.Path.Child(i)}
	}
	return out
}

// Child returns the i-th child of the component.
func (c Component) Child(i int) (Component, error) {
	kinds := childKinds(c.Kind)
	if c.IsLeaf() || i < 0 || i >= len(kinds) {
		return Component{}, fmt.Errorf("tree: %v has no child %d", c, i)
	}
	return Component{Kind: kinds[i], Width: c.Width / 2, Path: c.Path.Child(i)}, nil
}

// Parent returns the parent component and this component's child index.
func (c Component) Parent(rootWidth int) (Component, int, bool) {
	pp, idx, ok := c.Path.Parent()
	if !ok {
		return Component{}, 0, false
	}
	p, err := ComponentAt(rootWidth, pp)
	if err != nil {
		return Component{}, 0, false
	}
	return p, idx, true
}

// ComponentAt resolves the component at the given path in T_w. The
// component's path is p itself, so resolving allocates nothing.
func ComponentAt(w int, p Path) (Component, error) {
	var ch Chain
	if err := ch.Resolve(w, p); err != nil {
		return Component{}, err
	}
	return ch.Component(), nil
}

// Name returns the component's DHT name, e.g. "B16@021" for a BITONIC[16]
// at path "021" in T_w. Names are unique within a tree.
func (c Component) Name() string {
	var w [20]byte // called per component per membership operation: no fmt
	return c.Kind.String() + string(strconv.AppendInt(w[:0], int64(c.Width), 10)) + "@" + string(c.Path)
}

func (c Component) String() string { return c.Name() }

// MaxLevel returns the level of the leaves of T_w: log2(w) - 1.
func MaxLevel(w int) int {
	l := -1
	for v := w; v > 1; v >>= 1 {
		l++
	}
	return l
}

// Phi returns phi(l): the number of components at level l of T_w (for any
// w with MaxLevel(w) >= l). phi(0)=1, phi(1)=6, phi(2)=24, ...
func Phi(level int) int64 {
	// Track counts per kind per level. At level 0 there is one BITONIC.
	var b, m, x int64 = 1, 0, 0
	for l := 0; l < level; l++ {
		b, m, x = 2*b, 2*b+2*m, 2*b+2*m+2*x
	}
	return b + m + x
}

// SubtreeSize returns the number of components in the subtree of T_w rooted
// at a component of the given kind and width (used for pre-order naming).
func SubtreeSize(k Kind, width int) int64 {
	if width == 2 {
		return 1
	}
	var total int64 = 1
	for _, ck := range childKinds(k) {
		total += SubtreeSize(ck, width/2)
	}
	return total
}

// PreorderIndex returns the paper's name for a component: its position in a
// pre-order traversal of T_w (the root is 0).
func (c Component) PreorderIndex(rootWidth int) int64 {
	var idx int64
	cur := MustRoot(rootWidth)
	for _, b := range []byte(c.Path) {
		target := int(b - '0')
		idx++ // step into the children
		kinds := childKinds(cur.Kind)
		for i := 0; i < target; i++ {
			idx += SubtreeSize(kinds[i], cur.Width/2)
		}
		cur, _ = cur.Child(target)
	}
	return idx
}
