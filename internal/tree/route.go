package tree

import "fmt"

// This file is the routing kernel over a cut: a compiler that resolves
// every wire of a cut once into flat integer tables (RouteTable), and
// Locate, the climb-or-descend resolution of a single position that a
// token needs when its position was written down against a different cut.
// All of it is pure: a cut in, forwarding decisions out.

// Locate resolves the cut member covering input wire wire of the component
// at path p, where live reports cut membership: p itself; a descendant
// when p has been split (descend through ChildInput); or an ancestor when
// p has been merged away (ascend through InvChildInput). The ascent exists
// only along entry children: a non-entry child's inputs come from its
// siblings, so a token addressed to one is in flight inside an assembly,
// which cannot merge before the token lands.
func Locate(w int, live func(Path) bool, p Path, wire int) (Component, int, error) {
	start, err := ComponentAt(w, p)
	if err != nil {
		return Component{}, 0, err
	}
	cur, in := start, wire
	for {
		if live(cur.Path) {
			return cur, in, nil
		}
		if cur.IsLeaf() {
			break
		}
		ci, cin := ChildInput(cur.Kind, cur.Width, in)
		if cur, err = cur.Child(ci); err != nil {
			return Component{}, 0, err
		}
		in = cin
	}
	cur, in = start, wire
	for {
		parent, idx, ok := cur.Parent(w)
		if !ok {
			return Component{}, 0, fmt.Errorf("tree: no cut member covers %q wire %d", p, wire)
		}
		pin, isEntry := InvChildInput(parent.Kind, parent.Width, idx, in)
		if !isEntry {
			return Component{}, 0, fmt.Errorf("tree: %q wire %d is fed by a sibling, not by a cut member above it", p, wire)
		}
		cur, in = parent, pin
		if live(cur.Path) {
			return cur, in, nil
		}
	}
}

// Hop is a compiled forwarding target: input wire Wire of the cut member
// with index Comp, or — when Comp is Exit — network output wire Wire.
type Hop struct{ Comp, Wire int32 }

// Exit is the Hop.Comp of a token that has left the network.
const Exit int32 = -1

// Exited reports whether the hop leaves the network.
func (h Hop) Exited() bool { return h.Comp == Exit }

// RouteTable is the routing of one cut of T_w, resolved ahead of time:
// where every network input wire enters the cut and where every output
// wire of every cut member leads, so stepping a token is an array lookup.
// Cut members are numbered in sorted path order, and that order is
// topological: every output wire of member i leaves the network or leads to
// a member j > i, so one ascending pass over the members steps a group of
// tokens through all of them (CompileRoutes refuses a table that breaks the
// order). A table is immutable and describes exactly the cut it was
// compiled from.
type RouteTable struct {
	w     int
	comps []Component
	index map[Path]int32
	entry []Hop   // by network input wire
	off   []int32 // off[i] is where component i's output wires start in next
	next  []Hop
}

// CompileRoutes resolves the routing of cut. It walks T_w from the root
// down to the cut once: a subtree reports where each of its input wires
// enters the cut and which member output wire drives each of its output
// wires, and every internal node joins its children's reports with
// ChildInput and ChildNext. The work is proportional to the wires above
// and at the cut, with no per-wire climb. A cut that leaves a wire
// uncovered, or has a member below another member, is an error, and so is
// a table whose member order is not topological.
func CompileRoutes(w int, cut Cut) (*RouteTable, error) {
	comps, err := cut.Components(w)
	if err != nil {
		return nil, err
	}
	t := &RouteTable{
		w:     w,
		comps: comps,
		index: make(map[Path]int32, len(comps)),
		off:   make([]int32, len(comps)),
	}
	wires := 0
	for i, c := range comps {
		t.index[c.Path] = int32(i)
		t.off[i] = int32(wires)
		wires += c.Width
	}
	t.next = make([]Hop, wires)

	// build resolves the subtree rooted at c: ins[k] is where c's input wire
	// k enters the cut, outs[k] the position in t.next of the member output
	// wire that drives c's output wire k.
	reached := 0
	var build func(c Component) (ins []Hop, outs []int32, err error)
	build = func(c Component) ([]Hop, []int32, error) {
		ins, outs := make([]Hop, c.Width), make([]int32, c.Width)
		if i, ok := t.index[c.Path]; ok {
			reached++
			for k := range ins {
				ins[k] = Hop{Comp: i, Wire: int32(k)}
				outs[k] = t.off[i] + int32(k)
			}
			return ins, outs, nil
		}
		if c.IsLeaf() {
			return nil, nil, fmt.Errorf("tree: no cut member covers %v", c)
		}
		children := c.Children()
		cins, couts := make([][]Hop, len(children)), make([][]int32, len(children))
		for i, child := range children {
			var err error
			if cins[i], couts[i], err = build(child); err != nil {
				return nil, nil, err
			}
		}
		for k := range ins {
			child, childIn := ChildInput(c.Kind, c.Width, k)
			ins[k] = cins[child][childIn]
		}
		for i := range children {
			for o, from := range couts[i] {
				if d := ChildNext(c.Kind, c.Width, i, o); d.ToChild {
					t.next[from] = cins[d.Child][d.ChildIn]
				} else {
					outs[d.ParentOut] = from
				}
			}
		}
		return ins, outs, nil
	}
	root, err := Root(w)
	if err != nil {
		return nil, err
	}
	entry, outs, err := build(root)
	if err != nil {
		return nil, err
	}
	if reached != len(comps) {
		return nil, fmt.Errorf("tree: %d of the cut's %d members lie below another member", len(comps)-reached, len(comps))
	}
	t.entry = entry
	for k, from := range outs {
		t.next[from] = Hop{Comp: Exit, Wire: int32(k)}
	}
	if err := t.checkOrder(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkOrder returns an error naming the first member output wire that
// leads to a member numbered at or below its own.
func (t *RouteTable) checkOrder() error {
	for i, c := range t.comps {
		for out, h := range t.next[t.off[i] : int(t.off[i])+c.Width] {
			if !h.Exited() && h.Comp <= int32(i) {
				return fmt.Errorf("tree: member %d %v output wire %d leads back to member %d %v", i, c, out, h.Comp, t.comps[h.Comp])
			}
		}
	}
	return nil
}

// Width returns the network width w.
func (t *RouteTable) Width() int { return t.w }

// Components returns the cut members in index order. The slice is shared;
// callers must not modify it.
func (t *RouteTable) Components() []Component { return t.comps }

// Index returns the index of the cut member at path p.
func (t *RouteTable) Index(p Path) (int32, bool) {
	i, ok := t.index[p]
	return i, ok
}

// Entry returns where network input wire in (0 <= in < w) enters the cut.
func (t *RouteTable) Entry(in int) Hop { return t.entry[in] }

// Next returns where a token leaving cut member comp on its output wire
// out (0 <= out < the member's width) goes.
func (t *RouteTable) Next(comp int32, out int) Hop { return t.next[int(t.off[comp])+out] }

// Locate is the package-level Locate against this table's cut: the
// re-entry path for a token whose position was written down against a
// different cut (it was stored by a frozen component, or its destination
// was replaced while it travelled).
func (t *RouteTable) Locate(p Path, wire int) (Hop, error) {
	if i, ok := t.index[p]; ok { // p is a member of this cut: nothing to walk
		return Hop{Comp: i, Wire: int32(wire)}, nil
	}
	live := func(q Path) bool { _, ok := t.index[q]; return ok }
	c, in, err := Locate(t.w, live, p, wire)
	if err != nil {
		return Hop{}, err
	}
	return Hop{Comp: t.index[c.Path], Wire: int32(in)}, nil
}
