package tree

import (
	"fmt"
	"math/rand"
	"testing"
)

func mustCompile(t *testing.T, w int, cut Cut) *RouteTable {
	t.Helper()
	if err := cut.Validate(w); err != nil {
		t.Fatal(err)
	}
	rt, err := CompileRoutes(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func cutOf(paths ...Path) Cut {
	cut := make(Cut, len(paths))
	for _, p := range paths {
		cut[p] = true
	}
	return cut
}

// hopAt names a hop by the path of its component ("exit" for a network
// output), so the cases below read like the wiring in Section 2.1.
func hopAt(rt *RouteTable, h Hop) string {
	if h.Exited() {
		return fmt.Sprintf("exit:%d", h.Wire)
	}
	return fmt.Sprintf("%s:%d", rt.Components()[h.Comp].Path, h.Wire)
}

// TestRouteTableCases checks compiled entries against wiring worked out by
// hand from ChildInput and ChildNext for BITONIC[8].
func TestRouteTableCases(t *testing.T) {
	level1 := cutOf("0", "1", "2", "3", "4", "5")
	// The top BITONIC[4] expanded to balancers, the rest at level 1.
	topSplit := cutOf("00", "01", "02", "03", "04", "05", "1", "2", "3", "4", "5")
	// The top MERGER[4] expanded: outputs of the BITONIC[4]s descend into it.
	mergerSplit := cutOf("0", "1", "20", "21", "22", "23", "3", "4", "5")

	entries := []struct {
		name string
		cut  Cut
		in   int
		want string
	}{
		{"root", RootCut(), 5, ":5"},
		{"level1 top half", level1, 2, "0:2"},
		{"level1 bottom half", level1, 5, "1:1"},
		{"descend two levels", topSplit, 0, "00:0"},
		{"descend two levels, bottom child", topSplit, 3, "01:1"},
	}
	for _, c := range entries {
		rt := mustCompile(t, 8, c.cut)
		if got := hopAt(rt, rt.Entry(c.in)); got != c.want {
			t.Errorf("%s: Entry(%d) = %s, want %s", c.name, c.in, got, c.want)
		}
	}

	nexts := []struct {
		name string
		cut  Cut
		from Path
		out  int
		want string
	}{
		{"root exits", RootCut(), "", 6, "exit:6"},
		{"B top even -> M top", level1, "0", 0, "2:0"},
		{"B top odd -> M bottom", level1, "0", 3, "3:1"},
		{"B bottom even -> M bottom (cross)", level1, "1", 0, "3:2"},
		{"B bottom odd -> M top (cross)", level1, "1", 1, "2:2"},
		{"M top upper outs -> X top evens", level1, "2", 1, "4:2"},
		{"M top lower outs -> X bottom evens", level1, "2", 3, "5:2"},
		{"M bottom -> X odds", level1, "3", 0, "4:1"},
		{"X top exits", level1, "4", 3, "exit:3"},
		{"X bottom exits", level1, "5", 0, "exit:4"},
		{"climb one level then cross", topSplit, "04", 0, "2:0"},
		{"climb one level, bottom mix", topSplit, "05", 1, "3:1"},
		{"inside the expanded B4", topSplit, "00", 1, "03:0"},
		{"descend into expanded merger, top half even", mergerSplit, "0", 0, "20:0"},
		{"descend into expanded merger, top half odd", mergerSplit, "0", 2, "21:0"},
		{"descend into expanded merger, bottom half even", mergerSplit, "1", 1, "21:1"},
		{"descend into expanded merger, bottom half odd", mergerSplit, "1", 3, "20:1"},
		{"expanded merger's mix climbs out", mergerSplit, "23", 1, "5:2"},
	}
	for _, c := range nexts {
		rt := mustCompile(t, 8, c.cut)
		from, ok := rt.Index(c.from)
		if !ok {
			t.Fatalf("%s: %q not in the cut", c.name, c.from)
		}
		if got := hopAt(rt, rt.Next(from, c.out)); got != c.want {
			t.Errorf("%s: Next(%q, %d) = %s, want %s", c.name, c.from, c.out, got, c.want)
		}
	}
}

// TestRouteTableLocate pins the straggler path: a position written against
// another cut descends after a split, ascends along entry children after a
// merge, and is an error where no cut member can be fed by it.
func TestRouteTableLocate(t *testing.T) {
	cases := []struct {
		name string
		cut  Cut
		p    Path
		wire int
		want string // "" = error
	}{
		{"exact", cutOf("0", "1", "2", "3", "4", "5"), "3", 2, "3:2"},
		{"descend after split", cutOf("0", "1", "2", "3", "4", "5"), "", 5, "1:1"},
		{"descend through a merger's cross", cutOf("0", "1", "20", "21", "22", "23", "3", "4", "5"), "2", 3, "20:1"},
		{"ascend after merge", RootCut(), "00", 1, ":1"},
		{"ascend from the bottom entry child", RootCut(), "1", 2, ":6"},
		{"non-entry child cannot ascend", RootCut(), "2", 0, ""},
		{"no such component", RootCut(), "7", 0, ""},
	}
	for _, c := range cases {
		rt := mustCompile(t, 8, c.cut)
		h, err := rt.Locate(c.p, c.wire)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s: Locate(%q, %d) = %s, want an error", c.name, c.p, c.wire, hopAt(rt, h))
		case c.want != "" && err != nil:
			t.Errorf("%s: Locate(%q, %d): %v", c.name, c.p, c.wire, err)
		case c.want != "" && hopAt(rt, h) != c.want:
			t.Errorf("%s: Locate(%q, %d) = %s, want %s", c.name, c.p, c.wire, hopAt(rt, h), c.want)
		}
	}
}

// climb is the first half of the climb-then-descend resolution the engines
// hand-wrote before they moved onto the table (core's cold path still
// climbs, through Chain): follow output wire out of c up the
// decomposition until it turns into a sibling subtree (target, in) or
// leaves the root (exited, in = network output wire). Locate is the second
// half. The compiler never climbs, which is what makes comparing it
// against this a differential test.
func climb(w int, c Component, out int) (target Component, in int, exited bool, err error) {
	node, wire := c, out
	for {
		parent, idx, ok := node.Parent(w)
		if !ok {
			return Component{}, wire, true, nil
		}
		d := ChildNext(parent.Kind, parent.Width, idx, wire)
		if !d.ToChild {
			node, wire = parent, d.ParentOut
			continue
		}
		target, err = parent.Child(d.Child)
		return target, d.ChildIn, false, err
	}
}

// TestRouteTableMatchesResolver is the differential test: on random cuts,
// every entry of the table — compiled top-down in one pass — equals what
// the climb-then-descend resolver answers for that wire when asked
// directly, and lands on a wire the target has.
func TestRouteTableMatchesResolver(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, w := range []int{8, 16, 64} {
		for _, pSplit := range []float64{0, 0.3, 0.6, 0.9, 1} {
			for rep := 0; rep < 4; rep++ {
				cut := RandomCut(w, pSplit, rng)
				rt := mustCompile(t, w, cut)
				live := func(p Path) bool { return cut[p] }
				check := func(what string, got Hop, c Component, in int) {
					t.Helper()
					if got.Exited() || rt.Components()[got.Comp] != c || int(got.Wire) != in {
						t.Fatalf("w=%d cut %v: %s = %s, resolver says %s:%d", w, cut.Paths(), what, hopAt(rt, got), c.Path, in)
					}
					if in < 0 || in >= c.Width {
						t.Fatalf("w=%d: %s lands on wire %d of %v", w, what, in, c)
					}
				}
				for in := 0; in < w; in++ {
					c, cin, err := Locate(w, live, "", in)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("Entry(%d)", in), rt.Entry(in), c, cin)
				}
				if len(rt.Components()) != len(cut) {
					t.Fatalf("w=%d: table has %d components, cut %d", w, len(rt.Components()), len(cut))
				}
				exits := make([]int, w)
				for i, c := range rt.Components() {
					if j, ok := rt.Index(c.Path); !ok || int(j) != i {
						t.Fatalf("Index(%q) = %d, %v, want %d", c.Path, j, ok, i)
					}
					for out := 0; out < c.Width; out++ {
						got := rt.Next(int32(i), out)
						target, in, exited, err := climb(w, c, out)
						if err != nil {
							t.Fatal(err)
						}
						if exited {
							if !got.Exited() || int(got.Wire) != in {
								t.Fatalf("w=%d: Next(%v, %d) = %s, resolver says exit:%d", w, c, out, hopAt(rt, got), in)
							}
							exits[in]++
							continue
						}
						dst, din, err := Locate(w, live, target.Path, in)
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("Next(%v, %d)", c, out), got, dst, din)
					}
				}
				for out, n := range exits {
					if n != 1 {
						t.Fatalf("w=%d cut %v: network output %d is driven by %d wires", w, cut.Paths(), out, n)
					}
				}
			}
		}
	}
}

func TestCompileRoutesRejectsInvalidCut(t *testing.T) {
	if _, err := CompileRoutes(8, cutOf("0", "2", "3", "4", "5")); err == nil {
		t.Fatal("a cut that leaves input wires 4..7 uncovered compiled")
	}
	if _, err := CompileRoutes(8, cutOf("0", "00", "1", "2", "3", "4", "5")); err == nil {
		t.Fatal("a cut with a member below another member compiled")
	}
	if _, err := CompileRoutes(8, cutOf("9")); err == nil {
		t.Fatal("a cut naming no component of T_8 compiled")
	}
}

// TestRouteOrderIsTopological holds the member numbering to what the
// one-pass handler chain relies on: every output wire of member i leaves
// the network or leads to a member above i. Every uniform cut up to w 1024,
// seeded random cuts at every width and the leaf cuts.
func TestRouteOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	check := func(w int, what string, cut Cut) {
		t.Helper()
		rt, err := CompileRoutes(w, cut)
		if err != nil {
			t.Fatalf("w=%d %s: %v", w, what, err)
		}
		for i, c := range rt.Components() {
			for out := 0; out < c.Width; out++ {
				if h := rt.Next(int32(i), out); !h.Exited() && h.Comp <= int32(i) {
					t.Fatalf("w=%d %s: member %d %v output %d leads to member %d", w, what, i, c.Path, out, h.Comp)
				}
			}
		}
	}
	randomCuts := 200
	if testing.Short() {
		randomCuts = 20
	}
	for w := 2; w <= 1024; w *= 2 {
		for level := 0; level <= MaxLevel(w); level++ {
			cut, err := UniformCut(w, level)
			if err != nil {
				t.Fatal(err)
			}
			check(w, fmt.Sprintf("level %d", level), cut)
		}
		for k := 0; k < randomCuts; k++ {
			check(w, fmt.Sprintf("random cut %d", k), RandomCut(w, rng.Float64(), rng))
		}
		check(w, "leaf cut", LeafCut(w))
	}
}

// TestCompileRoutesRefusesBackwardHop breaks the order in a compiled table
// and requires the check CompileRoutes ends with to refuse it.
func TestCompileRoutesRefusesBackwardHop(t *testing.T) {
	cut, err := UniformCut(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := mustCompile(t, 8, cut)
	if err := rt.checkOrder(); err != nil {
		t.Fatalf("a compiled table fails its own order check: %v", err)
	}
	for i := range rt.Components() {
		for out := 0; out < rt.Components()[i].Width; out++ {
			k := int(rt.off[i]) + out
			if h := rt.next[k]; h.Exited() {
				continue
			}
			saved := rt.next[k]
			rt.next[k] = Hop{Comp: int32(i), Wire: 0} // back into itself
			if err := rt.checkOrder(); err == nil {
				t.Fatalf("member %d output %d looping back passes the order check", i, out)
			}
			rt.next[k] = Hop{Comp: 0, Wire: saved.Wire}
			if err := rt.checkOrder(); err == nil {
				t.Fatalf("member %d output %d led back to member 0 passes the order check", i, out)
			}
			rt.next[k] = saved
		}
	}
}
