package tree

import (
	"fmt"
	"testing"
)

func TestRootValidation(t *testing.T) {
	for _, w := range []int{0, 1, 3, 5, 12, -2} {
		if _, err := Root(w); err == nil {
			t.Errorf("Root(%d) accepted invalid width", w)
		}
	}
	r, err := Root(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != KindBitonic || r.Width != 8 || r.Path != "" {
		t.Fatalf("Root(8) = %+v", r)
	}
}

func TestKindString(t *testing.T) {
	if KindBitonic.String() != "B" || KindMerger.String() != "M" || KindMix.String() != "X" {
		t.Fatal("kind strings wrong")
	}
	if Kind(0).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestChildrenShape(t *testing.T) {
	root := MustRoot(8)
	kids := root.Children()
	if len(kids) != 6 {
		t.Fatalf("BITONIC has %d children, want 6", len(kids))
	}
	wantKinds := []Kind{KindBitonic, KindBitonic, KindMerger, KindMerger, KindMix, KindMix}
	for i, k := range kids {
		if k.Kind != wantKinds[i] {
			t.Errorf("child %d kind = %v, want %v", i, k.Kind, wantKinds[i])
		}
		if k.Width != 4 {
			t.Errorf("child %d width = %d, want 4", i, k.Width)
		}
		if k.Level() != 1 {
			t.Errorf("child %d level = %d, want 1", i, k.Level())
		}
	}
	merger := kids[2]
	mk := merger.Children()
	if len(mk) != 4 {
		t.Fatalf("MERGER has %d children, want 4", len(mk))
	}
	if mk[0].Kind != KindMerger || mk[2].Kind != KindMix {
		t.Fatalf("MERGER children kinds wrong: %v", mk)
	}
	mix := kids[4]
	xk := mix.Children()
	if len(xk) != 2 || xk[0].Kind != KindMix {
		t.Fatalf("MIX children wrong: %v", xk)
	}
}

func TestLeavesHaveNoChildren(t *testing.T) {
	leaf, err := ComponentAt(4, "0")
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.IsLeaf() || leaf.Children() != nil {
		t.Fatalf("width-2 component should be a leaf: %+v", leaf)
	}
	if _, err := leaf.Child(0); err == nil {
		t.Fatal("leaf.Child should error")
	}
}

func TestComponentAtAndParent(t *testing.T) {
	c, err := ComponentAt(16, "023")
	if err != nil {
		t.Fatal(err)
	}
	// Root B16 -> child0 B8 -> child2 M4 -> child3 X2.
	if c.Kind != KindMix || c.Width != 2 {
		t.Fatalf("ComponentAt(16, 023) = %v", c)
	}
	p, idx, ok := c.Parent(16)
	if !ok || idx != 3 || p.Kind != KindMerger || p.Width != 4 {
		t.Fatalf("Parent = %v idx=%d ok=%v", p, idx, ok)
	}
	if _, err := ComponentAt(16, "09"); err == nil {
		t.Fatal("invalid child index should error")
	}
	if _, err := ComponentAt(4, "00"); err == nil {
		t.Fatal("path below the leaves should error")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path("021")
	if p.Level() != 3 {
		t.Fatalf("level = %d", p.Level())
	}
	parent, idx, ok := p.Parent()
	if !ok || parent != "02" || idx != 1 {
		t.Fatalf("parent = %q idx=%d", parent, idx)
	}
	if _, _, ok := Path("").Parent(); ok {
		t.Fatal("root should have no parent")
	}
	if p.Child(4) != "0214" {
		t.Fatalf("child path = %q", p.Child(4))
	}
	if !Path("0").IsAncestorOf("021") {
		t.Fatal("0 is an ancestor of 021")
	}
	if Path("021").IsAncestorOf("021") {
		t.Fatal("a path is not its own strict ancestor")
	}
	if Path("1").IsAncestorOf("021") {
		t.Fatal("1 is not an ancestor of 021")
	}
}

func TestMaxLevel(t *testing.T) {
	tests := []struct{ w, want int }{{2, 0}, {4, 1}, {8, 2}, {1024, 9}}
	for _, tt := range tests {
		if got := MaxLevel(tt.w); got != tt.want {
			t.Errorf("MaxLevel(%d) = %d, want %d", tt.w, got, tt.want)
		}
	}
}

func TestPhiMatchesPaper(t *testing.T) {
	wants := []int64{1, 6, 24}
	for l, want := range wants {
		if got := Phi(l); got != want {
			t.Errorf("Phi(%d) = %d, want %d", l, got, want)
		}
	}
}

// TestPhiFact1 verifies Fact 1: 2*phi(k) <= phi(k+1) <= 6*phi(k).
func TestPhiFact1(t *testing.T) {
	for k := 0; k < 20; k++ {
		a, b := Phi(k), Phi(k+1)
		if b < 2*a || b > 6*a {
			t.Fatalf("Fact 1 violated at k=%d: phi=%d, phi+1=%d", k, a, b)
		}
	}
}

// TestPhiCountsTree cross-checks Phi against an explicit enumeration of T_w.
func TestPhiCountsTree(t *testing.T) {
	w := 64
	counts := make(map[int]int64)
	var walk func(c Component)
	walk = func(c Component) {
		counts[c.Level()]++
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(MustRoot(w))
	for l := 0; l <= MaxLevel(w); l++ {
		if counts[l] != Phi(l) {
			t.Errorf("level %d: enumerated %d components, Phi = %d", l, counts[l], Phi(l))
		}
	}
}

func TestSubtreeSizes(t *testing.T) {
	tests := []struct {
		kind Kind
		w    int
		want int64
	}{
		{KindMix, 2, 1}, {KindMix, 4, 3}, {KindMix, 8, 7},
		{KindMerger, 2, 1}, {KindMerger, 4, 5}, {KindMerger, 8, 17},
		{KindBitonic, 2, 1}, {KindBitonic, 4, 7}, {KindBitonic, 8, 31},
	}
	for _, tt := range tests {
		if got := SubtreeSize(tt.kind, tt.w); got != tt.want {
			t.Errorf("SubtreeSize(%v, %d) = %d, want %d", tt.kind, tt.w, got, tt.want)
		}
	}
}

// TestPreorderIndexIsPreorder checks that PreorderIndex agrees with an
// explicit pre-order traversal of T_w.
func TestPreorderIndexIsPreorder(t *testing.T) {
	w := 16
	var order []Component
	var walk func(c Component)
	walk = func(c Component) {
		order = append(order, c)
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(MustRoot(w))
	if int64(len(order)) != SubtreeSize(KindBitonic, w) {
		t.Fatalf("traversal size %d != subtree size %d", len(order), SubtreeSize(KindBitonic, w))
	}
	for want, c := range order {
		if got := c.PreorderIndex(w); got != int64(want) {
			t.Fatalf("PreorderIndex(%v) = %d, want %d", c, got, want)
		}
	}
}

// TestComponentWidthsArePowersOfTwo walks T_w and checks that ComponentAt
// resolves every path to a power-of-two width, which is what lets the
// component step reduce "mod width" to a mask.
func TestComponentWidthsArePowersOfTwo(t *testing.T) {
	for _, w := range []int{2, 4, 32, 256} {
		var walk func(c Component)
		walk = func(c Component) {
			got, err := ComponentAt(w, c.Path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Width < 2 || got.Width&(got.Width-1) != 0 {
				t.Fatalf("ComponentAt(%d, %q) has width %d", w, c.Path, got.Width)
			}
			for _, ch := range c.Children() {
				walk(ch)
			}
		}
		walk(MustRoot(w))
	}
}

func TestNamesAreUnique(t *testing.T) {
	w := 16
	seen := make(map[string]bool)
	var walk func(c Component)
	walk = func(c Component) {
		name := c.Name()
		if seen[name] {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = true
		for _, ch := range c.Children() {
			walk(ch)
		}
	}
	walk(MustRoot(w))
}

// TestNameFormat pins Name to the string its fmt-based predecessor built
// ("%s%d@%s" of kind, width, path), for every kind — the zero one included —
// over a spread of widths and paths.
func TestNameFormat(t *testing.T) {
	for _, k := range []Kind{0, KindBitonic, KindMerger, KindMix, 9} {
		for _, w := range []int{0, 2, 8, 64, 1024, 1 << 20, -4} {
			for _, p := range []Path{"", "0", "021", "5432105432"} {
				c := Component{Kind: k, Width: w, Path: p}
				if got, want := c.Name(), fmt.Sprintf("%s%d@%s", c.Kind, c.Width, c.Path); got != want {
					t.Errorf("Name() = %q, want %q", got, want)
				}
				if c.String() != c.Name() {
					t.Errorf("String() = %q, Name() = %q", c.String(), c.Name())
				}
			}
		}
	}
	if got := (Component{Kind: KindBitonic, Width: 16, Path: "021"}).Name(); got != "B16@021" {
		t.Errorf("Name() = %q, want the documented %q", got, "B16@021")
	}
}

func TestDegree(t *testing.T) {
	if Degree(KindBitonic) != 6 || Degree(KindMerger) != 4 || Degree(KindMix) != 2 {
		t.Fatal("degrees wrong")
	}
}

// TestUnknownKindsHaveNoChildren: the child-kind table is an array, and a
// Kind is a byte anyone can convert into; every accessor that reads the
// table answers "no children" for the 253 values that are not component
// kinds (as the map it replaced did), and never indexes past it.
func TestUnknownKindsHaveNoChildren(t *testing.T) {
	degree := map[Kind]int{KindBitonic: 6, KindMerger: 4, KindMix: 2}
	for v := 0; v <= 255; v++ {
		k := Kind(v)
		if got := Degree(k); got != degree[k] {
			t.Fatalf("Degree(%v) = %d, want %d", k, got, degree[k])
		}
		c := Component{Kind: k, Width: 8}
		if got := len(c.Children()); got != degree[k] {
			t.Fatalf("%v has %d children, want %d", c, got, degree[k])
		}
		for _, i := range []int{-1, 0, 1, 5, 6, 255} {
			_, err := c.Child(i)
			if ok := i >= 0 && i < degree[k]; ok != (err == nil) {
				t.Fatalf("%v.Child(%d): error %v", c, i, err)
			}
		}
		if got := SubtreeSize(k, 8); degree[k] == 0 && got != 1 {
			t.Fatalf("SubtreeSize(%v, 8) = %d for a kind without children", k, got)
		}
		// A path is bytes from outside too: only '0'..'5' can name a child.
		p := Path([]byte{byte(v)})
		_, err := ComponentAt(8, p)
		if ok := v >= '0' && v <= '5'; ok != (err == nil) {
			t.Fatalf("ComponentAt(8, %q): error %v", p, err)
		}
		if got := Path("01").Child(v); len(got) != 3 || got[:2] != "01" || got[2] != byte('0'+v) {
			t.Fatalf("Path.Child(%d) = %q", v, got)
		}
	}
}
