package cutnet

import (
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// TestUniformCutWidthDepth checks the exact structural values behind
// Lemmas 2.2 and 2.3: a uniform cut at level k has effective width 2^k and
// effective depth (k+1)(k+2)/2.
func TestUniformCutWidthDepth(t *testing.T) {
	for _, w := range []int{4, 8, 16, 32} {
		for k := 0; k <= tree.MaxLevel(w); k++ {
			cut, err := tree.UniformCut(w, k)
			if err != nil {
				t.Fatal(err)
			}
			n := mustNet(t, w, cut)
			ew, err := n.EffectiveWidth()
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 << k; ew != want {
				t.Errorf("w=%d level=%d: effective width = %d, want %d", w, k, ew, want)
			}
			ed, err := n.EffectiveDepth()
			if err != nil {
				t.Fatal(err)
			}
			if want := (k + 1) * (k + 2) / 2; ed != want {
				t.Errorf("w=%d level=%d: effective depth = %d, want %d", w, k, ed, want)
			}
		}
	}
}

// TestFigure3Cut reproduces Figure 3: splitting the root of T_8 and then
// the top BITONIC[4] child yields a network of effective width 2 and
// effective depth 5.
func TestFigure3Cut(t *testing.T) {
	cut := tree.Cut{
		"00": true, "01": true, "02": true, "03": true, "04": true, "05": true,
		"1": true, "2": true, "3": true, "4": true, "5": true,
	}
	n := mustNet(t, 8, cut)
	ew, err := n.EffectiveWidth()
	if err != nil {
		t.Fatal(err)
	}
	ed, err := n.EffectiveDepth()
	if err != nil {
		t.Fatal(err)
	}
	if ew != 2 || ed != 5 {
		t.Fatalf("figure 3 cut: width/depth = %d/%d, want 2/5", ew, ed)
	}
}

// TestDepthBoundRandomCuts checks Lemma 2.2 on random cuts: if every leaf
// of the cut is at level at most k, depth <= (k+1)(k+2)/2.
func TestDepthBoundRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		w := 8 << rng.Intn(3)
		cut := tree.RandomCut(w, rng.Float64(), rng)
		maxLevel := 0
		for _, l := range cut.Levels() {
			if l > maxLevel {
				maxLevel = l
			}
		}
		n := mustNet(t, w, cut)
		ed, err := n.EffectiveDepth()
		if err != nil {
			t.Fatal(err)
		}
		if bound := (maxLevel + 1) * (maxLevel + 2) / 2; ed > bound {
			t.Fatalf("w=%d maxLevel=%d: depth %d exceeds bound %d", w, maxLevel, ed, bound)
		}
	}
}

// TestWidthBoundRandomCuts checks Lemma 2.3 on random cuts: if every leaf
// of the cut is at level at least k, effective width >= 2^k.
func TestWidthBoundRandomCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		w := 8 << rng.Intn(3)
		cut := tree.RandomCut(w, rng.Float64(), rng)
		levels := cut.Levels()
		minLevel := levels[0]
		n := mustNet(t, w, cut)
		ew, err := n.EffectiveWidth()
		if err != nil {
			t.Fatal(err)
		}
		if bound := 1 << minLevel; ew < bound {
			t.Fatalf("w=%d minLevel=%d: width %d below bound %d", w, minLevel, ew, bound)
		}
	}
}

// TestSplitNeverDecreasesWidth mirrors the monotonicity argument in the
// proof of Lemma 2.3.
func TestSplitNeverDecreasesWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := 16
	n, err := NewRootOnly(w)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for {
		ew, err := n.EffectiveWidth()
		if err != nil {
			t.Fatal(err)
		}
		if ew < prev {
			t.Fatalf("effective width decreased after split: %d -> %d", prev, ew)
		}
		prev = ew
		var splittable []tree.Path
		for _, c := range n.Components() {
			if !c.IsLeaf() {
				splittable = append(splittable, c.Path)
			}
		}
		if len(splittable) == 0 {
			break
		}
		if err := n.Split(splittable[rng.Intn(len(splittable))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDAGShape sanity-checks the extracted DAG on a level-1 cut of T_8:
// 6 components, the two BITONIC[4]s are inputs, the two MIX[4]s are outputs.
func TestDAGShape(t *testing.T) {
	cut, err := tree.UniformCut(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tree.CompileRoutes(8, cut)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDAG(rt)
	if len(d.Comps) != 6 {
		t.Fatalf("comps = %d, want 6", len(d.Comps))
	}
	if len(d.Inputs) != 2 || len(d.Outputs) != 2 {
		t.Fatalf("inputs/outputs = %d/%d, want 2/2", len(d.Inputs), len(d.Outputs))
	}
	for _, i := range d.Inputs {
		if d.Comps[i].Kind != tree.KindBitonic {
			t.Fatalf("input component %v is not a BITONIC", d.Comps[i])
		}
	}
	for _, o := range d.Outputs {
		if d.Comps[o].Kind != tree.KindMix {
			t.Fatalf("output component %v is not a MIX", d.Comps[o])
		}
	}
	// Each BITONIC feeds both MERGERs, each MERGER feeds both MIXes: 8 edges.
	if len(d.Edges) != 8 {
		t.Fatalf("edges = %d, want 8", len(d.Edges))
	}
}
