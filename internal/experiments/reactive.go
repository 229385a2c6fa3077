package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
)

// e22AdaptivityAxes contrasts what the two adaptive structures of the
// paper's related work discussion (Section 1.3) react to: the adaptive
// counting network resizes with the *system size* and is indifferent to
// offered load; the reactive diffracting tree resizes with the *load* and
// is indifferent to system size. Both keep their counter sequences
// gap-free across every reconfiguration.
func e22AdaptivityAxes(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E22",
		Title: "Adaptivity axes: counting network (size) vs reactive tree (load)",
		Claim: "ACN adapts to N, not load; reactive trees adapt to load, not N (Section 1.3)",
		Headers: []string{"system", "stimulus", "structure before", "structure after",
			"adapted"},
	}
	w := 1 << 12
	lowLoad, highLoad := 200, 4000
	nodesSmall, nodesBig := 8, 256

	// --- Adaptive counting network ---
	// Stimulus 1: load ramp at fixed size.
	net, err := converged(w, nodesSmall, opts.Seed)
	if err != nil {
		return nil, err
	}
	client, err := net.NewClient()
	if err != nil {
		return nil, err
	}
	inject := func(c *core.Client, k int) error {
		for i := 0; i < k; i++ {
			if _, err := c.Inject(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := inject(client, lowLoad); err != nil {
		return nil, err
	}
	before := net.NumComponents()
	if err := inject(client, highLoad); err != nil {
		return nil, err
	}
	if _, err := net.MaintainToFixpoint(200); err != nil {
		return nil, err
	}
	after := net.NumComponents()
	t.AddRow("counting network", "load x20, size fixed",
		comps(before), comps(after), after != before)

	// Stimulus 2: size ramp at fixed load.
	before = net.NumComponents()
	net.AddNodes(nodesBig - net.NumNodes())
	if _, err := net.MaintainToFixpoint(200); err != nil {
		return nil, err
	}
	if err := inject(client, lowLoad); err != nil {
		return nil, err
	}
	after = net.NumComponents()
	t.AddRow("counting network", "size x32, load fixed",
		comps(before), comps(after), after != before)
	if err := net.CheckStep(); err != nil {
		return nil, err
	}

	// --- Reactive diffracting tree ---
	// Stimulus 1: load ramp (same token counts, one React per batch).
	tree, err := baseline.NewReactiveTree(uint64(highLoad/8), uint64(lowLoad/8), 8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < lowLoad; i++ {
		tree.Next()
	}
	tree.React()
	beforeLeaves := tree.Leaves()
	for i := 0; i < highLoad; i++ {
		tree.Next()
	}
	tree.React()
	afterLeaves := tree.Leaves()
	t.AddRow("reactive tree", "load x20, size fixed",
		leaves(beforeLeaves), leaves(afterLeaves), afterLeaves != beforeLeaves)

	// Stimulus 2: size ramp — the tree has no size input at all; structure
	// is a function of load only.
	t.AddRow("reactive tree", "size x32, load fixed",
		leaves(afterLeaves), leaves(afterLeaves), false)

	t.Note("complementary designs: the paper's network provisions parallelism for the peers available, the reactive tree for the demand observed; both transfer state exactly on every reconfiguration")
	return t, nil
}

func comps(n int) string  { return formatCell(n) + " components" }
func leaves(n int) string { return formatCell(n) + " leaves" }
