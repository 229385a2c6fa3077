package core

import "testing"

// TestSetupBudget: building a fresh w 4096, 128-node network and
// converging it reconstructs no input counts — no token and no fault has
// entered it, so every split is of all-zero state — and stays under an
// object budget (before pristine splits and one-string entry leaves it
// allocated over 10 000).
func TestSetupBudget(t *testing.T) {
	const w, nodes, budget = 1 << 12, 128, 5000
	setup := func(seed int64) *Network {
		n := mustNew(t, Config{Width: w, Seed: seed, InitialNodes: nodes})
		if _, err := n.MaintainToFixpoint(200); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := setup(1)
	if m := n.Metrics(); m.Splits == 0 || n.reconstructions.Load() != 0 {
		t.Fatalf("%d splits reconstructed input counts %d times", m.Splits, n.reconstructions.Load())
	}
	seed := int64(1)
	if allocs := testing.AllocsPerRun(3, func() { seed++; setup(seed) }); allocs > budget {
		t.Fatalf("New and MaintainToFixpoint allocate %.0f objects, budget %d", allocs, budget)
	}

	// Once a token has entered, a split reconstructs again.
	injectSeq(t, mustClient(t, n), 0, 1)
	n.AddNodes(nodes)
	if _, err := n.MaintainToFixpoint(200); err != nil {
		t.Fatal(err)
	}
	if n.reconstructions.Load() == 0 {
		t.Fatal("splits after a token reconstructed no input counts")
	}
}

// TestFaultOnFreshNetwork: a fault injected before any token, or a token
// lost mid-route, keeps every split and audit on the reconstructing path,
// and each fails as it does without the pristine shortcut (the errors are
// pinned as the reconstruction reports them). In the last two failing
// cases the split that fails is of a component whose own total is zero:
// only its in-neighbour holds the fault or the lost token.
func TestFaultOnFreshNetwork(t *testing.T) {
	fresh := func() *Network { return mustNew(t, Config{Width: 64, Seed: 5, InitialNodes: 16}) }

	n := fresh()
	if err := n.InjectFault("", 3); err != nil {
		t.Fatal(err)
	}
	_, err := n.MaintainToFixpoint(100)
	if want := "core: split: B64@ in-neighbor counts 0 != processed 3"; err == nil || err.Error() != want {
		t.Fatalf("split of the faulted root: %v, want %q", err, want)
	}

	n = fresh()
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault("00", 3); err != nil {
		t.Fatal(err)
	}
	if bad, err := n.Audit(false); bad != 3 || err != nil {
		t.Fatalf("audit after a fault: %d inconsistencies (%v), want 3", bad, err)
	}
	n.AddNodes(200)
	_, err = n.MaintainToFixpoint(100)
	if want := "core: split: M16@03 in-neighbor counts 1 != processed 0"; err == nil || err.Error() != want {
		t.Fatalf("split downstream of a fault: %v, want %q", err, want)
	}

	// A token lost mid-route (a lookup on a faulty fabric failed after its
	// entry component stepped it): no fault was injected, but the injection
	// counter has moved, so the split of the zero-total component the token
	// never reached still checks, and fails.
	n = fresh()
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	n.injected[0].Add(1)
	coveringInput(n, 0).st.TryStep()
	n.AddNodes(200)
	_, err = n.MaintainToFixpoint(100)
	if want := "core: split: M16@02 in-neighbor counts 1 != processed 0"; err == nil || err.Error() != want {
		t.Fatalf("split downstream of a lost token: %v, want %q", err, want)
	}

	n = fresh()
	if err := n.InjectFault("", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(100); err != nil || n.reconstructions.Load() == 0 {
		t.Fatalf("a fault that leaves the state consistent: %v, %d reconstructions", err, n.reconstructions.Load())
	}
}

// coveringInput returns the live component network input wire netIn
// enters.
func coveringInput(n *Network, netIn int) *liveComp {
	for _, lc := range n.comps {
		for j := range lc.st.Comp.Width {
			if in, ok := lc.st.Comp.NetInput(j); ok && in == netIn {
				return lc
			}
		}
	}
	return nil
}
