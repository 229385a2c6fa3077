package tree_test

import (
	"math/rand"
	"testing"

	"repro/internal/cutnet"
	"repro/internal/tree"
)

// TestRouteTableMatchesCutnet checks the compiled table against an engine
// that does not use it: cutnet resolves every hop with its own copy of the
// climb-then-descend walk. The same tokens through both — the table
// stepped with one round-robin counter per component, which is all a
// component is — must take the same number of hops to the same outputs,
// and the table's edges must be the component graph cutnet extracts.
func TestRouteTableMatchesCutnet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []int{8, 16, 64} {
		for rep := 0; rep < 6; rep++ {
			cut := tree.RandomCut(w, 0.2+0.15*float64(rep), rng)
			rt, err := tree.CompileRoutes(w, cut)
			if err != nil {
				t.Fatal(err)
			}
			net, err := cutnet.New(w, cut)
			if err != nil {
				t.Fatal(err)
			}
			comps := rt.Components()
			totals := make([]int, len(comps))
			for tok := 0; tok < 4*w; tok++ {
				in := rng.Intn(w)
				want, wantHops, err := net.InjectTrace(in)
				if err != nil {
					t.Fatal(err)
				}
				at, hops := rt.Entry(in), 0
				for !at.Exited() {
					out := totals[at.Comp] % comps[at.Comp].Width
					totals[at.Comp]++
					at = rt.Next(at.Comp, out)
					hops++
				}
				if int(at.Wire) != want || hops != wantHops {
					t.Fatalf("w=%d cut %v token %d on wire %d: table exits on %d after %d hops, cutnet on %d after %d",
						w, cut.Paths(), tok, in, at.Wire, hops, want, wantHops)
				}
			}

			dag, err := net.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			edges := make(map[[2]int]bool)
			for i, c := range comps {
				if dag.Comps[i] != c {
					t.Fatalf("component %d: table %v, cutnet %v", i, c, dag.Comps[i])
				}
				for out := 0; out < c.Width; out++ {
					if h := rt.Next(int32(i), out); !h.Exited() {
						edges[[2]int{i, int(h.Comp)}] = true
					}
				}
			}
			if len(edges) != len(dag.Edges) {
				t.Fatalf("w=%d cut %v: table has %d edges, cutnet %d", w, cut.Paths(), len(edges), len(dag.Edges))
			}
			for _, e := range dag.Edges {
				if !edges[e] {
					t.Fatalf("w=%d cut %v: cutnet edge %v missing from the table", w, cut.Paths(), e)
				}
			}
		}
	}
}
