package cutnet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cutnet"
	"repro/internal/dist"
	"repro/internal/tree"
)

// engine is one counting-network engine under the differential: inject
// sends a token in on a wire and reports the wire it leaves on and the
// number of components it passed.
type engine struct {
	name   string
	inject func(in int) (out, hops int, err error)
}

func cutnetEngine(t *testing.T, w int, cut tree.Cut) engine {
	t.Helper()
	n, err := cutnet.New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	return engine{"cutnet", n.InjectTrace}
}

// distEngine runs dist over its default in-memory fabric and reads a
// token's hop count off its batch span: one group event per RPC, valued
// with the components that RPC stepped.
func distEngine(t *testing.T, w int, cut tree.Cut) engine {
	t.Helper()
	cl, err := dist.New(w, cut, dist.WithTrace(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	return engine{"dist", func(in int) (int, int, error) {
		out, err := cl.Inject(in)
		if err != nil {
			return 0, 0, err
		}
		spans := cl.Tracer().Spans()
		span := spans[len(spans)-1] // a token's span finishes after its RPCs'
		if span.Name != "batch" {
			return 0, 0, fmt.Errorf("newest span is %q, not the token's", span.Name)
		}
		hops := 0
		for _, e := range span.Events {
			if e.Kind == "group" {
				hops += int(e.V)
			}
		}
		return out, hops, nil
	}}
}

// agree feeds ins one token at a time to every engine and fails on the
// first token they route differently.
func agree(t *testing.T, label string, ins []int, engines ...engine) {
	t.Helper()
	for tok, in := range ins {
		var wantOut, wantHops int
		for i, e := range engines {
			out, hops, err := e.inject(in)
			if err != nil {
				t.Fatalf("%s: %s token %d: %v", label, e.name, tok, err)
			}
			if i == 0 {
				wantOut, wantHops = out, hops
			} else if out != wantOut || hops != wantHops {
				t.Fatalf("%s: token %d on wire %d: %s exits on %d after %d components, %s on %d after %d",
					label, tok, in, engines[0].name, wantOut, wantHops, e.name, out, hops)
			}
		}
	}
}

func arrivals(rng *rand.Rand, w, n int) []int {
	ins := make([]int, n)
	for i := range ins {
		ins[i] = rng.Intn(w)
	}
	return ins
}

// TestEnginesAgree is the cross-engine differential over the one routing
// kernel. core converges to the cut its maintenance rules pick for N nodes
// and routes over its Chord overlay; cutnet and dist, built on that cut,
// step tokens through its tree.RouteTable. One seeded arrival sequence
// must leave every engine on the same wire after the same number of
// components, token by token. Random cuts of T_w then pit cutnet against
// dist.
func TestEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ w, nodes int }{{16, 16}, {64, 200}, {256, 600}} {
		net, err := core.New(core.Config{Width: tc.w, Seed: 3, InitialNodes: tc.nodes})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.MaintainToFixpoint(200); err != nil {
			t.Fatal(err)
		}
		client, err := net.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		cut := net.Cut()
		coreEngine := engine{"core", func(in int) (int, int, error) {
			tr, err := client.InjectAt(in)
			return tr.OutWire, tr.WireHops, err
		}}
		label := fmt.Sprintf("w=%d N=%d (%d components)", tc.w, tc.nodes, len(cut))
		agree(t, label, arrivals(rng, tc.w, 4*tc.w),
			coreEngine, cutnetEngine(t, tc.w, cut), distEngine(t, tc.w, cut))
	}
	for _, w := range []int{8, 16, 64} {
		for rep := 0; rep < 6; rep++ {
			cut := tree.RandomCut(w, 0.2+0.15*float64(rep), rng)
			label := fmt.Sprintf("w=%d cut %v", w, cut.Paths())
			agree(t, label, arrivals(rng, w, 4*w), cutnetEngine(t, w, cut), distEngine(t, w, cut))
		}
	}
}
