package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// stepMember is a cut member with a token total: in quiescence it has
// emitted the step sequence of that total.
type stepMember struct {
	width int
	total uint64
}

func (m *stepMember) EmittedOn(out int) uint64 {
	n := m.total / uint64(m.width)
	if uint64(out) < m.total%uint64(m.width) {
		n++
	}
	return n
}

// referenceInputs is input reconstruction as the engines did it before
// InputCounts: SourceOf per wire, then a descent through OutputSource that
// builds every path it asks about.
func referenceInputs(w int, c Component, injected []uint64, members map[Path]*stepMember) ([]uint64, error) {
	inputs := make([]uint64, c.Width)
	for in := range inputs {
		src, out, fromNet, netIn, err := SourceOf(w, c.Path, in)
		if err != nil {
			return nil, err
		}
		if fromNet {
			inputs[in] = injected[netIn]
			continue
		}
		for {
			if m, ok := members[src.Path]; ok {
				inputs[in] = m.EmittedOn(out)
				break
			}
			if src.IsLeaf() {
				return nil, fmt.Errorf("tree: output %d of %v: %w", out, src, ErrNoProducer)
			}
			ci, co := OutputSource(src.Kind, src.Width, out)
			if src, err = src.Child(ci); err != nil {
				return nil, err
			}
			out = co
		}
	}
	return inputs, nil
}

// TestInputCountsMatchesSourceOf is the differential test that licenses
// taking SourceOf off the engines' paths: on random cuts of widths 8 to
// 256, for every member and every input wire, InputCounts answers what
// SourceOf plus the descent answers — and, with a member knocked out of the
// cut, fails on the same wire with the same error.
func TestInputCountsMatchesSourceOf(t *testing.T) {
	failures := 0
	for w := 8; w <= 256; w *= 2 {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
			cut := RandomCut(w, 0.35+0.05*float64(seed%8), rng)
			comps, err := cut.Components(w)
			if err != nil {
				t.Fatal(err)
			}
			members := make(map[Path]*stepMember, len(comps))
			for _, c := range comps {
				members[c.Path] = &stepMember{width: c.Width, total: uint64(rng.Intn(40 * c.Width))}
			}
			injected := make([]uint64, w)
			for i := range injected {
				injected[i] = uint64(rng.Intn(1000))
			}
			check := func(when string) {
				t.Helper()
				member := func(path []byte) Producer {
					if m, ok := members[Path(path)]; ok {
						return m
					}
					return nil
				}
				for _, c := range comps {
					want, wantErr := referenceInputs(w, c, injected, members)
					got := make([]uint64, c.Width)
					gotErr := InputCounts(w, c.Path, got, func(netIn int) uint64 { return injected[netIn] }, member)
					if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
						t.Fatalf("w=%d seed=%d %s: %v: InputCounts error %v, reference %v", w, seed, when, c, gotErr, wantErr)
					}
					if gotErr != nil {
						failures++
						if !errors.Is(gotErr, ErrNoProducer) {
							t.Fatalf("w=%d seed=%d %s: %v: error %v does not wrap ErrNoProducer", w, seed, when, c, gotErr)
						}
						continue
					}
					for in := range want {
						if got[in] != want[in] {
							t.Fatalf("w=%d seed=%d %s: %v input %d: InputCounts %d, reference %d", w, seed, when, c, in, got[in], want[in])
						}
					}
				}
			}
			check("whole cut")
			if len(comps) > 1 {
				delete(members, comps[rng.Intn(len(comps))].Path)
				check("one member lost")
			}
		}
	}
	if failures == 0 {
		t.Fatal("no reconstruction ever met a lost producer")
	}
}

// TestOutChainMatchesClimb: the chain walk of an output wire answers what
// the Component-by-Component climb and a ChildInput descent answer, for
// every member and wire of random cuts; InputLeaf is the same descent from
// the root.
func TestOutChainMatchesClimb(t *testing.T) {
	descend := func(c Component, wire int) Path {
		for !c.IsLeaf() {
			ci, cin := ChildInput(c.Kind, c.Width, wire)
			c, _ = c.Child(ci)
			wire = cin
		}
		return c.Path
	}
	for w := 8; w <= 256; w *= 4 {
		rng := rand.New(rand.NewSource(int64(w)))
		comps, err := RandomCut(w, 0.6, rng).Components(w)
		if err != nil {
			t.Fatal(err)
		}
		var buf [MaxPathLen]byte
		for _, c := range comps {
			var ch Chain
			if err := ch.Resolve(w, c.Path); err != nil {
				t.Fatal(err)
			}
			if got := ch.Component(); got != c {
				t.Fatalf("chain of %v resolved %v", c, got)
			}
			for out := 0; out < c.Width; out++ {
				target, in, exited, err := climb(w, c, out)
				if err != nil {
					t.Fatal(err)
				}
				leaf, top, exit, netOut := ch.OutChain(out, buf[:])
				if exit != exited || exit && netOut != in {
					t.Fatalf("%v out %d: OutChain exit=%v wire %d, climb exit=%v wire %d", c, out, exit, netOut, exited, in)
				}
				if exit {
					continue
				}
				if Path(leaf[:top]) != target.Path || Path(leaf) != descend(target, in) {
					t.Fatalf("%v out %d: OutChain %q top %d, climb reaches %v wire %d (leaf %q)",
						c, out, leaf, top, target, in, descend(target, in))
				}
			}
		}
		for in := 0; in < w; in++ {
			if got, want := Path(InputLeaf(w, in, buf[:])), descend(MustRoot(w), in); got != want {
				t.Fatalf("w=%d input %d: InputLeaf %q, descent %q", w, in, got, want)
			}
		}
	}
}

func TestChainResolveRejectsBadPaths(t *testing.T) {
	var ch Chain
	for _, c := range []struct {
		w int
		p Path
	}{{6, ""}, {8, "6"}, {8, "004"}, {8, "000"}, {8, "0a"}, {1 << 10, Path(make([]byte, MaxPathLen+1))}} {
		if err := ch.Resolve(c.w, c.p); err == nil {
			t.Errorf("Resolve(%d, %q) succeeded", c.w, c.p)
		}
	}
}

// TestInputCountsAllocatesPerCall pins the walker's cost model: whatever a
// reconstruction allocates, it allocates per call, not per wire or level.
func TestInputCountsAllocatesPerCall(t *testing.T) {
	const w = 1 << 10
	cut, err := UniformCut(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[Path]*stepMember, len(cut))
	for p := range cut {
		members[p] = &stepMember{width: w >> 3, total: 77}
	}
	inputs := make([]uint64, w>>3)
	for p := range cut {
		allocs := testing.AllocsPerRun(10, func() {
			err := InputCounts(w, p, inputs, func(int) uint64 { return 1 }, func(path []byte) Producer {
				if m, ok := members[Path(path)]; ok {
					return m
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		// The scratch path (it is handed to member) and the two closures.
		if allocs > 3 {
			t.Fatalf("InputCounts(%q) over %d wires allocates %.0f objects", p, len(inputs), allocs)
		}
	}
}
