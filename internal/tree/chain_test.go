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
			if got, want := Path(MustRoot(w).InputLeaf(in, buf[:])), descend(MustRoot(w), in); got != want {
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

// TestOutRowMatchesOutChain: the row kernel answers, wire for wire, what a
// per-wire OutChain answers — the network exit wire, or the sibling
// OutChain's chain starts at and, below it, the balancer the wire reaches —
// for every component of T_w up to w = 64 (the members of every uniform
// cut) and the members of random cuts up to w = 256. Reaches holds exactly
// on each wire's chain, and NetInput agrees with SourceOf.
func TestOutRowMatchesOutChain(t *testing.T) {
	check := func(w int, c Component) {
		t.Helper()
		var ch Chain
		if err := ch.Resolve(w, c.Path); err != nil {
			t.Fatal(err)
		}
		row := ch.OutRow()
		if len(row.Next) != c.Width {
			t.Fatalf("%v: row of %d wires", c, len(row.Next))
		}
		for i, s := range row.Sibs {
			if want, err := ComponentAt(w, s.Path); err != nil || want != s {
				t.Fatalf("%v: sibling %d is %v, tree has %v (%v)", c, i, s, want, err)
			}
			for _, o := range row.Sibs[:i] {
				if o.Path == s.Path {
					t.Fatalf("%v: sibling %v listed twice", c, s)
				}
			}
		}
		var buf, lbuf [MaxPathLen]byte
		for out, h := range row.Next {
			leaf, top, exit, netOut := ch.OutChain(out, buf[:])
			if h.Exited() != exit || exit && int(h.Wire) != netOut {
				t.Fatalf("%v out %d: row %+v, OutChain exit=%v wire %d", c, out, h, exit, netOut)
			}
			if exit {
				continue
			}
			sib, in := row.Sibs[h.Comp], int(h.Wire)
			if sib.Path != Path(leaf[:top]) || string(sib.InputLeaf(in, lbuf[:])) != string(leaf) {
				t.Fatalf("%v out %d: row enters %v wire %d, OutChain %q top %d", c, out, sib, in, leaf, top)
			}
			if below := Path(leaf) + "0"; sib.Reaches(in, below) {
				t.Fatalf("%v out %d: Reaches(%q) below the balancer %q", c, out, below, leaf)
			}
			for k := 0; k <= len(leaf); k++ {
				if got := sib.Reaches(in, Path(leaf[:k])); got != (k >= top) {
					t.Fatalf("%v out %d: Reaches(%q) = %v on chain %q top %d", c, out, leaf[:k], got, leaf, top)
				}
				if k > top {
					off := Path(append(append([]byte(nil), leaf[:k-1]...), leaf[k-1]^1))
					if sib.Reaches(in, off) {
						t.Fatalf("%v out %d: Reaches(%q) off chain %q", c, out, off, leaf)
					}
				}
			}
		}
		for in := 0; in < c.Width; in++ {
			_, _, fromNet, netIn, err := SourceOf(w, c.Path, in)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := c.NetInput(in); ok != fromNet || ok && got != netIn {
				t.Fatalf("%v in %d: NetInput %d, %v; SourceOf %d, %v", c, in, got, ok, netIn, fromNet)
			}
		}
	}
	for w := 2; w <= 64; w *= 2 {
		for level := 0; level <= MaxLevel(w); level++ {
			cut, err := UniformCut(w, level)
			if err != nil {
				t.Fatal(err)
			}
			comps, err := cut.Components(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range comps {
				check(w, c)
			}
		}
	}
	for w := 128; w <= 256; w *= 2 {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			comps, err := RandomCut(w, 0.3+0.15*float64(seed), rng).Components(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range comps {
				check(w, c)
			}
		}
	}
}

// TestFeedersInvertRow holds the row's per-sibling inverse to the wiring,
// for every component of T_w up to w 256 and the members of random cuts
// up to w 1024: cross carries every input wire of every sibling back to
// the child and output wire that ChildNext sends to it, and Feeders of
// the sibling itself yields each wire the row sends into it once, and no
// other. (Feeders of the components below a sibling is held to Reaches in
// core's fill test.)
func TestFeedersInvertRow(t *testing.T) {
	check := func(w int, c Component) {
		t.Helper()
		var ch Chain
		if err := ch.Resolve(w, c.Path); err != nil {
			t.Fatal(err)
		}
		row := ch.OutRow()
		for sib, s := range row.Sibs {
			child := int(s.Path[len(s.Path)-1] - '0')
			for in := 0; in < s.Width; in++ {
				from, out, ok := row.cross(int32(sib), s, in)
				if d := ChildNext(row.kind, row.width, from, out+row.shift); !ok || d != (Dest{ToChild: true, Child: child, ChildIn: in}) {
					t.Fatalf("%v: input %d of %v comes from child %d output %d (%v), which leads to %+v",
						c, in, s, from, out+row.shift, ok, d)
				}
			}
			yielded := map[int]bool{}
			row.Feeders(int32(sib), s, func(o int) {
				if h := row.Next[o]; h.Comp != int32(sib) || yielded[o] {
					t.Fatalf("%v: Feeders of %v yields wire %d (again: %v), which enters %+v", c, s, o, yielded[o], h)
				}
				yielded[o] = true
			})
			into := 0
			for _, h := range row.Next {
				if h.Comp == int32(sib) {
					into++
				}
			}
			if len(yielded) != into {
				t.Fatalf("%v: Feeders of %v yields %d wires, %d enter it", c, s, len(yielded), into)
			}
		}
	}
	for w := 2; w <= 256; w *= 2 {
		for level := 0; level <= MaxLevel(w); level++ {
			cut, err := UniformCut(w, level)
			if err != nil {
				t.Fatal(err)
			}
			comps, err := cut.Components(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range comps {
				check(w, c)
			}
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		comps, err := RandomCut(1024, 0.3+0.15*float64(seed), rng).Components(1024)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range comps {
			check(1024, c)
		}
	}
}

func TestEntryLeavesMatchInputLeaf(t *testing.T) {
	var buf [MaxPathLen]byte
	for w := 2; w <= 1<<12; w *= 2 {
		leaves, depth, err := EntryLeaves(w)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaves) != w*depth {
			t.Fatalf("w=%d: %d bytes of leaves at depth %d", w, len(leaves), depth)
		}
		for in := 0; in < w; in++ {
			if got, want := leaves[in*depth:(in+1)*depth], string(MustRoot(w).InputLeaf(in, buf[:])); got != want {
				t.Fatalf("w=%d input %d: EntryLeaves %q, InputLeaf %q", w, in, got, want)
			}
		}
	}
	if _, _, err := EntryLeaves(12); err == nil {
		t.Fatal("EntryLeaves(12) did not fail")
	}
}
