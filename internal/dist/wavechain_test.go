package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// waveChain is the handler chain as it was before the one-pass chain: the
// tokens still moving are sorted by the component they stand at, each such
// component gets one visit per wave, and the waves repeat until no token
// moves. It is kept here as the oracle groupChain is held to.
func (cl *Cluster) waveChain(s *chainScratch, res *wire.GroupArriveRes) {
	outs, stepped := res.Outs, res.Steps
	if cl.place != nil && stepped > 0 {
		tp := cl.topo.Load()
		var g groupSort
		g.reset(len(outs))
		for v := range s.visits {
			vis := &s.visits[v]
			ci, ok := tp.rt.Index(vis.cm.c.Path)
			if vis.st != wire.StatusProcessed || !ok || tp.live[ci] != vis.cm {
				continue
			}
			vis.ci = ci
			for i := vis.lo; i < vis.hi; i++ {
				if g.pos[i] = tp.rt.Next(ci, outs[i]); !g.pos[i].Exited() {
					g.active = append(g.active, i)
				}
			}
		}
		for len(g.active) > 0 {
			g.tally(len(tp.live))
			order := g.place()
			g.active = g.active[:0]
			var lo int32
			for _, ci := range g.touched {
				visit := order[lo:g.count[ci]]
				lo, g.count[ci] = g.count[ci], 0
				next := tp.live[ci]
				if cl.place.Site(next.addr) != "" {
					continue
				}
				next.mu.Lock()
				frozen := next.frozen
				if !frozen {
					for _, i := range visit {
						g.pos[i].Wire = int32(next.routeLocked(int(g.pos[i].Wire)))
					}
				}
				next.mu.Unlock()
				if frozen {
					continue
				}
				res.Steps += len(visit)
				for _, i := range visit {
					if g.pos[i] = tp.rt.Next(ci, int(g.pos[i].Wire)); !g.pos[i].Exited() {
						g.active = append(g.active, i)
					}
				}
			}
		}
		g.touched = g.touched[:0]
		for v := range s.visits {
			vis := &s.visits[v]
			if vis.ci < 0 || res.Steps == stepped {
				continue
			}
			vis.st = wire.StatusExited
			for i := vis.lo; i < vis.hi; i++ {
				at := g.pos[i]
				if at.Exited() {
					outs[i] = int(at.Wire)
					continue
				}
				stop := slices.Index(g.touched, at.Comp)
				if stop < 0 {
					stop, g.touched = len(g.touched), append(g.touched, at.Comp)
					res.Paths = append(res.Paths, string(tp.live[at.Comp].c.Path))
				}
				outs[i] = -1 - stop
				res.Wires = append(res.Wires, int(at.Wire))
			}
		}
	}
	res.Status = s.visits[0].st
	mixed := false
	for _, vis := range s.visits[1:] {
		mixed = mixed || vis.st != res.Status
	}
	switch {
	case mixed:
		res.Status, res.Visits = wire.StatusExited, make([]wire.Status, len(s.visits))
		for v, vis := range s.visits {
			res.Visits[v] = vis.st
		}
		if outs == nil {
			res.Outs = make([]int, s.visits[len(s.visits)-1].hi)
		}
	case res.Status != wire.StatusExited:
		res.Steps = 0
	}
}

// sites is a Placer that puts the listed addresses on another fabric and
// everything else on this one.
type sites map[transport.Addr]bool

func (s sites) Site(a transport.Addr) string {
	if s[a] {
		return "elsewhere"
	}
	return ""
}

// replyOutcome is what a group arrive reply says became of its tokens, as a
// sorted list: per visit status, and for each stepped token its component's
// output wire or its network output wire (forwardedPositions has the rest).
// Which token of a component's group took which output wire depends on the
// order the chain stepped them in, so the tokens are compared as a multiset.
func replyOutcome(res wire.GroupArriveRes, visits []served) []string {
	var out []string
	for v, vis := range visits {
		st := res.Status
		if res.Visits != nil {
			st = res.Visits[v]
		}
		out = append(out, fmt.Sprintf("visit %d: status %d", v, st))
		if st == wire.StatusDead {
			continue
		}
		for i := vis.lo; i < vis.hi; i++ {
			switch o := res.Outs[i]; {
			case st == wire.StatusProcessed:
				out = append(out, fmt.Sprintf("visit %d: left on %d", v, o))
			case o >= 0:
				out = append(out, fmt.Sprintf("exit %d", o))
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestOnePassChainMatchesWaveChain holds groupChain to the wave chain it
// replaced: over random cuts and random groups, with frozen members and a
// Placer that puts some members on another fabric, both leave every
// component with the same per-input-wire counts and give the same Steps,
// the same per-visit statuses, and the same output wires, network exits and
// forwarded positions (as multisets).
func TestOnePassChainMatchesWaveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	var seen struct{ chained, forwarded, mixed int }
	cases := 120
	if testing.Short() {
		cases = 30
	}
	for c := 0; c < cases; c++ {
		w := 4 << rng.Intn(5) // 4 .. 64
		cut := tree.RandomCut(w, rng.Float64(), rng)
		var cls [2]*Cluster
		for k := range cls {
			cl, err := New(w, cut)
			if err != nil {
				t.Fatal(err)
			}
			cls[k] = cl
		}
		live := [2][]*comp{cls[0].topo.Load().live, cls[1].topo.Load().live}
		elsewhere := [2]sites{{}, {}}
		var here []int // the members this fabric serves
		for i := range live[0] {
			switch r := rng.Intn(8); {
			case r == 0:
				for k := range cls {
					elsewhere[k][live[k][i].addr] = true
				}
			case r == 1:
				for k := range cls {
					live[k][i].frozen = true
				}
				here = append(here, i)
			default:
				here = append(here, i)
			}
		}
		for k := range cls {
			cls[k].place = elsewhere[k]
		}
		if len(here) == 0 {
			continue
		}
		for group := 0; group < 8; group++ {
			// Up to four distinct members served here, each with a few
			// tokens on random input wires.
			visits := slices.Clone(here)
			rng.Shuffle(len(visits), func(i, j int) { visits[i], visits[j] = visits[j], visits[i] })
			visits = visits[:1+rng.Intn(min(4, len(visits)))]
			var wires, sizes []int
			for _, i := range visits {
				n := 1 + rng.Intn(6)
				sizes = append(sizes, n)
				for ; n > 0; n-- {
					wires = append(wires, rng.Intn(live[0][i].c.Width))
				}
			}
			var got [2]wire.GroupArriveRes
			var served [2][]served
			for k, cl := range cls {
				ga := wire.GroupArrive{Wires: wires}
				for v, i := range visits[1:] {
					ga.Visits = append(ga.Visits, wire.Visit{Addr: string(live[k][i].addr), Tokens: sizes[v+1]})
				}
				s := new(chainScratch)
				var checked wire.GroupArrive
				if err := cl.checkGroup(s, live[k][visits[0]], ga, &checked); err != nil {
					t.Fatal(err)
				}
				res := serveVisits(s, checked.Wires)
				if k == 0 {
					cl.groupChain(s, &res)
				} else {
					cl.waveChain(s, &res)
				}
				got[k], served[k] = res, s.visits
			}
			what := fmt.Sprintf("case %d (w %d, cut %v) group %d", c, w, cut.Paths(), group)
			if got[0].Status != got[1].Status || got[0].Steps != got[1].Steps || !slices.Equal(got[0].Visits, got[1].Visits) {
				t.Fatalf("%s: one pass status %d steps %d visits %v, waves %d %d %v", what,
					got[0].Status, got[0].Steps, got[0].Visits, got[1].Status, got[1].Steps, got[1].Visits)
			}
			for v := range served[0] {
				if served[0][v].st != served[1][v].st {
					t.Fatalf("%s: visit %d ended %d in one pass, %d in waves", what, v, served[0][v].st, served[1][v].st)
				}
			}
			if a, b := replyOutcome(got[0], served[0]), replyOutcome(got[1], served[1]); !slices.Equal(a, b) {
				t.Fatalf("%s: one pass\n%v\nwaves\n%v", what, a, b)
			}
			if a, b := forwardedPositions(got[0]), forwardedPositions(got[1]); !slices.Equal(a, b) {
				t.Fatalf("%s: forwarded one pass %v, waves %v", what, a, b)
			}
			for i := range live[0] {
				a, b := live[0][i], live[1][i]
				if a.total != b.total || !slices.Equal(a.arrived, b.arrived) {
					t.Fatalf("%s: %v arrived %v (total %d) in one pass, %v (%d) in waves", what, a.c, a.arrived, a.total, b.arrived, b.total)
				}
			}
			if got[0].Steps > len(wires) {
				seen.chained++
			}
			if len(got[0].Wires) > 0 {
				seen.forwarded++
			}
			if got[0].Visits != nil {
				seen.mixed++
			}
		}
	}
	t.Logf("groups chained on %d, forwarding %d, with mixed visits %d", seen.chained, seen.forwarded, seen.mixed)
	if seen.chained == 0 || seen.forwarded == 0 || seen.mixed == 0 {
		t.Fatalf("the groups never exercised part of the chain: %+v", seen)
	}
}

// forwardedPositions pairs each forwarded token's component with its input
// wire, sorted: both are in token order in the reply.
func forwardedPositions(res wire.GroupArriveRes) []string {
	if res.Status != wire.StatusExited {
		return nil
	}
	var out []string
	k := 0
	for _, o := range res.Outs {
		if o < 0 && k < len(res.Wires) {
			out = append(out, fmt.Sprintf("%s:%d", res.Paths[-1-o], res.Wires[k]))
			k++
		}
	}
	slices.Sort(out)
	return out
}
