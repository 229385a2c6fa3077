package dist

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// A group arrive is served visit by visit, each exactly as a message
// addressed to that incarnation alone would have been. These tests hold the
// handler to that: mixed component states inside one message, retries of a
// multi-visit message, and messages it must refuse whole.

// entryVisits builds the one message a round sends for tokens on the network
// input wires ins of cl when all of cl is one destination: addressed to the
// first entry component by index, listing the others in that order.
func entryVisits(cl *Cluster, ins []int) (to *comp, ga wire.GroupArrive, visited []*comp) {
	tp := cl.topo.Load()
	byComp := map[int32][]int{}
	var seen []int32
	for _, in := range ins {
		at := tp.rt.Entry(in)
		if byComp[at.Comp] == nil {
			seen = append(seen, at.Comp)
		}
		byComp[at.Comp] = append(byComp[at.Comp], int(at.Wire))
	}
	slices.Sort(seen)
	for k, ci := range seen {
		cm := tp.live[ci]
		visited = append(visited, cm)
		ga.Wires = append(ga.Wires, byComp[ci]...)
		if k > 0 {
			ga.Visits = append(ga.Visits, wire.Visit{Addr: string(cm.addr), Tokens: len(byComp[ci])})
		}
	}
	return visited[0], ga, visited
}

// counts snapshots what every incarnation cl has ever bound has counted:
// arrivals per input wire, then the total.
func counts(cl *Cluster) map[transport.Addr][]uint64 {
	cl.compMu.RLock()
	defer cl.compMu.RUnlock()
	all := make(map[transport.Addr][]uint64, len(cl.comps))
	for addr, cm := range cl.comps {
		cm.mu.Lock()
		all[addr] = append(slices.Clone(cm.arrived), cm.total)
		cm.mu.Unlock()
	}
	return all
}

// TestGroupVisitsMeetActiveFrozenDead: one message whose four visits meet
// two active incarnations, a frozen one and a retired one. The active ones'
// tokens are stepped and chained on; the frozen and the retired one turn
// theirs away — all from the one reply. The retired one's re-resolve into
// its children at once, the snapshot that retired it being out; the frozen
// one's wait until a replacement is published. The count is exact at
// quiescence.
func TestGroupVisitsMeetActiveFrozenDead(t *testing.T) {
	const w, tokens = 64, 128
	cut := mustCut(t, w, 2)
	ins := randomWires(29, tokens, w)
	fabric := &gatedMem{Net: transport.NewMem()}
	cl, err := New(w, cut, WithTransport(fabric))
	if err != nil {
		t.Fatal(err)
	}
	tr := cl.Trace(1, 16)
	_, ga, visited := entryVisits(cl, ins)
	if len(visited) != 4 {
		t.Fatalf("the burst enters at %d components, want 4", len(visited))
	}
	frozen, victim := visited[1], visited[2]
	waiting, bounced := ga.Visits[0].Tokens, ga.Visits[1].Tokens

	ref, err := New(w, cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InjectBatch(ins); err != nil {
		t.Fatal(err)
	}

	reply, err := cl.ctl(frozen, kindFreeze, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reply.(wire.FreezeRes)
	// Hold the round between resolving its tokens against the snapshot and
	// sending: the split lands in between, so the message goes out naming an
	// incarnation that has been retired.
	asked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fabric.gate = func(transport.Addr) {
		once.Do(func() {
			close(asked)
			<-release
		})
	}
	_, before := cl.NetStats()
	done := make(chan error, 1)
	go func() {
		_, err := cl.InjectBatch(ins)
		done <- err
	}()
	<-asked
	if err := cl.Split(victim.c.Path); err != nil {
		t.Fatal(err)
	}
	close(release)

	repl := &comp{c: frozen.c, total: snap.Total, arrived: slices.Clone(snap.Processed)}
	if err := cl.bind(repl); err != nil {
		t.Fatal(err)
	}
	if err := cl.publish([]*comp{frozen}, []*comp{repl}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if frozen.total != 0 || victim.total != 0 || !slices.Equal(frozen.arrived, snap.Processed) {
		t.Fatalf("the frozen incarnation stepped %d tokens, the retired one %d", frozen.total, victim.total)
	}

	// The first message's events: its group event, then one per visit that
	// was not stepped, in visit order.
	evs := batchEvents(t, tr)
	if len(evs) < 5 || evs[1].Kind != "group" || evs[1].Detail != string(visited[0].c.Path) {
		t.Fatalf("batch span events %+v, want the burst's one message first", evs)
	}
	if e := evs[2]; e.Kind != "dead" || e.Detail != string(frozen.c.Path) || e.V != int64(waiting) {
		t.Fatalf("event %+v, want %d tokens turned away at %q", e, waiting, frozen.c.Path)
	}
	if e := evs[3]; e.Kind != "dead" || e.Detail != string(victim.c.Path) || e.V != int64(bounced) {
		t.Fatalf("event %+v, want %d tokens bounced off %q", e, bounced, victim.c.Path)
	}
	steps := int64(0)
	for _, e := range evs[1:] {
		if e.Kind == "group" {
			steps += e.V
		}
	}
	want := int64(0)
	for _, cm := range ref.topo.Load().live {
		want += int64(cm.total)
	}
	if steps != want {
		t.Fatalf("the burst's group events step %d components, its tokens' paths hold %d", steps, want)
	}
	if _, after := cl.NetStats(); after.Sub(before).Calls < 3 {
		t.Fatalf("%d RPCs, want at least the message, the bounced tokens' and the waiting tokens'", after.Sub(before).Calls)
	}
	requireSameTotals(t, cl, ref)
	if got, want := cl.OutCounts(), ref.OutCounts(); !slices.Equal(got, want) {
		t.Fatalf("output counts %v, want %v", got, want)
	}
	if err := cl.CheckStep(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupVisitsAtMostOnceUnderFaults: a multi-visit message is one
// request, deduplicated at the endpoint it is addressed to. With every leg
// at risk of loss and every request of duplication, each message's visits
// are served once: every visited component ends with exactly the tokens the
// messages brought it, and no other component with any. The fault injector
// places every address apart; the wrapper over it serves the visited
// components together, so the message may visit them all, and the rest
// apart, so no handler chains past them.
func TestGroupVisitsAtMostOnceUnderFaults(t *testing.T) {
	const w, messages = 64, 40
	entries := map[transport.Addr]bool{}
	f := sites{faultyFabric(0.2), func(a transport.Addr) bool { return entries[a] }}
	cl, err := New(w, mustCut(t, w, 2), WithTransport(f), WithRetry(faultyRetry))
	if err != nil {
		t.Fatal(err)
	}
	to, ga, visited := entryVisits(cl, randomWires(7, 128, w))
	for _, cm := range visited {
		entries[cm.addr] = true
	}
	if len(visited) != 4 {
		t.Fatalf("the message visits %d components, want 4", len(visited))
	}
	for i := 0; i < messages; i++ {
		reply, err := cl.rc.Call("t:test", to.addr, kindGroupArrive, ga)
		if err != nil {
			t.Fatal(err)
		}
		// One status for all four visits: stepped, and nothing chained.
		if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusProcessed || len(res.Outs) != len(ga.Wires) || res.Visits != nil {
			t.Fatalf("reply %+v, want every visit stepped once and nothing chained", res)
		}
	}
	st, cs := cl.NetStats()
	if cs.Calls != messages || cs.Failures != 0 || cs.Retries == 0 || st.DedupHits == 0 {
		t.Fatalf("client %+v, fabric %+v: want %d calls, retried and deduplicated, none failed", cs, st, messages)
	}
	brought := map[*comp]uint64{to: uint64(len(ga.Wires))}
	for k, v := range ga.Visits {
		brought[visited[k+1]] = uint64(v.Tokens)
		brought[to] -= uint64(v.Tokens)
	}
	for _, cm := range cl.topo.Load().live {
		if cm.total != messages*brought[cm] {
			t.Fatalf("%v stepped %d tokens, %d messages brought it %d each", cm.c, cm.total, messages, brought[cm])
		}
	}
}

// TestGroupArriveRefusesWholeMessage: a message with anything wrong in any
// visit — an input wire the visited component does not have, an address no
// component is bound at, an address this fabric routes elsewhere, visits
// that do not share out the tokens — fails with ErrBadGroup before the
// first visit is served: no incarnation has counted anything.
func TestGroupArriveRefusesWholeMessage(t *testing.T) {
	const w = 64
	cl, tn := tcpCluster(t, w, mustCut(t, w, 2), 0)
	to, good, visited := entryVisits(cl, randomWires(11, 128, w))
	if len(visited) != 4 {
		t.Fatalf("the message visits %d components, want 4", len(visited))
	}
	refused := func(name string, ga wire.GroupArrive) {
		t.Helper()
		before := counts(cl)
		if _, err := cl.compRPC(to, transport.Request{Kind: kindGroupArrive, Body: ga}); !errors.Is(err, ErrBadGroup) {
			t.Fatalf("%s: %v, want ErrBadGroup", name, err)
		}
		for addr, now := range counts(cl) {
			if !slices.Equal(now, before[addr]) {
				t.Fatalf("%s: %q counted %v before the message was refused, %v after", name, addr, before[addr], now)
			}
		}
	}
	for name, f := range map[string]func(ga *wire.GroupArrive){
		"wire out of range in the last visit": func(ga *wire.GroupArrive) { ga.Wires[len(ga.Wires)-1] = visited[3].c.Width },
		"negative wire in the first visit":    func(ga *wire.GroupArrive) { ga.Wires[0] = -1 },
		"address nothing is bound at":         func(ga *wire.GroupArrive) { ga.Visits[1].Addr = "c:zz#99" },
		"visit of no tokens":                  func(ga *wire.GroupArrive) { ga.Visits[0].Tokens = 0 },
		"visits of the whole group": func(ga *wire.GroupArrive) {
			ga.Visits = ga.Visits[:1]
			ga.Visits[0].Tokens = len(ga.Wires)
		},
		"no tokens": func(ga *wire.GroupArrive) { ga.Wires, ga.Visits = nil, nil },
	} {
		ga := good
		ga.Wires, ga.Visits = slices.Clone(good.Wires), slices.Clone(good.Visits)
		f(&ga)
		refused(name, ga)
	}
	// The message those were made from is served: four visits, chained on.
	reply, err := cl.compRPC(to, transport.Request{Kind: kindGroupArrive, Body: good})
	if err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusExited || res.Visits != nil || res.Steps != 6*len(good.Wires) {
		t.Fatalf("reply %+v, want every token of the four visits stepped to its exit", res)
	}
	// And refused once the fabric routes one of its visits elsewhere.
	if err := tn.Route(string(visited[2].addr), "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	refused("address routed to another fabric", good)
}

// TestGroupVisitsNothingStepped: the replies to a message some or all of
// whose visits could not be stepped, over the socket so the codec vets them.
// A frozen incarnation beside an active one: the chained form with a visit
// list and a zero for each turned-away token; two frozen ones: the short
// form, one status for both, nothing stepped, nothing counted.
func TestGroupVisitsNothingStepped(t *testing.T) {
	const w = 64
	cl, _ := tcpCluster(t, w, mustCut(t, w, 2), 0)
	to, ga, visited := entryVisits(cl, randomWires(13, 128, w))
	first := len(ga.Wires) - ga.Visits[0].Tokens - ga.Visits[1].Tokens - ga.Visits[2].Tokens
	ga.Wires, ga.Visits = ga.Wires[:first+ga.Visits[0].Tokens], ga.Visits[:1]
	if _, err := cl.ctl(to, kindFreeze, nil); err != nil {
		t.Fatal(err)
	}
	reply, err := cl.rc.Call("t:test", to.addr, kindGroupArrive, ga)
	if err != nil {
		t.Fatal(err)
	}
	res := reply.(wire.GroupArriveRes)
	want := []wire.Status{wire.StatusDead, wire.StatusExited}
	if res.Status != wire.StatusExited || !slices.Equal(res.Visits, want) || !slices.Equal(res.Outs[:first], make([]int, first)) || res.Steps != 6*ga.Visits[0].Tokens {
		t.Fatalf("reply %+v, want visits %+v, a zero for every turned-away token and the others stepped to their exits", res, want)
	}
	if got := counts(cl)[to.addr]; !slices.Equal(got, make([]uint64, len(got))) {
		t.Fatalf("the frozen incarnation counted %v", got)
	}
	if _, err := cl.ctl(visited[1], kindFreeze, nil); err != nil {
		t.Fatal(err)
	}
	before := counts(cl)
	if reply, err = cl.rc.Call("t:test", to.addr, kindGroupArrive, ga); err != nil {
		t.Fatal(err)
	}
	if res := reply.(wire.GroupArriveRes); res.Status != wire.StatusDead || res.Outs != nil || res.Visits != nil {
		t.Fatalf("reply %+v, want the short form: both visits found a frozen incarnation", res)
	}
	for addr, now := range counts(cl) {
		if !slices.Equal(now, before[addr]) {
			t.Fatalf("%q counted %v before the message, %v after", addr, before[addr], now)
		}
	}
}
