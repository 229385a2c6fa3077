//go:build goexperiment.synctest

package dist

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
)

// TestBubbleLostTokenSplitHangs pins a known defect: a split whose freeze
// is imbalanced thaws and waits for the frozen component to step more
// tokens, and if the token in flight towards it is lost, that wait never
// ends. The set-up is TestReconfigThawsImbalancedFreeze's on the in-memory
// fabric, except that the held token is never released. Inside a bubble
// the hang surfaces as the runtime's deadlock report within a second;
// once the wait has a deadline (ROADMAP item 7), Split returns an error
// instead and this test changes with it.
func TestBubbleLostTokenSplitHangs(t *testing.T) {
	const w, waitFn = 8, "repro/internal/dist.(*Cluster).thaw"
	var reached, returned atomic.Bool
	waiting := blockedIn(waitFn)
	start := time.Now()
	deadlock := bubble(t, func() {
		fabric := &gatedMem{Net: transport.NewMem()}
		cl, err := New(w, mustCut(t, w, 1), WithTransport(fabric))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Inject(0); err != nil {
			t.Error(err)
			return
		}
		path, _ := tokenPath(cl, 0)
		if p := path[len(path)-1].c.Path; p != "4" {
			t.Errorf("wire 0's last component is at %q, want X4@4", p)
			return
		}
		gated := make(map[transport.Addr]bool)
		for _, cm := range cl.topo.Load().live {
			gated[cm.addr] = cm.c.Path[0] == '4'
		}
		var holding atomic.Bool
		asked, lost := make(chan struct{}), make(chan struct{})
		fabric.gate = func(a transport.Addr) {
			if gated[a] && holding.CompareAndSwap(false, true) {
				close(asked)
				<-lost // never closed: the token is lost in flight
			}
		}
		go cl.Inject(0)
		<-asked
		if _, err := cl.Inject(0); err != nil {
			t.Error(err)
			return
		}
		reached.Store(true)
		cl.Split("4")
		returned.Store(true)
	})
	took := time.Since(start)
	if !reached.Load() {
		t.Fatal("the set-up did not reach the split")
	}
	if returned.Load() || deadlock == "" {
		t.Fatalf("Split returned (deadlock report %q): the lost token's hang is gone; turn this test into the deadline's test", deadlock)
	}
	if blockedIn(waitFn) <= waiting {
		t.Fatal("the bubble hung, but not in the thaw's progress wait")
	}
	if took > time.Second {
		t.Fatalf("the hang took %v of wall time to report, want under 1s", took)
	}
	t.Logf("%s after %v", deadlock, took)
}

// TestBubbleLostTokenMergeHangs pins a known defect: a merge waits on the
// drain signal until every token inside the assembly has reached its exit
// children, and if a token that stepped an entry child is lost on its way
// to a later child, that wait never ends. Once the wait has a deadline
// (ROADMAP item 7), Merge returns an error instead and this test changes
// with it.
func TestBubbleLostTokenMergeHangs(t *testing.T) {
	const w, waitFn = 8, "repro/internal/dist.(*Cluster).mergeLocked"
	var reached, returned atomic.Bool
	waiting := blockedIn(waitFn)
	start := time.Now()
	deadlock := bubble(t, func() {
		fabric := &gatedMem{Net: transport.NewMem()}
		cl, err := New(w, mustCut(t, w, 1), WithTransport(fabric))
		if err != nil {
			t.Error(err)
			return
		}
		// Children 0 and 1 of the root are the assembly's entry; a token
		// asking for any later child has stepped one of them.
		gated := make(map[transport.Addr]bool)
		for _, cm := range cl.topo.Load().live {
			gated[cm.addr] = cm.c.Path[0] >= '2'
		}
		var holding atomic.Bool
		asked, lost := make(chan struct{}), make(chan struct{})
		fabric.gate = func(a transport.Addr) {
			if gated[a] && holding.CompareAndSwap(false, true) {
				close(asked)
				<-lost // never closed: the token is lost in flight
			}
		}
		go cl.Inject(0)
		<-asked
		reached.Store(true)
		cl.Merge("")
		returned.Store(true)
	})
	took := time.Since(start)
	if !reached.Load() {
		t.Fatal("the set-up did not reach the merge")
	}
	if returned.Load() || deadlock == "" {
		t.Fatalf("Merge returned (deadlock report %q): the lost token's hang is gone; turn this test into the deadline's test", deadlock)
	}
	if blockedIn(waitFn) <= waiting {
		t.Fatal("the bubble hung, but not in the merge's drain wait")
	}
	if took > time.Second {
		t.Fatalf("the hang took %v of wall time to report, want under 1s", took)
	}
	t.Logf("%s after %v", deadlock, took)
}

// refusingMem is the in-memory switch with Bind turned off on demand.
type refusingMem struct {
	*transport.Net
	refuse atomic.Bool
}

func (r *refusingMem) Bind(a transport.Addr, h transport.Handler) error {
	if r.refuse.Load() {
		return fmt.Errorf("bind %s refused", a)
	}
	return r.Net.Bind(a, h)
}

// TestBubbleFailedSplitParksBatch pins a known defect: a split that cannot
// bind its children returns the error after its freeze, leaving the
// component frozen and no newer snapshot published, so the next token it
// turns away parks its batch for good. Once a failed split thaws what it
// froze, or the park has a deadline (ROADMAP item 7), the Inject returns
// and this test changes with it.
func TestBubbleFailedSplitParksBatch(t *testing.T) {
	const w, waitFn = 8, "repro/internal/dist.(*Cluster).route"
	var reached, returned atomic.Bool
	waiting := blockedIn(waitFn)
	start := time.Now()
	deadlock := bubble(t, func() {
		fabric := &refusingMem{Net: transport.NewMem()}
		cl, err := New(w, tree.RootCut(), WithTransport(fabric))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Inject(0); err != nil {
			t.Error(err)
			return
		}
		fabric.refuse.Store(true)
		if err := cl.Split(""); err == nil {
			t.Error("the split bound its children on a fabric that refuses every bind")
			return
		}
		reached.Store(true)
		cl.Inject(0)
		returned.Store(true)
	})
	took := time.Since(start)
	if !reached.Load() {
		t.Fatal("the set-up did not reach the inject")
	}
	if returned.Load() || deadlock == "" {
		t.Fatalf("Inject returned (deadlock report %q): the parked batch's hang is gone; turn this test into the fix's test", deadlock)
	}
	if blockedIn(waitFn) <= waiting {
		t.Fatal("the bubble hung, but not in a parked batch's wait")
	}
	if took > time.Second {
		t.Fatalf("the hang took %v of wall time to report, want under 1s", took)
	}
	t.Logf("%s after %v", deadlock, took)
}

// TestBubbleReconfigKeepsInvariants is the healthy twin: 4 injectors of
// 500 tokens each on width 16 while the root, "0" and "1" split and the
// root merges back. The injectors park after every 25 tokens; each time
// all of them are parked the bubble has settled, so every token injected
// has left the network, and the count must conserve and keep the step
// property there, mid-reconfiguration included, not only at the end.
func TestBubbleReconfigKeepsInvariants(t *testing.T) {
	const w, injectors, tokens, chunk = 16, 4, 500, 25
	deadlock := bubble(t, func() {
		cl, err := New(w, tree.RootCut())
		if err != nil {
			t.Error(err)
			return
		}
		ops := []struct {
			name string
			do   func() error
		}{
			{`split ""`, func() error { return cl.Split("") }},
			{`split "0"`, func() error { return cl.Split("0") }},
			{`split "1"`, func() error { return cl.Split("1") }},
			{`merge ""`, func() error { return cl.Merge("") }},
		}
		release := make([]chan struct{}, injectors)
		for i := range release {
			release[i] = make(chan struct{})
			go func() {
				for k := 0; k < tokens; k++ {
					if k%chunk == 0 {
						<-release[i]
					}
					if _, err := cl.Inject((7*i + 3*k) % w); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		next, running := 0, false
		opDone := make(chan error, 1)
		for round := 1; round <= tokens/chunk; round++ {
			if !running && next < len(ops) {
				op := ops[next]
				running = true
				go func() { opDone <- op.do() }()
			}
			for _, r := range release {
				r <- struct{}{}
			}
			settle()
			if got, want := cl.InCounts().Total(), int64(round*chunk*injectors); got != want {
				t.Errorf("round %d: %d tokens in, want %d", round, got, want)
				return
			}
			if err := cl.CheckStep(); err != nil {
				t.Errorf("round %d, during or after %s: %v", round, ops[min(next, len(ops)-1)].name, err)
				return
			}
			select {
			case err := <-opDone:
				if err != nil {
					t.Errorf("%s: %v", ops[next].name, err)
					return
				}
				t.Logf("%s done by round %d", ops[next].name, round)
				running = false
				next++
			default:
			}
		}
		if next < len(ops) {
			t.Errorf("%d of %d reconfigurations done when the tokens ran out", next, len(ops))
			return
		}
		if cl.topo.Load().at("") == nil {
			t.Error("the root is not live after merging back")
		}
	})
	if deadlock != "" {
		t.Fatalf("the bubble deadlocked: %s", deadlock)
	}
}
