//go:build goexperiment.synctest

package dist

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
)

// TestBubbleLostTokenSplitAborts: a split whose freeze is imbalanced thaws
// and waits (in await) for the frozen component to step more tokens. The
// set-up is TestReconfigThawsImbalancedFreeze's, except that the held
// token is lost: the wait gives up after one retry budget of fake time.
func TestBubbleLostTokenSplitAborts(t *testing.T) {
	lostTokenAborts(t, "thaw", "4", func(p tree.Path) bool { return p[0] == '4' },
		func(cl *Cluster) error { return cl.Split("4") })
}

// TestBubbleLostTokenMergeAborts: a merge waits (in await, the same wait
// as the split's) until every token inside the assembly has reached its
// exit children. A token that stepped an entry child is lost on its way to
// a later child: the drain gives up after one retry budget of fake time.
func TestBubbleLostTokenMergeAborts(t *testing.T) {
	lostTokenAborts(t, "drain", "", func(p tree.Path) bool { return p[0] >= '2' },
		func(cl *Cluster) error { return cl.Merge("") })
}

// lostTokenAborts runs op on a width-8 level-1 cut after three tokens
// entered at wire 0, the second of which is held on its way into the first
// component gated selects. op must fail with ErrStalled naming stage and
// the component at short, no sooner than one retry budget, and leave the
// cut and the bound incarnations as they were; once the held token is
// released, it and every later token leave, and the step property holds.
func lostTokenAborts(t *testing.T, stage string, short tree.Path, gated func(tree.Path) bool, op func(*Cluster) error) {
	const w = 8
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
		gate := make(map[transport.Addr]bool)
		for _, cm := range cl.topo.Load().live {
			gate[cm.addr] = gated(cm.c.Path)
		}
		var holding atomic.Bool
		asked, lost := make(chan struct{}), make(chan struct{})
		fabric.gate = func(a transport.Addr) {
			if gate[a] && holding.CompareAndSwap(false, true) {
				close(asked)
				<-lost
			}
		}
		held := make(chan error, 1)
		go func() {
			_, err := cl.Inject(0)
			held <- err
		}()
		<-asked
		if _, err := cl.Inject(0); err != nil {
			t.Error(err)
			return
		}
		comps := func() int {
			cl.compMu.RLock()
			defer cl.compMu.RUnlock()
			return len(cl.comps)
		}
		cut, bound := cl.Cut(), comps()
		start := time.Now()
		err = op(cl)
		if !errors.Is(err, ErrStalled) {
			t.Errorf("with a token lost: %v, want ErrStalled", err)
		}
		if c, _ := tree.ComponentAt(w, short); err == nil || !strings.Contains(err.Error(), stage) || !strings.Contains(err.Error(), c.Name()) {
			t.Errorf("error %q names neither the %s nor %v", err, stage, c)
		}
		if took := time.Since(start); took < cl.stall {
			t.Errorf("gave up after %v, under one retry budget of %v", took, cl.stall)
		}
		if !maps.Equal(cl.Cut(), cut) {
			t.Errorf("cut %v after the failure, want %v", cl.Cut(), cut)
		}
		if got := comps(); got != bound {
			t.Errorf("%d incarnations bound after the failure, want %d", got, bound)
		}
		close(lost)
		if err := <-held; err != nil {
			t.Errorf("the released token: %v", err)
		}
		for in := range w {
			if _, err := cl.Inject(in); err != nil {
				t.Error(err)
			}
		}
		settle()
		if err := cl.CheckStep(); err != nil {
			t.Error(err)
		}
		t.Logf("failed as it should: %v", err)
	})
	if deadlock != "" {
		t.Fatalf("the bubble deadlocked: %s", deadlock)
	}
}

// refusingMem is the in-memory switch with Bind turned off on demand: while
// refuse is set, grant more binds succeed and the rest are refused.
type refusingMem struct {
	*transport.Net
	refuse atomic.Bool
	grant  atomic.Int32
}

func (r *refusingMem) Bind(a transport.Addr, h transport.Handler) error {
	if r.refuse.Load() && r.grant.Add(-1) < 0 {
		return fmt.Errorf("bind %s refused", a)
	}
	return r.Net.Bind(a, h)
}

// losingMem is the in-memory switch that, while lose is set, delivers every
// control call of the freeze protocol and runs its handler, but loses the
// reply, so the caller times out. Token deliveries are untouched.
type losingMem struct {
	*transport.Net
	lose atomic.Bool
}

func (l *losingMem) Send(req transport.Request, timeout time.Duration) (any, error) {
	reply, err := l.Net.Send(req, timeout)
	if l.lose.Load() && req.Kind != kindGroupArrive {
		return nil, transport.ErrTimeout
	}
	return reply, err
}

// TestBubbleFailedReconfigThaws: a split or merge that fails after its
// freeze — a replacement's Bind refused, or every reply to the freeze lost
// — returns the error, unbinds what it bound and thaws what it froze, so
// the old cut stays live: injectors running meanwhile never park for good,
// and the count stays exact. Once the fabric behaves, the same operation
// succeeds.
func TestBubbleFailedReconfigThaws(t *testing.T) {
	const w, injectors, tokens = 8, 3, 40
	cases := []struct {
		name   string
		level  int // of the starting cut
		op     func(*Cluster) error
		fabric func() (tr transport.Transport, broken func(bool))
	}{
		{"split, second child's bind refused", 0, func(cl *Cluster) error { return cl.Split("") },
			func() (transport.Transport, func(bool)) {
				f := &refusingMem{Net: transport.NewMem()}
				return f, func(on bool) { f.grant.Store(1); f.refuse.Store(on) }
			}},
		{"merge, parent's bind refused", 1, func(cl *Cluster) error { return cl.Merge("") },
			func() (transport.Transport, func(bool)) {
				f := &refusingMem{Net: transport.NewMem()}
				return f, f.refuse.Store
			}},
		{"split, freeze replies lost", 0, func(cl *Cluster) error { return cl.Split("") },
			func() (transport.Transport, func(bool)) {
				f := &losingMem{Net: transport.NewMem()}
				return f, f.lose.Store
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			deadlock := bubble(t, func() {
				tr, broken := c.fabric()
				cl, err := New(w, mustCut(t, w, c.level), WithTransport(tr))
				if err != nil {
					t.Error(err)
					return
				}
				comps := func() int {
					cl.compMu.RLock()
					defer cl.compMu.RUnlock()
					return len(cl.comps)
				}
				// load runs the injectors; the returned wait blocks until
				// every one of their Injects has returned.
				load := func() (wait func()) {
					var wg sync.WaitGroup
					for i := range injectors {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for k := range tokens {
								if _, err := cl.Inject((5*i + 3*k) % w); err != nil {
									t.Error(err)
								}
							}
						}()
					}
					return wg.Wait
				}
				cut, bound := cl.Cut(), comps()

				broken(true)
				wait := load()
				err = c.op(cl)
				wait()
				if err == nil {
					t.Error("the reconfiguration succeeded on a broken fabric")
					return
				}
				t.Logf("failed as it should: %v", err)
				if !maps.Equal(cl.Cut(), cut) {
					t.Errorf("cut %v after the failure, want %v", cl.Cut(), cut)
				}
				if got := comps(); got != bound {
					t.Errorf("%d incarnations bound after the failure, want %d", got, bound)
				}
				for in := range w {
					if _, err := cl.Inject(in); err != nil {
						t.Error(err)
					}
				}
				settle()
				if err := cl.CheckStep(); err != nil {
					t.Errorf("after the failure: %v", err)
				}

				broken(false)
				wait = load()
				err = c.op(cl)
				wait()
				if err != nil {
					t.Errorf("once the fabric behaves: %v", err)
					return
				}
				if maps.Equal(cl.Cut(), cut) {
					t.Error("the cut is unchanged after the reconfiguration succeeded")
				}
				settle()
				if err := cl.CheckStep(); err != nil {
					t.Errorf("after the reconfiguration: %v", err)
				}
			})
			if deadlock != "" {
				t.Fatalf("the bubble deadlocked: %s", deadlock)
			}
		})
	}
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
