package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func newNet(t *testing.T, seed int64, nodes int) (*core.Network, *core.Client) {
	t.Helper()
	n, err := core.New(core.Config{Width: 256, Seed: seed, InitialNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return n, c
}

// TestRunAppliesEventsInOrder: the runner replays a churn trace exactly in
// sequence, and the stats account for every event.
func TestRunAppliesEventsInOrder(t *testing.T) {
	n, c := newNet(t, 3, 2)
	trace := []Event{
		{Kind: EventInject, Count: 5},
		{Kind: EventJoin, Count: 3},
		{Kind: EventMaintain},
		{Kind: EventInject, Count: 7},
		{Kind: EventLeave, Count: 1},
		{Kind: EventMaintain},
		{Kind: EventCrash, Count: 1},
		{Kind: EventStabilize},
		{Kind: EventInject, Count: 4},
	}
	st, err := Run(n, c, trace, NewUniform(n.Width(), 11))
	if err != nil {
		t.Fatal(err)
	}
	if st.Tokens != 16 || st.Joins != 3 || st.Leaves != 1 || st.Crashes != 1 || st.Maintains != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FinalNodes != 3 { // 2 + 3 - 1 - 1
		t.Fatalf("final nodes = %d, want 3", st.FinalNodes)
	}
	if m := n.Metrics(); m.Tokens != 16 {
		t.Fatalf("network saw %d tokens, want 16", m.Tokens)
	}
	if got := n.OutCounts().Total(); got != 16 {
		t.Fatalf("emitted %d tokens, want 16", got)
	}
}

// TestRunDeterministicUnderFixedSeed: two networks built from the same
// seeds replay the same trace identically — same stats, same metrics, same
// per-wire output histogram.
func TestRunDeterministicUnderFixedSeed(t *testing.T) {
	trace := append(Grow(12, 3, 20), Oscillate(4, 2, 10)...)
	trace = append(trace, CrashStorm(2, 5)...)

	run := func() (RunStats, core.Metrics, []int64, int) {
		n, c := newNet(t, 5, 4)
		st, err := Run(n, c, trace, NewUniform(n.Width(), 17))
		if err != nil {
			t.Fatal(err)
		}
		return st, n.Metrics(), n.OutCounts(), n.NumComponents()
	}
	st1, m1, out1, comps1 := run()
	st2, m2, out2, comps2 := run()
	if st1 != st2 {
		t.Fatalf("run stats diverged:\n%+v\n%+v", st1, st2)
	}
	if m1 != m2 {
		t.Fatalf("metrics diverged:\n%+v\n%+v", m1, m2)
	}
	if comps1 != comps2 {
		t.Fatalf("final components diverged: %d vs %d", comps1, comps2)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("output histograms diverged at wire %d", i)
		}
	}
	// A different arrival seed changes the wire histogram but not the
	// totals (conservation is seed-independent).
	n3, c3 := newNet(t, 5, 4)
	st3, err := Run(n3, c3, trace, NewUniform(n3.Width(), 99))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Tokens != st1.Tokens || st3.FinalNodes != st1.FinalNodes {
		t.Fatalf("trace-determined stats changed with arrival seed: %+v vs %+v", st3, st1)
	}
}

// TestRunErrorsCarryEventIndex: failures point at the offending trace
// position, and unknown kinds are rejected.
func TestRunErrorsCarryEventIndex(t *testing.T) {
	n, c := newNet(t, 7, 1)
	// Removing the last node is illegal; the runner must surface core's
	// error with the event index.
	_, err := Run(n, c, []Event{{Kind: EventInject, Count: 1}, {Kind: EventLeave, Count: 1}}, &singleWire{})
	if err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("err = %v, want event-1 leave failure", err)
	}

	n2, c2 := newNet(t, 7, 1)
	_, err = Run(n2, c2, []Event{{Kind: EventKind(99)}}, &singleWire{})
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown-kind failure", err)
	}
}
