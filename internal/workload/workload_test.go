package workload

import (
	"testing"

	"repro/internal/core"
)

func TestUniformRange(t *testing.T) {
	u := NewUniform(8, 1)
	for i := 0; i < 100; i++ {
		if w := u.Next(); w < 0 || w >= 8 {
			t.Fatalf("wire %d out of range", w)
		}
	}
}

func TestSingleWire(t *testing.T) {
	s := &singleWire{wire: 3}
	for i := 0; i < 5; i++ {
		if s.Next() != 3 {
			t.Fatal("single wire moved")
		}
	}
}

func TestTraceShapes(t *testing.T) {
	grow := Grow(10, 3, 5)
	joins := 0
	for _, e := range grow {
		if e.Kind == EventJoin {
			joins += e.Count
		}
	}
	if joins != 10 {
		t.Fatalf("grow joins = %d, want 10", joins)
	}
	shrink := Shrink(7, 2, 0)
	leaves := 0
	for _, e := range shrink {
		if e.Kind == EventLeave {
			leaves += e.Count
		}
	}
	if leaves != 7 {
		t.Fatalf("shrink leaves = %d, want 7", leaves)
	}
	if len(FlashCrowd(4, 3, 1)) == 0 || len(Oscillate(4, 2, 1)) == 0 || len(CrashStorm(2, 1)) == 0 {
		t.Fatal("empty trace")
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EventJoin, EventLeave, EventCrash, EventInject, EventMaintain, EventStabilize} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if EventKind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestRunGrowShrinkTrace(t *testing.T) {
	n, err := core.New(core.Config{Width: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	trace := append(Grow(31, 4, 20), Shrink(28, 4, 20)...)
	st, err := Run(n, client, trace, NewUniform(128, 9))
	if err != nil {
		t.Fatal(err)
	}
	if st.Joins != 31 || st.Leaves != 28 {
		t.Fatalf("joins/leaves = %d/%d", st.Joins, st.Leaves)
	}
	if st.Tokens != 8*20 {
		t.Fatalf("tokens = %d, want 160", st.Tokens)
	}
	if st.FinalNodes != 4 {
		t.Fatalf("final nodes = %d, want 4", st.FinalNodes)
	}
}

func TestRunCrashStorm(t *testing.T) {
	n, err := core.New(core.Config{Width: 64, Seed: 8, InitialNodes: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MaintainToFixpoint(100); err != nil {
		t.Fatal(err)
	}
	client, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(n, client, CrashStorm(5, 10), NewUniform(64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 5 {
		t.Fatalf("crashes = %d, want 5", st.Crashes)
	}
}

func TestRunUnknownEvent(t *testing.T) {
	n, err := core.New(core.Config{Width: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(n, client, []Event{{Kind: EventKind(42)}}, NewUniform(8, 1)); err == nil {
		t.Fatal("unknown event accepted")
	}
}

// singleWire hammers one input wire (the fully contended case).
type singleWire struct {
	wire int
}

// Next implements Arrivals.
func (s *singleWire) Next() int { return s.wire }
