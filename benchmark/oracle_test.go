package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/balancer"
)

// fakeEngine is a counting network that can be told to miscount, so the
// oracle's checks are shown to fire.
type fakeEngine struct {
	in, out balancer.Seq
	stepErr error
}

func (f fakeEngine) InCounts() balancer.Seq  { return f.in }
func (f fakeEngine) OutCounts() balancer.Seq { return f.out }
func (f fakeEngine) CheckStep() error        { return f.stepErr }

// handOut gives each of n senders its share of the values 0..tokens-1.
func handOut(tokens, n int) []*valueSet {
	sets := make([]*valueSet, n)
	for i := range sets {
		sets[i] = newValueSet(tokens + 64)
	}
	for v := 0; v < tokens; v++ {
		sets[v%n].add(uint64(v))
	}
	return sets
}

func TestCheckCounting(t *testing.T) {
	const tokens = 1000
	honest := fakeEngine{in: balancer.StepSeq(8, tokens), out: balancer.StepSeq(8, tokens)}

	lost := honest
	lost.out = balancer.StepSeq(8, tokens-1)
	unstepped := honest
	unstepped.stepErr = errors.New("outputs 3 1 2")

	dupAcross := handOut(tokens, 2)
	dupAcross[1].add(4) // sender 0 already holds 4
	dupWithin := handOut(tokens, 2)
	dupWithin[0].add(4)
	gap := handOut(tokens-1, 2)
	gap[0].add(tokens + 5) // 999 never handed out, 1005 was
	beyond := handOut(tokens, 2)
	beyond[1].add(1 << 40)

	cases := []struct {
		name   string
		eng    fakeEngine
		acked  int64
		exact  bool
		values []*valueSet
		want   string // substring of the error; "" means the oracle must pass
	}{
		{"honest", honest, tokens, true, handOut(tokens, 2), ""},
		{"honest without values", honest, tokens, true, nil, ""},
		{"token lost inside", lost, tokens, true, nil, "conservation"},
		{"token counted but never acknowledged", honest, tokens - 1, true, nil, "acknowledged"},
		{"failed ops waive the acknowledged count", honest, tokens - 1, false, nil, ""},
		{"step property broken", unstepped, tokens, true, nil, "step property"},
		{"value handed to two senders", honest, tokens, true, dupAcross, "two senders"},
		{"value handed twice to one sender", honest, tokens, true, dupWithin, "duplicates"},
		{"value skipped", honest, tokens, true, gap, "handed out with only"},
		{"value beyond the bitmap", honest, tokens, true, beyond, "beyond"},
	}
	for _, c := range cases {
		err := checkCounting(c.eng, c.acked, c.exact, c.values)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: oracle failed: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: oracle passed a miscounting engine", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
