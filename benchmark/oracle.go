package main

import (
	"fmt"
	"math/bits"

	"repro/internal/balancer"
)

// engine is what the counting oracle needs from a network under test: the
// public per-wire counts and the quiescent step-property check that core.Network
// and dist.Cluster both offer.
type engine interface {
	InCounts() balancer.Seq
	OutCounts() balancer.Seq
	CheckStep() error
}

// valueSet is one sender's private bitmap of the counter values it was handed.
// Private, so noting a value is a plain store on a line no other sender
// touches; the sets are merged after the window.
type valueSet struct {
	bits []uint64
	dups int // values this sender received twice
	over int // values at or beyond the bitmap's capacity
}

func newValueSet(capacity int) *valueSet {
	return &valueSet{bits: make([]uint64, (capacity+63)/64)}
}

func (v *valueSet) add(x uint64) {
	w := x / 64
	if w >= uint64(len(v.bits)) {
		v.over++
		return
	}
	m := uint64(1) << (x % 64)
	if v.bits[w]&m != 0 {
		v.dups++
	}
	v.bits[w] |= m
}

// checkCounting is the oracle run after every repetition, at quiescence and
// from public calls only. acked is the number of tokens whose injection
// returned without error; when every op succeeded (exact) it must equal what
// went in and what came out. values, when given, are the per-sender sets of
// returned counter values: no value may be handed out twice, and a network
// that counted acked tokens handed out exactly 0..acked-1.
func checkCounting(e engine, acked int64, exact bool, values []*valueSet) error {
	in, out := e.InCounts().Total(), e.OutCounts().Total()
	if in != out {
		return fmt.Errorf("conservation: %d tokens in, %d out", in, out)
	}
	if exact && in != acked {
		return fmt.Errorf("conservation: %d tokens acknowledged, %d counted", acked, in)
	}
	if err := e.CheckStep(); err != nil {
		return fmt.Errorf("step property: %w", err)
	}
	if len(values) == 0 {
		return nil
	}
	seen := make([]uint64, len(values[0].bits))
	distinct := 0
	for i, v := range values {
		if v.dups > 0 || v.over > 0 {
			return fmt.Errorf("values: sender %d got %d duplicates, %d beyond %d",
				i, v.dups, v.over, 64*len(v.bits))
		}
		for w, b := range v.bits {
			if seen[w]&b != 0 {
				return fmt.Errorf("values: %d handed to two senders",
					64*w+bits.TrailingZeros64(seen[w]&b))
			}
			seen[w] |= b
			distinct += bits.OnesCount64(b)
		}
	}
	if !exact {
		return nil
	}
	if int64(distinct) != acked {
		return fmt.Errorf("values: %d distinct for %d tokens", distinct, acked)
	}
	for w := int(acked / 64); w < len(seen); w++ {
		b := seen[w]
		if w == int(acked/64) {
			b &^= uint64(1)<<(acked%64) - 1
		}
		if b != 0 {
			return fmt.Errorf("values: %d handed out with only %d tokens counted",
				64*w+bits.TrailingZeros64(b), acked)
		}
	}
	return nil
}
