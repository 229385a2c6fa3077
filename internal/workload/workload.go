// Package workload generates token-arrival patterns and membership-churn
// traces for the experiment harness.
//
// Arrival generators pick network input wires: the paper's guarantees hold
// for arbitrary input distributions, so the experiments exercise uniform,
// single-wire and bursty patterns. Churn traces are sequences
// of membership events (grow, shrink, flash crowd, oscillation) that the
// harness applies to an adaptive network, interleaved with maintenance and
// token batches.
package workload

import (
	"fmt"
	"math/rand"
)

// Arrivals selects network input wires for successive tokens.
type Arrivals interface {
	// Next returns the input wire for the next token.
	Next() int
}

// Uniform picks wires uniformly at random.
type Uniform struct {
	w   int
	rng *rand.Rand
}

// NewUniform creates a uniform arrival generator over w wires.
func NewUniform(w int, seed int64) *Uniform {
	return &Uniform{w: w, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Arrivals.
func (u *Uniform) Next() int { return u.rng.Intn(u.w) }

// SingleWire hammers one input wire (the fully contended case).
type SingleWire struct {
	Wire int
}

// Next implements Arrivals.
func (s *SingleWire) Next() int { return s.Wire }

// Bursty alternates between hammering a random wire for a burst and
// scattering uniformly.
type Bursty struct {
	w         int
	burstLen  int
	remaining int
	wire      int
	rng       *rand.Rand
}

// NewBursty creates a bursty generator: bursts of burstLen tokens on a
// single random wire, separated by single uniform tokens.
func NewBursty(w, burstLen int, seed int64) *Bursty {
	return &Bursty{w: w, burstLen: burstLen, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Arrivals.
func (b *Bursty) Next() int {
	if b.remaining == 0 {
		b.wire = b.rng.Intn(b.w)
		b.remaining = b.burstLen
	}
	b.remaining--
	return b.wire
}

// EventKind identifies a churn-trace event.
type EventKind uint8

// Churn-trace event kinds.
const (
	EventJoin EventKind = iota + 1
	EventLeave
	EventCrash
	EventInject
	EventMaintain
	EventStabilize
)

func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventCrash:
		return "crash"
	case EventInject:
		return "inject"
	case EventMaintain:
		return "maintain"
	case EventStabilize:
		return "stabilize"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one step of a churn trace. Count is the number of nodes
// (join/leave/crash) or tokens (inject); it is ignored for maintain and
// stabilize.
type Event struct {
	Kind  EventKind
	Count int
}

// Grow returns a trace that grows the system from its current size by
// n nodes in steps, maintaining and injecting batchTokens between steps.
func Grow(n, steps, batchTokens int) []Event {
	if steps < 1 {
		steps = 1
	}
	var events []Event
	per := n / steps
	rem := n % steps
	for i := 0; i < steps; i++ {
		k := per
		if i < rem {
			k++
		}
		if k == 0 {
			continue
		}
		events = append(events,
			Event{Kind: EventJoin, Count: k},
			Event{Kind: EventMaintain},
			Event{Kind: EventInject, Count: batchTokens},
		)
	}
	return events
}

// Shrink returns a trace that removes n nodes gracefully in steps.
func Shrink(n, steps, batchTokens int) []Event {
	if steps < 1 {
		steps = 1
	}
	var events []Event
	per := n / steps
	rem := n % steps
	for i := 0; i < steps; i++ {
		k := per
		if i < rem {
			k++
		}
		if k == 0 {
			continue
		}
		events = append(events,
			Event{Kind: EventLeave, Count: k},
			Event{Kind: EventMaintain},
			Event{Kind: EventInject, Count: batchTokens},
		)
	}
	return events
}

// FlashCrowd returns a trace that multiplies the system size by factor at
// once, then shrinks back.
func FlashCrowd(base, factor, batchTokens int) []Event {
	joined := base * (factor - 1)
	return []Event{
		{Kind: EventInject, Count: batchTokens},
		{Kind: EventJoin, Count: joined},
		{Kind: EventMaintain},
		{Kind: EventInject, Count: batchTokens},
		{Kind: EventLeave, Count: joined},
		{Kind: EventMaintain},
		{Kind: EventInject, Count: batchTokens},
	}
}

// Oscillate returns a trace alternating growth and shrink for the given
// number of cycles.
func Oscillate(amplitude, cycles, batchTokens int) []Event {
	var events []Event
	for i := 0; i < cycles; i++ {
		events = append(events,
			Event{Kind: EventJoin, Count: amplitude},
			Event{Kind: EventMaintain},
			Event{Kind: EventInject, Count: batchTokens},
			Event{Kind: EventLeave, Count: amplitude},
			Event{Kind: EventMaintain},
			Event{Kind: EventInject, Count: batchTokens},
		)
	}
	return events
}

// CrashStorm returns a trace that crashes n nodes (one at a time, each
// followed by stabilization) and then heals with maintenance.
func CrashStorm(n, batchTokens int) []Event {
	var events []Event
	for i := 0; i < n; i++ {
		events = append(events,
			Event{Kind: EventCrash, Count: 1},
			Event{Kind: EventStabilize},
			Event{Kind: EventInject, Count: batchTokens},
		)
	}
	events = append(events, Event{Kind: EventMaintain})
	return events
}
