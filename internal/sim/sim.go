// Package sim is a discrete-event simulator for the counting network:
// overlay nodes are single-server FIFO queues, inter-component wires have
// link latency, and tokens are events stepping through the current cut's
// compiled tree.RouteTable.
//
// The paper argues latency through effective depth and throughput through
// effective width; this simulator turns those structural quantities into
// time, so the E23 experiment can show the saturation behavior they imply:
// a single-component (centralized) network saturates at one node's service
// rate, while the adaptive network's capacity grows with the system size.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/chord"
	"repro/internal/component"
	"repro/internal/tree"
)

// Config describes one simulation.
type Config struct {
	// Width is the network width w.
	Width int
	// Cut is the cut to instantiate (defaults to the root-only cut).
	Cut tree.Cut
	// Nodes is the number of overlay nodes components are hashed onto.
	Nodes int
	// ServiceTime is the time a node takes to process one token at one
	// component (arbitrary time units).
	ServiceTime float64
	// LinkDelay is the one-way latency of a component-to-component wire.
	// Must be finite and >= 0.
	LinkDelay float64
	// ArrivalRate is the Poisson token arrival rate (tokens per time unit).
	ArrivalRate float64
	// Tokens is the number of tokens to inject.
	Tokens int
	// Seed drives arrivals and input-wire choices.
	Seed int64
	// DropRate is the probability that one inter-component message attempt
	// is lost; the sender detects the loss after RetryTimeout and re-sends,
	// so a lossy link costs extra latency, never a lost token (the
	// transport layer's retry semantics in time units). Must be in [0, 1).
	DropRate float64
	// RetryTimeout is the time a sender waits before re-sending a lost
	// message. Zero means 4 * LinkDelay. Must be finite and >= 0.
	RetryTimeout float64
}

// Result summarizes a run.
type Result struct {
	Completed   int
	Makespan    float64 // time of the last completion
	Throughput  float64 // completed / makespan
	LatencyMean float64 // token injection-to-exit latency
	LatencyP50  float64
	LatencyP99  float64
	MaxNodeBusy float64 // utilization of the busiest node (busy time / makespan)
	Resends     int     // message re-sends forced by link loss
	Out         []int64 // per-output-wire emissions
}

// event is a scheduled simulator action.
type event struct {
	at  float64
	seq int // tie-breaker for determinism
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// token is an in-flight token.
type token struct {
	id    int
	start float64
}

// node is one overlay node: a single-server FIFO queue.
type node struct {
	busyUntil float64
	busyTotal float64
}

// Sim is one simulation instance.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	queue eventQueue
	seq   int
	now   float64

	rt    *tree.RouteTable
	comps []*component.State // by member index of rt
	host  []int              // overlay node of each member
	nodes []node

	out       []int64
	latencies []float64
	completed int
	lastDone  float64
	resends   int
}

// New builds a simulation. Times and rates must be real numbers: a NaN,
// an infinity or a negative delay would report impossible latencies.
func New(cfg Config) (*Sim, error) {
	if cfg.Cut == nil {
		cfg.Cut = tree.RootCut()
	}
	if err := cfg.Cut.Validate(cfg.Width); err != nil {
		return nil, err
	}
	inf := math.Inf(1)
	if cfg.Nodes < 1 || cfg.Tokens < 1 || !(cfg.ServiceTime > 0 && cfg.ServiceTime < inf) ||
		!(cfg.ArrivalRate > 0 && cfg.ArrivalRate < inf) {
		return nil, fmt.Errorf("sim: need Nodes>=1, Tokens>=1, finite ServiceTime>0 and ArrivalRate>0")
	}
	if !(cfg.LinkDelay >= 0 && cfg.LinkDelay < inf) || !(cfg.RetryTimeout >= 0 && cfg.RetryTimeout < inf) {
		return nil, fmt.Errorf("sim: LinkDelay %v and RetryTimeout %v must be finite and >= 0", cfg.LinkDelay, cfg.RetryTimeout)
	}
	if !(cfg.DropRate >= 0 && cfg.DropRate < 1) {
		return nil, fmt.Errorf("sim: DropRate %v outside [0, 1)", cfg.DropRate)
	}
	if cfg.RetryTimeout == 0 {
		cfg.RetryTimeout = 4 * cfg.LinkDelay
	}
	rt, err := tree.CompileRoutes(cfg.Width, cfg.Cut)
	if err != nil {
		return nil, err
	}
	comps := rt.Components()
	s := &Sim{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		rt:    rt,
		comps: make([]*component.State, len(comps)),
		host:  make([]int, len(comps)),
		nodes: make([]node, cfg.Nodes),
		out:   make([]int64, cfg.Width),
	}
	for i, c := range comps {
		s.comps[i] = component.New(c)
		s.host[i] = int(uint64(chord.Hash(c.Name())) % uint64(cfg.Nodes))
	}
	return s, nil
}

// Run injects cfg.Tokens tokens with Poisson arrivals and runs to
// completion.
func (s *Sim) Run() (Result, error) {
	at := 0.0
	for i := 0; i < s.cfg.Tokens; i++ {
		at += s.rng.ExpFloat64() / s.cfg.ArrivalRate
		tok := &token{id: i, start: at}
		in := s.rng.Intn(s.cfg.Width)
		s.schedule(at, func() { s.arriveAt(tok, s.rt.Entry(in).Comp) })
	}
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		ev.fn()
	}
	return s.result()
}

func (s *Sim) schedule(at float64, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// arriveAt queues the token at cut member comp's host node, which serves
// its arrivals one at a time in arrival order.
func (s *Sim) arriveAt(tok *token, comp int32) {
	n := &s.nodes[s.host[comp]]
	start := s.now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	done := start + s.cfg.ServiceTime
	n.busyUntil = done
	n.busyTotal += s.cfg.ServiceTime
	s.schedule(done, func() { s.processAt(tok, comp) })
}

// processAt performs the component step and forwards or completes the
// token.
func (s *Sim) processAt(tok *token, comp int32) {
	at := s.rt.Next(comp, s.comps[comp].Step())
	if at.Exited() {
		s.out[at.Wire]++
		s.completed++
		s.latencies = append(s.latencies, s.now-tok.start)
		if s.now > s.lastDone {
			s.lastDone = s.now
		}
		return
	}
	s.schedule(s.now+s.linkTime(), func() { s.arriveAt(tok, at.Comp) })
}

// linkTime is the delivery time of one inter-component message: the link
// delay, plus one retry timeout per lost attempt.
func (s *Sim) linkTime() float64 {
	d := s.cfg.LinkDelay
	for s.cfg.DropRate > 0 && s.rng.Float64() < s.cfg.DropRate {
		s.resends++
		d += s.cfg.RetryTimeout
	}
	return d
}

func (s *Sim) result() (Result, error) {
	if s.completed != s.cfg.Tokens {
		return Result{}, fmt.Errorf("sim: completed %d of %d tokens", s.completed, s.cfg.Tokens)
	}
	sorted := make([]float64, len(s.latencies))
	copy(sorted, s.latencies)
	sort.Float64s(sorted)
	mean := 0.0
	for _, l := range sorted {
		mean += l
	}
	mean /= float64(len(sorted))
	maxBusy := 0.0
	for _, n := range s.nodes {
		if u := n.busyTotal / s.lastDone; u > maxBusy {
			maxBusy = u
		}
	}
	out := make([]int64, len(s.out))
	copy(out, s.out)
	return Result{
		Completed:   s.completed,
		Makespan:    s.lastDone,
		Throughput:  float64(s.completed) / s.lastDone,
		LatencyMean: mean,
		LatencyP50:  sorted[len(sorted)/2],
		LatencyP99:  sorted[(len(sorted)*99)/100],
		MaxNodeBusy: maxBusy,
		Resends:     s.resends,
		Out:         out,
	}, nil
}
