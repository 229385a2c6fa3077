package dist

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/wire"
)

// This file is the single-token path, both halves: injectOnSeq, the loop a
// token's endpoint runs, and arrive, the handler a component endpoint
// serves it with.
//
// A token costs one message per move between fabric instances, not one per
// component. Its first arrive is always a message, sent from its own
// endpoint — the injector is a client of the network, not one of its nodes,
// and that one request ID, deduplicated at the incarnation it addresses, is
// what keeps everything the handler goes on to do at-most-once. The handler
// steps the addressed component and then, as long as the fabric says the
// token's next component is served by this same fabric instance
// (transport.Placer) and that component is active, steps it in place
// too. It replies when the token leaves the network or reaches a component
// it cannot step, and the token's endpoint continues from the position the
// reply names. A fabric that knows no placement makes every chain one step
// long: that is the one-message-per-hop behaviour, not a second code path.

// routeLocked counts one token in on input wire w of an active component and
// returns the output wire the component's round-robin sends it to. The
// caller holds cm.mu. It is the one place a token is stepped: the single-
// token path, a group's visit and a chain of either all come through here.
func (cm *comp) routeLocked(w int) int {
	cm.arrived[w]++
	out := int(cm.total & uint64(cm.c.Width-1)) // every width is a power of two
	cm.total++
	return out
}

// step delivers one token to input wire w under the component's lock. An
// active component routes it and returns its output wire. A frozen one
// stores it if the caller brought a stored-token record (only the handler
// that received the token's own message does: the record names the endpoint
// its resume goes to); a dead one does nothing. The state returned is the
// one the token met.
func (cm *comp) step(w int, store *queuedToken) (out int, st compState) {
	cm.mu.Lock()
	st = cm.state
	switch {
	case st == stateActive:
		out = cm.routeLocked(w)
	case st == stateFrozen && store != nil:
		cm.arrived[w]++
		cm.queue = append(cm.queue, *store)
	}
	cm.mu.Unlock()
	return out, st
}

// arrive serves one arrive RPC at cm: the token's step through cm and
// through every component after it that this fabric also serves.
func (cl *Cluster) arrive(cm *comp, req transport.Request) (any, error) {
	ar, ok := req.Body.(wire.Arrive)
	if !ok {
		return nil, fmt.Errorf("dist: arrive body %T", req.Body)
	}
	if ar.Wire < 0 || ar.Wire >= cm.c.Width {
		return nil, fmt.Errorf("dist: arrive wire %d out of range [0,%d)", ar.Wire, cm.c.Width)
	}
	out, st := cm.step(ar.Wire, &queuedToken{wire: ar.Wire, tok: transport.Addr(ar.Token), seq: ar.Seq})
	switch st {
	case stateDead:
		return resDead, nil
	case stateFrozen:
		return resQueued, nil
	}
	reply := cl.chain(cm, out)
	cl.signalDrain()
	return reply, nil
}

// chain takes a token that has just left cm on output wire out through the
// components that follow, for as long as they are served by this fabric and
// active, and returns the arrive reply. It routes by the current snapshot's
// table and holds one component lock at a time, never two: between steps
// the token is in flight exactly as it is between two messages, so a freeze
// or a kill can land between any two steps and the merge drain sees it by
// the same conservation count. It stops, and reports where the token
// stands, at the first component that is served elsewhere or is not active
// — frozen, or replaced since the snapshot was taken. That component then
// gets the token in a message from its endpoint, like any first hop, so a
// frozen one stores it under the address its resume must go to.
//
// A chain of one step replies as the handler always has, with cm's output
// wire (the sender's table knows where that leads): on a fabric without
// placement knowledge, and when the snapshot no longer holds cm — the
// request was bound for an incarnation that has since been replaced, and
// this table says nothing about its wires.
func (cl *Cluster) chain(cm *comp, out int) any {
	one := cm.resProcessed[out]
	if cl.place == nil {
		return one
	}
	tp := cl.topo.Load()
	ci, ok := tp.rt.Index(cm.c.Path)
	if !ok || tp.live[ci] != cm {
		return one
	}
	for steps := 1; ; steps++ {
		at := tp.rt.Next(ci, out)
		var next *comp
		st := stateDead // anything but active: the token was not stepped
		if !at.Exited() {
			if next = tp.live[at.Comp]; cl.place.Site(next.addr) == "" {
				out, st = next.step(int(at.Wire), nil)
			}
		}
		switch {
		case st == stateActive:
			ci = at.Comp
		case steps == 1:
			return one
		case at.Exited():
			return wire.ArriveRes{Status: wire.StatusExited, Out: int(at.Wire), Steps: steps}
		default:
			return wire.ArriveRes{Status: wire.StatusForward, Steps: steps, Path: string(next.c.Path), Wire: int(at.Wire)}
		}
	}
}

// injectOnSeq routes one token whose sequence number has been claimed and
// published to the endpoint's resume window by the caller; in has been
// validated and counted.
func (cl *Cluster) injectOnSeq(ep *tokenEP, in int, seq uint64) (int, error) {
	sp := cl.tracer.Start("token")
	var begin time.Time
	if sp != nil || cl.hTok != nil {
		begin = time.Now()
	}

	// The token's position is an entry of its snapshot's compiled table. A
	// reply that names a component's output wire moves it by table lookup;
	// one that names a position — after a chain of steps, a bounce off a
	// dead incarnation, a resume — or a snapshot swap between messages
	// sends it through findLive.
	tp := cl.topo.Load()
	at := tp.rt.Entry(in)
	for {
		cm, rwire := tp.live[at.Comp], int(at.Wire)
		var hopStart time.Time
		if cl.hHop != nil {
			hopStart = time.Now()
		}
		reply, err := cl.rc.CallSpan(ep.addr, cm.addr, kindArrive, wire.Arrive{Wire: rwire, Token: string(ep.addr), Seq: seq}, sp)
		if err != nil {
			return 0, fmt.Errorf("dist: arrive at %v: %w", cm.c, err)
		}
		cl.hHop.Since(hopStart)
		res, ok := reply.(wire.ArriveRes)
		if !ok {
			return 0, fmt.Errorf("dist: arrive reply %T", reply)
		}
		steps := 1
		switch res.Status {
		case wire.StatusDead:
			// The component was replaced between resolution and delivery;
			// re-resolve against the current cut.
			if sp != nil {
				sp.Event("dead", string(cm.c.Path), int64(rwire))
			}
			if tp, at, err = cl.findLive(cm.c.Path, rwire); err != nil {
				return 0, err
			}
			continue
		case wire.StatusQueued:
			if sp != nil {
				sp.Event("queued", string(cm.c.Path), int64(rwire))
			}
			var qStart time.Time
			if cl.hQueue != nil {
				qStart = time.Now()
			}
			rt := <-ep.resume
			for rt.Seq != seq {
				rt = <-ep.resume // straggler for a previous occupant
			}
			cl.hQueue.Since(qStart)
			if sp != nil {
				sp.Event("resume", string(rt.Path), int64(rt.Wire))
			}
			if tp, at, err = cl.findLive(tree.Path(rt.Path), rt.Wire); err != nil {
				return 0, err
			}
			continue
		case wire.StatusProcessed:
			if res.Out < 0 || res.Out >= cm.c.Width {
				return 0, fmt.Errorf("dist: arrive reply from %v names output wire %d", cm.c, res.Out)
			}
			if at = tp.rt.Next(at.Comp, res.Out); !at.Exited() {
				tp, at, err = cl.follow(tp, at)
			}
		case wire.StatusExited:
			if res.Out < 0 || res.Out >= cl.w {
				return 0, fmt.Errorf("dist: arrive reply from %v names network output wire %d", cm.c, res.Out)
			}
			steps, at = res.Steps, tree.Hop{Comp: tree.Exit, Wire: int32(res.Out)}
		case wire.StatusForward:
			steps = res.Steps
			tp, at, err = cl.findLive(tree.Path(res.Path), res.Wire)
		default:
			return 0, fmt.Errorf("dist: arrive status %d", res.Status)
		}
		if err != nil {
			return 0, err
		}
		// One hop event per RPC, carrying how many components it stepped: a
		// token's hop events sum to the components on its path.
		if sp != nil {
			sp.Event("hop", string(cm.c.Path), int64(steps))
		}
		if at.Exited() {
			netOut := int(at.Wire)
			cl.out[netOut].Add(1)
			if cl.hTok != nil {
				cl.hTok.Observe(time.Since(begin).Seconds())
			}
			if sp != nil {
				sp.Event("exit", "", int64(netOut))
				sp.Finish()
			}
			return netOut, nil
		}
	}
}
