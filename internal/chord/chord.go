// Package chord simulates the structured peer-to-peer overlay the paper
// layers its counting network on (Section 1.4 and Section 3): a Chord ring
// with uniformly random node identifiers, a distributed hash function
// mapping object names to nodes, k-th successors, ring distances, and
// hop-counted greedy finger-table lookups.
//
// The simulation is an idealized, always-stabilized Chord: finger i of node
// n is successor(n + 2^i), computed against the current ring, and lookups
// walk closest-preceding fingers. This preserves the O(log N) lookup cost
// the paper assumes while keeping experiments deterministic. Node joins,
// voluntary leaves and crashes reassign key ownership to successors, which
// is the hand-off rule of Section 3.4.
//
// Cross-node communication flows through an internal/transport fabric: each
// ring member is a transport endpoint, a lookup issues one finger-query RPC
// per overlay hop, and succ_k probes (the size estimator's messages) are
// RPCs to the probed node. On the default ideal in-memory fabric this is
// exactly as deterministic as direct calls; rings built with NewRingOn over
// a fault-injecting fabric see their lookups and probes pay real message
// loss, delay and retries.
package chord

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// NodeID is a point on the Chord ring. The ring's circumference is the
// full uint64 space; the paper's unit-circumference distances are obtained
// by dividing by 2^64.
type NodeID uint64

// Ring is a simulated Chord ring. It is safe for concurrent use.
type Ring struct {
	// version counts membership changes (joins, leaves, crashes). Lookup
	// caches key their validity on it: any churn event invalidates every
	// cached name resolution, which is exactly the condition under which an
	// owner can change (Section 3.4's hand-off rule).
	version atomic.Uint64

	mu  sync.RWMutex
	rng *rand.Rand
	ids []NodeID // sorted
	set map[NodeID]bool

	tr transport.Transport
	rc *transport.Client

	// Observability handles (nil when uninstrumented); set by Instrument
	// under mu and read under mu's read lock in Lookup.
	obsHops *obs.Hist // per-lookup overlay hop counts
	obsLat  *obs.Hist // per-lookup wall seconds
}

// Instrument routes the ring's lookup distributions — the empirical
// O(log N) hop-count histogram of Section 3.5 and per-lookup latency —
// plus its reliability client's RTT/backoff distributions into reg. Call
// it before issuing lookups; instrumenting mid-traffic is racy.
func (r *Ring) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.mu.Lock()
	r.obsHops = reg.Histogram("chord.lookup.hops", 0, 64, 64)
	r.obsLat = reg.Histogram("chord.lookup.seconds", 0, 0.05, 500)
	r.mu.Unlock()
	r.rc.Instrument(reg)
}

// NewRing creates an empty ring whose node identifiers are drawn from the
// given seed (the "random identifiers" assumption of Section 1.4). Its
// RPCs run over an ideal (reliable, zero-latency) in-memory transport.
func NewRing(seed int64) *Ring {
	return NewRingOn(seed, transport.NewMem(), transport.RetryConfig{})
}

// NewRingOn creates an empty ring whose cross-node RPCs (per-hop finger
// queries, succ_k probes) travel over tr with the given retry policy. Pass
// a transport.Faulty to expose lookups and estimate probes to message
// loss, delay, duplication and partitions. It is the ring constructor for
// callers that hold a transport: core builds its ring with it from
// Config.Transport, and the acn facade's NewRing with WithTransport.
func NewRingOn(seed int64, tr transport.Transport, retry transport.RetryConfig) *Ring {
	return &Ring{
		rng: rand.New(rand.NewSource(seed)),
		set: make(map[NodeID]bool),
		tr:  tr,
		rc:  transport.NewClient(tr, retry),
	}
}

// nodeAddr is the transport address of a ring member, "n:" and the id in
// 16 lower-case hex digits. Every succ_k probe and lookup hop names two
// members, so it is formatted by hand: one allocation, no fmt.
func nodeAddr(id NodeID) transport.Addr {
	const digits = "0123456789abcdef"
	var b [18]byte
	b[0], b[1] = 'n', ':'
	for i := len(b) - 1; i >= 2; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return transport.Addr(b[:])
}

// bindNode registers a node's RPC endpoint: "cpf" answers the
// closest-preceding-finger query lookups route on; "probe" answers succ_k
// liveness probes. Both are read-only and therefore idempotent under
// retries. Bodies and replies cross the fabric as uint64 — the wire
// codec's representation for these kinds — and are cast to NodeID at this
// boundary, so the same handlers serve the in-memory switch and tcpnet.
func (r *Ring) bindNode(id NodeID) error {
	return r.tr.Bind(nodeAddr(id), func(req transport.Request) (any, error) {
		switch req.Kind {
		case wire.KindCPF:
			key, ok := req.Body.(uint64)
			if !ok {
				return nil, fmt.Errorf("chord: cpf body %T", req.Body)
			}
			r.mu.RLock()
			defer r.mu.RUnlock()
			return uint64(r.closestPrecedingLocked(id, NodeID(key))), nil
		case wire.KindProbe:
			return uint64(id), nil
		default:
			return nil, fmt.Errorf("chord: unknown RPC kind %q", req.Kind)
		}
	})
}

// Join adds a node with a fresh uniformly random identifier and returns it.
func (r *Ring) Join() NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		id := NodeID(r.rng.Uint64())
		if r.set[id] {
			continue
		}
		r.insertLocked(id)
		if err := r.bindNode(id); err != nil {
			// The id is fresh, so the address cannot collide with a live
			// member; a collision with a stale endpoint is a programming
			// error.
			panic(err)
		}
		return id
	}
}

// JoinN adds n nodes and returns their identifiers.
func (r *Ring) JoinN(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = r.Join()
	}
	return out
}

func (r *Ring) insertLocked(id NodeID) {
	r.set[id] = true
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids, 0)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	r.version.Add(1)
}

// Version returns the membership version: a counter bumped by every join,
// leave and crash. Equal versions guarantee an unchanged membership, so a
// name→owner resolution taken at version v stays valid while Version
// still returns v.
func (r *Ring) Version() uint64 {
	return r.version.Load()
}

// Remove removes a node from the ring (used for both voluntary leaves and
// crashes; the difference is what the layer above does with the node's
// state).
func (r *Ring) Remove(id NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.set[id] {
		return fmt.Errorf("chord: node %d not in ring", id)
	}
	delete(r.set, id)
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= id })
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	r.tr.Unbind(nodeAddr(id))
	r.version.Add(1)
	return nil
}

// Size returns the number of nodes in the ring.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// Contains reports whether id is a current ring member.
func (r *Ring) Contains(id NodeID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.set[id]
}

// Nodes returns the node identifiers in ring order.
func (r *Ring) Nodes() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeID, len(r.ids))
	copy(out, r.ids)
	return out
}

// RandomNode returns a uniformly random current member using the given
// source (kept separate from the ring's own identifier stream so workloads
// don't perturb membership randomness).
func (r *Ring) RandomNode(rng *rand.Rand) (NodeID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.ids) == 0 {
		return 0, fmt.Errorf("chord: ring is empty")
	}
	return r.ids[rng.Intn(len(r.ids))], nil
}

// Successor returns the node that owns key: the first node clockwise from
// key (inclusive).
func (r *Ring) Successor(key NodeID) (NodeID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.successorLocked(key)
}

func (r *Ring) successorLocked(key NodeID) (NodeID, error) {
	if len(r.ids) == 0 {
		return 0, fmt.Errorf("chord: ring is empty")
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= key })
	if i == len(r.ids) {
		i = 0
	}
	return r.ids[i], nil
}

// SuccK returns the k-th clockwise successor of node v (succ_1 is the next
// node). v must be a ring member; k wraps around the ring. The probe is a
// message: v confirms the successor's identity with one RPC (the
// stabilized successor-list walk collapsed to its final exchange), so on a
// faulty fabric estimate probes pay loss and delay like any other traffic.
func (r *Ring) SuccK(v NodeID, k int) (NodeID, error) {
	r.mu.RLock()
	if !r.set[v] {
		r.mu.RUnlock()
		return 0, fmt.Errorf("chord: node %d not in ring", v)
	}
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= v })
	sk := r.ids[(i+k)%len(r.ids)]
	r.mu.RUnlock()
	if sk != v {
		if _, err := r.rc.Call(nodeAddr(v), nodeAddr(sk), wire.KindProbe, uint64(k)); err != nil {
			return 0, fmt.Errorf("chord: succ_%d probe from %d: %w", k, v, err)
		}
	}
	return sk, nil
}

// Dist returns the clockwise distance from u to v as a fraction of the
// ring circumference (the paper's d(u, v) with unit circumference).
func (r *Ring) Dist(u, v NodeID) float64 {
	return float64(uint64(v-u)) / (1 << 64)
}

// Owner returns the node responsible for the named object under the
// distributed hash function h (Section 2: component b lives on node h(b)).
func (r *Ring) Owner(name string) (NodeID, error) {
	return r.Successor(Hash(name))
}

// Hash is the distributed hash function h: 64-bit FNV-1a of the name,
// passed through a splitmix64 finalizer and interpreted as a ring
// position. The finalizer matters: component names are short and differ in
// one or two characters, and raw FNV-1a clusters such names in a narrow
// arc of the ring, which would defeat the balls-into-bins placement that
// Lemma 3.5 relies on.
func Hash(name string) NodeID {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return NodeID(mix64(h.Sum64()))
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Lookup routes a query for key from node `from` using greedy
// closest-preceding-finger forwarding and returns the owner and the number
// of overlay hops taken. This is the cost model for every DHT lookup in the
// adaptive network. Each hop is one "cpf" RPC over the ring's transport:
// the querying node asks the current hop for its closest preceding finger
// (the iterative Chord lookup style), so on a faulty fabric every hop can
// be delayed, lost and retried. The step sequence — and therefore the hop
// count — is identical to the direct-call implementation on the ideal
// fabric.
func (r *Ring) Lookup(from NodeID, key NodeID) (owner NodeID, hops int, err error) {
	r.mu.RLock()
	if len(r.ids) == 0 {
		r.mu.RUnlock()
		return 0, 0, fmt.Errorf("chord: ring is empty")
	}
	if !r.set[from] {
		r.mu.RUnlock()
		return 0, 0, fmt.Errorf("chord: lookup source %d not in ring", from)
	}
	target, terr := r.successorLocked(key)
	bound := 2*len(r.ids) + 64
	obsHops, obsLat := r.obsHops, r.obsLat
	r.mu.RUnlock()
	if terr != nil {
		return 0, 0, terr
	}
	var start time.Time
	if obsLat != nil {
		start = time.Now()
	}
	cur := from
	for cur != target {
		reply, rerr := r.rc.Call(nodeAddr(from), nodeAddr(cur), wire.KindCPF, uint64(key))
		if rerr != nil {
			return 0, 0, fmt.Errorf("chord: lookup for %d from %d: finger query at %d: %w", key, from, cur, rerr)
		}
		raw, ok := reply.(uint64)
		if !ok {
			return 0, 0, fmt.Errorf("chord: cpf reply %T", reply)
		}
		next := NodeID(raw)
		if next == cur {
			// No finger strictly between cur and key: the owner is our
			// immediate successor; take the final hop.
			next = target
		}
		cur = next
		hops++
		if hops > bound {
			return 0, 0, fmt.Errorf("chord: lookup for %d from %d did not converge", key, from)
		}
	}
	obsHops.Observe(float64(hops))
	obsLat.Since(start)
	return target, hops, nil
}

// closestPrecedingLocked returns the finger of cur that most closely
// precedes key: finger i is successor(cur + 2^i).
func (r *Ring) closestPrecedingLocked(cur, key NodeID) NodeID {
	for i := 63; i >= 0; i-- {
		f, err := r.successorLocked(cur + NodeID(uint64(1)<<uint(i)))
		if err != nil {
			return cur
		}
		if f != cur && inOpenInterval(NodeID(uint64(f)), cur, key) {
			return f
		}
	}
	return cur
}

// NetStats returns the ring's transport-level and client-level message
// counters (sent/dropped/duplicated/deduped; calls/retries/timeouts).
func (r *Ring) NetStats() (transport.Stats, transport.ClientStats) {
	return r.tr.Stats(), r.rc.Stats()
}

// inOpenInterval reports whether x lies in the circular open interval
// (a, b).
func inOpenInterval(x, a, b NodeID) bool {
	if a == b {
		return x != a // the whole ring except a
	}
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}
