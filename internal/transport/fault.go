package transport

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// FaultConfig configures the fault-injection wrapper. All probabilities are
// in [0, 1]; the zero value injects nothing (but still pays Latency* if
// set).
type FaultConfig struct {
	// Seed drives every fault decision. The decision stream is
	// deterministic per seed; which concurrent message draws which decision
	// follows the goroutine interleaving.
	Seed int64
	// DropRate is the probability that a message leg (request and reply
	// roll independently) is lost. A lost leg surfaces as ErrTimeout after
	// the caller's deadline.
	DropRate float64
	// DupRate is the probability that a request is delivered twice. The
	// receiver-side dedup cache keeps the handler's effect at-most-once.
	DupRate float64
	// ReorderRate is the probability that a leg is held back by an extra
	// delay (up to 4x the jitter), letting later messages overtake it.
	ReorderRate float64
	// LatencyBase and LatencyJitter shape the per-leg delay distribution:
	// base + uniform(0, jitter).
	LatencyBase   time.Duration
	LatencyJitter time.Duration
}

// Faulty wraps an inner fabric with seeded fault injection. It enables
// dedup on the inner *Net (retries and duplicates become possible, so
// receivers must remember executed request IDs).
type Faulty struct {
	inner Transport
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	parts  map[[2]Addr]bool
	lats   []float64 // completed round-trip times, seconds
	counts Stats
}

// maxLatencySamples bounds the latency sample buffer.
const maxLatencySamples = 1 << 18

// NewFaulty wraps inner with fault injection. Any fabric works — the
// in-memory switch or a tcpnet socket fabric — because the faults are
// injected around inner.Send; if the fabric's receiver-side dedup has a
// switch (Deduper), it is switched on, since retries and injected
// duplicates make at-most-once delivery depend on receivers remembering
// executed request IDs.
func NewFaulty(inner Transport, cfg FaultConfig) *Faulty {
	if d, ok := inner.(Deduper); ok {
		d.EnableDedup()
	}
	return &Faulty{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		parts: make(map[[2]Addr]bool),
	}
}

// InstrumentRPC implements Transport by forwarding to the inner fabric:
// faults are injected around Send, and handlers still run inside it.
func (f *Faulty) InstrumentRPC(o *obs.RPCObs) { f.inner.InstrumentRPC(o) }

// Site implements Transport: every address is a site of its own, whatever
// the inner fabric knows. A fault injector exists to put every message at
// risk, so no handler behind it hands a token on in place: every hop stays
// a message.
func (f *Faulty) Site(a Addr) string { return string(a) }

// Bind implements Transport.
func (f *Faulty) Bind(a Addr, h Handler) error { return f.inner.Bind(a, h) }

// Unbind implements Transport.
func (f *Faulty) Unbind(a Addr) { f.inner.Unbind(a) }

// Partition blocks all traffic between a and b (both directions) until
// Heal. Partitioned sends black-hole: the caller sees ErrTimeout.
func (f *Faulty) Partition(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.parts[pairKey(a, b)] = true
}

// Heal removes the partition between a and b.
func (f *Faulty) Heal(a, b Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.parts, pairKey(a, b))
}

func pairKey(a, b Addr) [2]Addr {
	if b < a {
		a, b = b, a
	}
	return [2]Addr{a, b}
}

// roll draws one fault decision.
func (f *Faulty) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

// legDelay draws one leg's latency, including any reordering hold-back.
func (f *Faulty) legDelay() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.cfg.LatencyBase
	if f.cfg.LatencyJitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(f.cfg.LatencyJitter)))
	}
	if f.cfg.ReorderRate > 0 && f.rng.Float64() < f.cfg.ReorderRate {
		f.counts.Reordered++
		d += time.Duration(f.rng.Int63n(int64(4*f.cfg.LatencyJitter + 1)))
	}
	return d
}

// Send implements Transport: request leg (drop? dup? delay), inner
// delivery, reply leg (drop? delay). Lost legs block until the deadline and
// return ErrTimeout, exactly like a peer waiting on a reply that never
// comes.
func (f *Faulty) Send(req Request, timeout time.Duration) (any, error) {
	start := time.Now()
	f.mu.Lock()
	f.counts.Sent++
	partitioned := f.parts[pairKey(req.From, req.To)]
	if partitioned {
		f.counts.Partitions++
	}
	f.mu.Unlock()
	if partitioned {
		time.Sleep(timeout)
		return nil, ErrTimeout
	}

	// Request leg.
	if f.roll(f.cfg.DropRate) {
		f.note(func(s *Stats) { s.Dropped++ })
		time.Sleep(timeout)
		return nil, ErrTimeout
	}
	if f.roll(f.cfg.DupRate) {
		f.note(func(s *Stats) { s.Duplicated++ })
		dupDelay := f.legDelay() + f.legDelay()
		go func() {
			time.Sleep(dupDelay)
			// The duplicate's reply is discarded; dedup on the inner fabric
			// keeps the handler execution at-most-once.
			_, _ = f.inner.Send(req, timeout)
		}()
	}
	time.Sleep(f.legDelay())

	reply, err := f.inner.Send(req, timeout)
	if err != nil {
		return reply, err
	}

	// Reply leg.
	if f.roll(f.cfg.DropRate) {
		f.note(func(s *Stats) { s.Dropped++ })
		time.Sleep(timeout)
		return nil, ErrTimeout
	}
	time.Sleep(f.legDelay())

	f.mu.Lock()
	if len(f.lats) < maxLatencySamples {
		f.lats = append(f.lats, time.Since(start).Seconds())
	}
	f.mu.Unlock()
	return reply, nil
}

func (f *Faulty) note(fn func(*Stats)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(&f.counts)
}

// Stats implements Transport: the wrapper's own counters plus the inner
// fabric's delivery/dedup counters.
func (f *Faulty) Stats() Stats {
	f.mu.Lock()
	own := f.counts
	f.mu.Unlock()
	inner := f.inner.Stats()
	own.Delivered = inner.Delivered
	own.DedupHits = inner.DedupHits
	return own
}

// Latencies returns the completed round-trip time samples (seconds).
func (f *Faulty) Latencies() []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]float64, len(f.lats))
	copy(out, f.lats)
	return out
}
