package experiments

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// e25Observability exercises the unified metrics layer end to end: a
// converged network per system size N is built with an obs.Registry and
// token tracing attached, a seeded token load is driven through it, and the
// row reports the empirical lookup hop-count distribution (from the chord
// layer's histogram on an uncached twin, see lookupHops) and per-token
// latency percentiles (from wall-clock samples). The hop counts are checked
// against idealised Chord's model, Binomial(log2 N, 1/2) + 1 (one hop per
// differing bit of a uniform distance, plus the final hop to the owner that
// Ring.Lookup counts), by total-variation distance; the injection-phase
// deltas come from Metrics.Sub so convergence-time maintenance does not
// pollute the steady-state numbers.
func e25Observability(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E25",
		Title: "Token-level observability: lookup hops and latency percentiles",
		Claim: "per-lookup overlay hop counts follow Binomial(log2 N, 1/2) + 1, and the metrics layer captures full per-token distributions at bounded sampling cost",
		Headers: []string{"N", "tokens", "lookups", "hops mean", "model mean",
			"hops var", "model var", "TV", "hops max", "lat p50 us", "lat p95 us",
			"lat p99 us", "lookups/tok", "spans"},
	}
	sizes := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10}
	tokens := 1200

	for _, n := range sizes {
		r, err := lookupHops(opts.Seed+int64(n), n, tokens)
		if err != nil {
			return nil, err
		}
		hops, lats := r.hops, r.lats
		pmf := hopPMF(hops)
		mean, variance := pmfMoments(pmf)
		model := hopModel(n)
		mmean, mvar := pmfMoments(model)
		tv := totalVariation(pmf, model)
		sort.Float64s(lats)
		q := func(p float64) float64 { return lats[int(p*float64(len(lats)-1))] }
		t.AddRow(n, r.delta.Tokens, hops.Count(), mean, mmean, variance, mvar, tv,
			hops.Quantile(1), q(0.50)*1e6, q(0.95)*1e6, q(0.99)*1e6,
			stats.Ratio(float64(r.delta.NameLookups), float64(r.delta.Tokens)), r.spans)

		if hops.Count() < minModelLookups {
			t.Note("N=%d: %d lookups, too few to test the model", n, hops.Count())
		} else if tv > hopModelTolerance {
			t.Note("N=%d: lookup hops are %.3f from Binomial(log2 N, 1/2) + 1 in total variation, past %.2f", n, tv, hopModelTolerance)
		}
		if n == sizes[len(sizes)-1] {
			t.Note("N=%d empirical lookup hop-count distribution (injection phase): %s",
				n, hopBuckets(hops))
		}
	}
	t.Note("hop counts come from the chord layer's registry histogram on an uncached twin of each row's network (DisableCache, as many tokens); latencies, lookups/tok and spans from the cached network, spans = tokens sampled by the 1-in-32 tracer")
	t.Note("model: Binomial(log2 N, 1/2) + 1, idealised Chord with the final hop to the owner counted; TV = total-variation distance from it")
	return t, nil
}

// hopModelTolerance is the total-variation distance past which E25 flags a
// row's lookup hops as off the Binomial(log2 N, 1/2) + 1 model.
const hopModelTolerance = 0.15

// minModelLookups is the sample below which sampling noise alone is of the
// order of hopModelTolerance, so a row's distance says nothing.
const minModelLookups = 200

type hopRun struct {
	hops  *stats.Histogram
	lats  []float64
	delta core.Metrics
	spans uint64
}

// lookupHops builds and converges a width-1024 network of n nodes, injects
// tokens from one client, and returns the injection phase's per-token
// latencies, metrics and sampled spans. Its lookup hop histogram comes from
// an uncached twin, the same network with DisableCache driven by as many
// tokens: on the cached network the memos answer nearly every hop, which
// leaves too few lookups at small N to test a distribution.
func lookupHops(seed int64, n, tokens int) (hopRun, error) {
	reg := obs.NewRegistry()
	net, client, err := convergedClient(core.Config{
		Seed: seed, InitialNodes: n, Obs: reg, TraceEvery: 32, TraceRetain: 64,
	})
	if err != nil {
		return hopRun{}, err
	}
	// Convergence issued estimate probes and splits; snapshot so the
	// run's numbers cover the injection phase only.
	pre := net.Metrics()
	lats := make([]float64, 0, tokens)
	for i := 0; i < tokens; i++ {
		start := time.Now()
		if _, err := client.Inject(); err != nil {
			return hopRun{}, err
		}
		lats = append(lats, time.Since(start).Seconds())
	}

	twinReg := obs.NewRegistry()
	_, twin, err := convergedClient(core.Config{
		Seed: seed, InitialNodes: n, Obs: twinReg, DisableCache: true,
	})
	if err != nil {
		return hopRun{}, err
	}
	hist := func() *stats.Histogram { return twinReg.Histogram("chord.lookup.hops", 0, 64, 64).Snapshot() }
	preHops := hist()
	for i := 0; i < tokens; i++ {
		if _, err := twin.Inject(); err != nil {
			return hopRun{}, err
		}
	}
	hops := hist()
	if err := hops.Merge(negate(preHops)); err != nil {
		return hopRun{}, err
	}
	return hopRun{hops, lats, net.Metrics().Sub(pre), net.Tracer().Sampled()}, nil
}

// convergedClient builds a width-1024 network per cfg, runs maintenance to
// its fixpoint and returns it with a client.
func convergedClient(cfg core.Config) (*core.Network, *core.Client, error) {
	cfg.Width = 1 << 10
	net, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if _, err := net.MaintainToFixpoint(200); err != nil {
		return nil, nil, err
	}
	client, err := net.NewClient()
	return net, client, err
}

// hopPMF is the empirical distribution of an integer-valued histogram with
// unit buckets: index k holds the share of observations equal to k.
func hopPMF(h *stats.Histogram) []float64 {
	pmf := make([]float64, len(h.Buckets))
	if c := h.Count(); c > 0 {
		for i, b := range h.Buckets {
			pmf[i] = float64(b) / float64(c)
		}
	}
	return pmf
}

// hopModel is Binomial(log2 n, 1/2) + 1 as a distribution over hop counts.
func hopModel(n int) []float64 {
	m := int(math.Round(math.Log2(float64(n))))
	pmf := make([]float64, m+2)
	c := 1.0 // C(m, k)
	for k := 0; k <= m; k++ {
		pmf[k+1] = c / math.Exp2(float64(m))
		c = c * float64(m-k) / float64(k+1)
	}
	return pmf
}

func pmfMoments(pmf []float64) (mean, variance float64) {
	for k, p := range pmf {
		mean += float64(k) * p
	}
	for k, p := range pmf {
		d := float64(k) - mean
		variance += d * d * p
	}
	return mean, variance
}

// totalVariation is half the L1 distance between two distributions over
// 0, 1, 2, ...
func totalVariation(p, q []float64) float64 {
	sum := 0.0
	for k := 0; k < len(p) || k < len(q); k++ {
		var a, b float64
		if k < len(p) {
			a = p[k]
		}
		if k < len(q) {
			b = q[k]
		}
		sum += math.Abs(a - b)
	}
	return sum / 2
}

// negate returns a histogram whose counts are the negation of h, so that
// Merge(negate(pre)) subtracts a baseline snapshot. Sum and the range
// tallies negate along.
func negate(h *stats.Histogram) *stats.Histogram {
	o := h.Clone()
	for i := range o.Buckets {
		o.Buckets[i] = -o.Buckets[i]
	}
	o.Under, o.Over, o.NaN, o.Sum = -o.Under, -o.Over, -o.NaN, -o.Sum
	return o
}

// hopBuckets renders the nonzero buckets of an integer-valued histogram as
// "value:count" pairs.
func hopBuckets(h *stats.Histogram) string {
	out := ""
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += formatCell(int(h.Lo+float64(i)*width)) + ":" + formatCell(c)
	}
	return out
}
