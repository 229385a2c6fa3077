package experiments

import (
	"repro/internal/baseline"
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/stats"
)

// e13RoutingEfficiency (Section 3.5): components have O(1) out-neighbors,
// and out-neighbor address caching removes per-token DHT lookups.
func e13RoutingEfficiency(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "Routing state and address caching",
		Claim: "O(1) out-neighbors per component; cached addresses amortize lookups away (Section 3.5)",
		Headers: []string{"N", "cache", "mean out-nbrs", "max out-nbrs",
			"lookups/token", "lookup hops/token", "cache hit rate"},
	}
	sizes := []int{64, 256}
	tokens := 2000
	w := 1 << 12
	for _, n := range sizes {
		for _, disable := range []bool{false, true} {
			net, err := core.New(core.Config{
				Width: w, Seed: opts.Seed + int64(n), InitialNodes: n, DisableCache: disable,
			})
			if err != nil {
				return nil, err
			}
			if _, err := net.MaintainToFixpoint(200); err != nil {
				return nil, err
			}
			client, err := net.NewClient()
			if err != nil {
				return nil, err
			}
			for i := 0; i < tokens; i++ {
				if _, err := client.Inject(); err != nil {
					return nil, err
				}
			}
			nbrs, err := net.OutNeighborCounts()
			if err != nil {
				return nil, err
			}
			s := stats.SummarizeInts(nbrs)
			m := net.Metrics()
			hitRate := 0.0
			if m.CacheHits+m.CacheMisses > 0 {
				hitRate = float64(m.CacheHits) / float64(m.CacheHits+m.CacheMisses)
			}
			label := "on"
			if disable {
				label = "off"
			}
			t.AddRow(n, label, s.Mean, int(s.Max),
				float64(m.NameLookups)/float64(m.Tokens),
				float64(m.LookupHops)/float64(m.Tokens), hitRate)
		}
	}
	return t, nil
}

// e14InputLookup (Section 3.5): a client finds a live input component in
// at most log(w)-1 name tries, and typically one with memoization.
func e14InputLookup(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Finding an input component",
		Claim: "at most log(w)-1 tries; ~1 with a remembered entry (Section 3.5)",
		Headers: []string{"N", "client", "mean tries", "p99 tries", "max tries",
			"bound log(w)-1"},
	}
	w := 1 << 10
	sizes := []int{16, 256}
	tokens := 600
	logw := 10
	for _, n := range sizes {
		net, err := converged(w, n, opts.Seed+11*int64(n))
		if err != nil {
			return nil, err
		}
		// Fresh clients: every token from a brand-new client (no memory).
		var fresh []float64
		for i := 0; i < tokens; i++ {
			client, err := net.NewClient()
			if err != nil {
				return nil, err
			}
			tr, err := client.Inject()
			if err != nil {
				return nil, err
			}
			fresh = append(fresh, float64(tr.EntryTries))
		}
		fs := stats.Summarize(fresh)
		t.AddRow(n, "fresh", fs.Mean, fs.P99, int(fs.Max), logw-1)

		// A long-lived client remembering its last entry component.
		client, err := net.NewClient()
		if err != nil {
			return nil, err
		}
		var sticky []float64
		for i := 0; i < tokens; i++ {
			tr, err := client.Inject()
			if err != nil {
				return nil, err
			}
			sticky = append(sticky, float64(tr.EntryTries))
		}
		ss := stats.Summarize(sticky)
		t.AddRow(n, "remembers entry", ss.Mean, ss.P99, int(ss.Max), logw-1)
	}
	t.Note("fresh clients walk up from the input balancer's name; tries grow toward the bound only while components are small")
	return t, nil
}

// e15Comparison (Sections 1-2 motivation): the adaptive network against
// the static balancer-per-object network and a centralized counter, across
// system sizes. The shapes to reproduce: the static network pays its full
// object count at every N; the centralized counter concentrates all load
// on one node; the adaptive network tracks N in both object count and
// per-node load while keeping per-token cost polylogarithmic.
func e15Comparison(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Adaptive vs static-width vs centralized",
		Claim: "adaptive parallelism tracks N; static overhead and central bottleneck do not (Sections 1-2)",
		Headers: []string{"N", "system", "objects", "hops/token",
			"max node load share", "eff width"},
	}
	w := 256
	sizes := []int{2, 8, 32, 128, 512}
	tokens := 1500
	for _, n := range sizes {
		seed := opts.Seed + 17*int64(n)

		// Adaptive.
		net, err := converged(w, n, seed)
		if err != nil {
			return nil, err
		}
		client, err := net.NewClient()
		if err != nil {
			return nil, err
		}
		var hops float64
		for i := 0; i < tokens; i++ {
			tr, err := client.Inject()
			if err != nil {
				return nil, err
			}
			hops += float64(tr.WireHops + tr.LookupHops)
		}
		ew, err := net.EffectiveWidth()
		if err != nil {
			return nil, err
		}
		t.AddRow(n, "adaptive", net.NumComponents(), hops/float64(tokens),
			maxShare(net.TokenLoadPerNode()), ew)

		// Static balancer-per-object bitonic of width w.
		ring := chord.NewRing(seed)
		ring.JoinN(n)
		st, err := baseline.NewStatic(ring, w)
		if err != nil {
			return nil, err
		}
		var sHops float64
		rng := newRand(seed + 1)
		for i := 0; i < tokens; i++ {
			_, hops, err := st.Next(rng.Intn(w))
			if err != nil {
				return nil, err
			}
			sHops += float64(hops)
		}
		t.AddRow(n, "static w=256", st.Objects(), sHops/float64(tokens),
			staticMaxShare(st), bitonicWidth(w))

		// Centralized counter.
		central, err := baseline.NewCentral(ring, "the-counter")
		if err != nil {
			return nil, err
		}
		for i := 0; i < tokens; i++ {
			central.Next()
		}
		t.AddRow(n, "centralized", 1, 1.0, 1.0, 1)
	}
	t.Note("at small N the single component IS a centralized counter (the adaptive network degenerates gracefully); at large N only the adaptive network spreads load")
	return t, nil
}

// maxShare returns the largest fraction of the total load on one node.
func maxShare(loads []uint64) float64 {
	var total, max uint64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// staticMaxShare computes the load share of the busiest node in the static
// network: every token crosses every layer, so per-node load is
// proportional to the balancer objects it hosts weighted by traffic; we
// approximate with the object distribution, which is what limits the
// static network's balance.
func staticMaxShare(st *baseline.Static) float64 {
	counts := st.ObjectsPerNode()
	total, max := 0, 0
	for _, k := range counts {
		total += k
		if k > max {
			max = k
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / float64(total)
}

// bitonicWidth returns the effective width of the fully expanded bitonic
// network (w/2 vertex-disjoint balancer paths).
func bitonicWidth(w int) int { return w / 2 }
