package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/chord"
	"repro/internal/core"
)

// e26MulticoreScaling measures parallel token throughput of the adaptive
// network against the centralized counter and the static balancer-per-
// object network across GOMAXPROCS = 1..NumCPU. Sections 1 and 2 argue
// that a counting network's throughput scales with its width because
// concurrent tokens traverse disjoint balancers, while a central counter
// serializes every increment; this experiment checks that the Go
// implementation actually exhibits that behavior on real hardware — the
// token hot path is lock-free (atomic balancers, epoch-snapshot topology,
// cached lookups), so adding cores must add throughput rather than lock
// contention.
//
// On a single-core host the sweep degenerates to GOMAXPROCS=1 and the
// table still records the per-engine serial throughput baseline.
func e26MulticoreScaling(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E26",
		Title:   "Multicore throughput scaling (adaptive vs static vs central)",
		Claim:   "counting-network throughput scales with cores; the central counter serializes",
		Headers: []string{"engine", "procs", "goroutines", "tokens", "tokens/ms", "speedup"},
	}
	const w = 64
	nodes := 16
	tokens := 120000

	// GOMAXPROCS sweep: powers of two up to NumCPU, always including
	// NumCPU itself.
	ncpu := runtime.NumCPU()
	if ncpu == 1 {
		// Make the degenerate sweep impossible to mistake for a scaling
		// result: the annotation rides in the title, so every rendering of
		// the table (stdout, files, BENCH logs) carries it.
		t.Title += " [single-CPU host: speedups not measurable]"
	}
	var procsSweep []int
	for p := 1; p < ncpu; p *= 2 {
		procsSweep = append(procsSweep, p)
	}
	procsSweep = append(procsSweep, ncpu)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// One engine = a name plus a per-goroutine injection closure factory:
	// worker g gets its own closure (its own client and rng) so the only
	// sharing between goroutines is the network under test.
	type engine struct {
		name   string
		worker func(g int) (func() error, error)
	}

	ring := chord.NewRing(opts.Seed)
	ring.JoinN(nodes)
	central, err := baseline.NewCentral(ring, "counter")
	if err != nil {
		return nil, err
	}
	static, err := baseline.NewStatic(ring, w)
	if err != nil {
		return nil, err
	}
	adaptive, err := core.New(core.Config{Width: w, Seed: opts.Seed, InitialNodes: nodes})
	if err != nil {
		return nil, err
	}
	if _, err := adaptive.MaintainToFixpoint(200); err != nil {
		return nil, err
	}

	engines := []engine{
		{"central", func(g int) (func() error, error) {
			return func() error { central.Next(); return nil }, nil
		}},
		{"static", func(g int) (func() error, error) {
			rng := newRand(opts.Seed + int64(g))
			return func() error { _, _, err := static.Next(rng.Intn(w)); return err }, nil
		}},
		{"adaptive", func(g int) (func() error, error) {
			client, err := adaptive.NewClient()
			if err != nil {
				return nil, err
			}
			return func() error { _, err := client.Inject(); return err }, nil
		}},
	}

	base := make(map[string]float64)
	for _, procs := range procsSweep {
		runtime.GOMAXPROCS(procs)
		for _, eng := range engines {
			workers := procs
			per := tokens / workers
			fns := make([]func() error, workers)
			for g := range fns {
				fn, err := eng.worker(g)
				if err != nil {
					return nil, err
				}
				fns[g] = fn
			}
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			start := time.Now()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(fn func() error) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := fn(); err != nil {
							errCh <- err
							return
						}
					}
				}(fns[g])
			}
			wg.Wait()
			elapsed := time.Since(start)
			select {
			case err := <-errCh:
				return nil, fmt.Errorf("experiments: E26 %s: %w", eng.name, err)
			default:
			}
			total := per * workers
			rate := float64(total) / (float64(elapsed.Nanoseconds()) / 1e6)
			speedup := 1.0
			if b, ok := base[eng.name]; ok {
				speedup = rate / b
			} else {
				base[eng.name] = rate
			}
			t.AddRow(eng.name, procs, workers, total, rate, speedup)
		}
	}

	// Quiescent correctness after all the parallel traffic: the adaptive
	// network must still satisfy the step property and conservation.
	if err := adaptive.CheckStep(); err != nil {
		t.Note("FAIL: %v", err)
	} else {
		t.Note("adaptive network satisfies the step property after parallel load")
	}
	m := adaptive.Metrics()
	t.Note("adaptive: %d tokens, %d DHT lookups (%d lookup-cache hits), %.2f wire hops/token",
		m.Tokens, m.NameLookups, m.LCacheHits, float64(m.WireHops)/float64(m.Tokens))
	if ncpu == 1 {
		t.Note("WARNING: single-CPU host (runtime.NumCPU() == 1): the sweep degenerates to GOMAXPROCS=1, so every speedup column is 1.0 by construction; rows record the serial throughput baseline only")
	}
	return t, nil
}
