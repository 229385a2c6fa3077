package experiments

import (
	"math/rand"
	"sync"

	"repro/internal/match"
)

func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// e16Matching (Section 1.1): producer-consumer matching with two
// back-to-back counting networks pairs every request with exactly one
// supply.
func e16Matching(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Producer-consumer matching",
		Claim:   "each request matched with exactly one supply, and vice versa (Section 1.1)",
		Headers: []string{"scenario", "producers", "consumers", "matched", "left pending", "bijective"},
	}
	pairs := 2000

	// Balanced concurrent load.
	m, err := match.New[int, int](16, opts.Seed)
	if err != nil {
		return nil, err
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		prodGot = make(map[int]int, pairs)
		consGot = make(map[int]int, pairs)
	)
	for i := 0; i < pairs; i++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			ch, err := m.Produce(id)
			if err != nil {
				return
			}
			req := <-ch
			mu.Lock()
			prodGot[id] = req
			mu.Unlock()
		}(i)
		go func(id int) {
			defer wg.Done()
			ch, err := m.Consume(id)
			if err != nil {
				return
			}
			item := <-ch
			mu.Lock()
			consGot[id] = item
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	bijective := len(prodGot) == pairs && len(consGot) == pairs
	seen := make(map[int]bool, pairs)
	for cons, item := range consGot {
		if seen[item] || prodGot[item] != cons {
			bijective = false
		}
		seen[item] = true
	}
	t.AddRow("balanced concurrent", pairs, pairs, len(consGot), m.Pending(), bijective)

	// Oversupplied: surplus producers park.
	m2, err := match.New[int, int](8, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	prod, cons := 60, 40
	for i := 0; i < prod; i++ {
		if _, err := m2.Produce(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cons; i++ {
		if _, err := m2.Consume(i); err != nil {
			return nil, err
		}
	}
	t.AddRow("oversupplied", prod, cons, cons, m2.Pending(), m2.Pending() == prod-cons)
	return t, nil
}
