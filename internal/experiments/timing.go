package experiments

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/sim"
	"repro/internal/tree"
)

// e23Saturation turns the paper's structural claims into time using the
// discrete-event simulator: effective depth sets the unloaded latency and
// effective width sets the capacity. A centralized counter saturates at
// one node's service rate regardless of offered load; the adaptive
// network's converged cut for N nodes sustains loads far beyond it, paying
// a depth's worth of latency per token.
func e23Saturation(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E23",
		Title:   "Latency/throughput saturation (discrete-event simulation)",
		Claim:   "depth O(log^2 N) costs latency; width Omega(N/log^2 N) buys capacity (Theorem 3.6 in time units)",
		Headers: []string{"system", "offered load", "throughput", "latency p50", "latency p99", "max node util"},
	}
	const (
		w       = 1 << 12
		nodes   = 64
		service = 1.0 // one token-service per time unit per node
		link    = 0.25
	)
	tokens := 4000
	loads := []float64{0.5, 1, 2, 4}
	// The cut the maintenance rules converge to for this system size.
	level := estimate.IdealLevel(nodes, w)
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}

	for _, load := range loads {
		for _, sys := range []struct {
			name  string
			cut   tree.Cut
			nodes int
		}{
			{"centralized", tree.RootCut(), 1},
			{fmt.Sprintf("adaptive (N=%d)", nodes), cut, nodes},
		} {
			s, err := sim.New(sim.Config{
				Width: w, Cut: sys.cut, Nodes: sys.nodes,
				ServiceTime: service, LinkDelay: link,
				ArrivalRate: load, Tokens: tokens, Seed: opts.Seed,
			})
			if err != nil {
				return nil, err
			}
			res, err := s.Run()
			if err != nil {
				return nil, err
			}
			t.AddRow(sys.name, load, res.Throughput, res.LatencyP50, res.LatencyP99, res.MaxNodeBusy)
		}
	}
	t.Note("the centralized counter's throughput pins at its node's service rate regardless of offered load; the adaptive cut (%d components at level %d) keeps p50 near its depth-determined floor", len(cut), level)
	return t, nil
}
