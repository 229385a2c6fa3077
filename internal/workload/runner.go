package workload

import (
	"fmt"

	"repro/internal/core"
)

// RunStats summarizes a trace execution.
type RunStats struct {
	Tokens     int
	Joins      int
	Leaves     int
	Crashes    int
	Maintains  int
	Repairs    int
	MaxRounds  int // largest fixpoint-convergence round count observed
	FinalNodes int
	FinalComps int
}

// Run applies a churn trace to an adaptive network, drawing token input
// wires from the given arrival generator, and verifies the step property
// at the end.
func Run(n *core.Network, client *core.Client, events []Event, arrivals Arrivals) (RunStats, error) {
	var st RunStats
	for i, ev := range events {
		switch ev.Kind {
		case EventJoin:
			n.AddNodes(ev.Count)
			st.Joins += ev.Count
		case EventLeave:
			for k := 0; k < ev.Count; k++ {
				if _, err := n.RemoveRandomNode(); err != nil {
					return st, fmt.Errorf("workload: event %d: %w", i, err)
				}
				st.Leaves++
			}
		case EventCrash:
			for k := 0; k < ev.Count; k++ {
				if _, err := n.CrashRandomNode(); err != nil {
					return st, fmt.Errorf("workload: event %d: %w", i, err)
				}
				st.Crashes++
			}
		case EventInject:
			for k := 0; k < ev.Count; k++ {
				if _, err := client.InjectAt(arrivals.Next()); err != nil {
					return st, fmt.Errorf("workload: event %d: %w", i, err)
				}
				st.Tokens++
			}
		case EventMaintain:
			rounds, err := n.MaintainToFixpoint(200)
			if err != nil {
				return st, fmt.Errorf("workload: event %d: %w", i, err)
			}
			if rounds > st.MaxRounds {
				st.MaxRounds = rounds
			}
			st.Maintains++
		case EventStabilize:
			repaired, err := n.Stabilize()
			if err != nil {
				return st, fmt.Errorf("workload: event %d: %w", i, err)
			}
			st.Repairs += repaired
		default:
			return st, fmt.Errorf("workload: event %d: unknown kind %v", i, ev.Kind)
		}
	}
	st.FinalNodes = n.NumNodes()
	st.FinalComps = n.NumComponents()
	if err := n.CheckStep(); err != nil {
		return st, fmt.Errorf("workload: post-trace check: %w", err)
	}
	return st, nil
}
