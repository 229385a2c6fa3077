package workload

import (
	"fmt"

	"repro/internal/core"
)

// SizeError reports a non-positive batch or share size handed to RunBatched
// or InjectShares. Callers detect it with errors.As.
type SizeError struct {
	Op   string // the API that rejected the size, e.g. "workload: RunBatched"
	Size int    // the offending value
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: invalid size %d (must be >= 1)", e.Op, e.Size)
}

// RunStats summarizes a trace execution.
type RunStats struct {
	Tokens     int
	Batches    int // InjectBatch calls issued (RunBatched only)
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
	return run(n, client, events, arrivals, 1)
}

// RunBatched is Run with burst-shaped injection: each inject event's tokens
// are drawn from the arrival generator and handed to core.Client.InjectBatch
// in chunks of batchSize, so bursty generators (workload.Bursty,
// workload.SingleWire) reach the network as the bursts they model instead of
// being serialized into per-token calls. batchSize == 1 degenerates to Run;
// a zero or negative batchSize is rejected with a *SizeError (it used
// to degenerate silently, hiding caller bugs).
func RunBatched(n *core.Network, client *core.Client, events []Event, arrivals Arrivals, batchSize int) (RunStats, error) {
	if batchSize < 1 {
		return RunStats{}, &SizeError{Op: "workload: RunBatched", Size: batchSize}
	}
	return run(n, client, events, arrivals, batchSize)
}

func run(n *core.Network, client *core.Client, events []Event, arrivals Arrivals, batchSize int) (RunStats, error) {
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
			if batchSize > 1 {
				var buf []int
				for left := ev.Count; left > 0; {
					sz := min(batchSize, left)
					buf = buf[:0]
					for k := 0; k < sz; k++ {
						buf = append(buf, arrivals.Next())
					}
					if _, err := client.InjectBatch(buf); err != nil {
						return st, fmt.Errorf("workload: event %d: %w", i, err)
					}
					st.Tokens += sz
					st.Batches++
					left -= sz
				}
				break
			}
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
