package cutnet

import (
	"encoding/json"
	"fmt"

	"repro/internal/tree"
)

// Snapshot is the serializable state of a cut network: the cut, every
// component's total, and the edge counters. It captures everything needed
// to resume counting exactly where the network left off (e.g. for node
// state hand-off or operational checkpointing).
type Snapshot struct {
	Width    int               `json:"width"`
	Totals   map[string]uint64 `json:"totals"` // path -> component total
	Injected []int64           `json:"injected"`
	Out      []int64           `json:"out"`
	Splits   int64             `json:"splits"`
	Merges   int64             `json:"merges"`
}

// Snapshot captures the current state. The caller must ensure quiescence
// (no Inject in flight).
func (n *Net) Snapshot() Snapshot {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := Snapshot{
		Width:    n.width,
		Totals:   make(map[string]uint64, len(n.live)),
		Injected: n.InCounts(),
		Out:      n.OutCounts(),
		Splits:   n.splits,
		Merges:   n.merges,
	}
	for _, st := range n.live {
		s.Totals[string(st.Comp.Path)] = st.Total()
	}
	return s
}

// MarshalJSON encodes the network state.
func (n *Net) MarshalJSON() ([]byte, error) {
	return json.Marshal(n.Snapshot())
}

// Restore builds a network from a snapshot.
func Restore(s Snapshot) (*Net, error) {
	cut := make(tree.Cut, len(s.Totals))
	for p := range s.Totals {
		cut[tree.Path(p)] = true
	}
	n, err := New(s.Width, cut)
	if err != nil {
		return nil, err
	}
	if len(s.Injected) != s.Width || len(s.Out) != s.Width {
		return nil, fmt.Errorf("cutnet: snapshot counters have wrong width")
	}
	for _, st := range n.live {
		st.SetTotal(s.Totals[string(st.Comp.Path)])
	}
	for i := range n.injected {
		n.injected[i].Store(s.Injected[i])
		n.out[i].Store(s.Out[i])
	}
	n.splits, n.merges = s.Splits, s.Merges
	return n, nil
}

// RestoreJSON decodes a network from MarshalJSON output.
func RestoreJSON(data []byte) (*Net, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("cutnet: %w", err)
	}
	return Restore(s)
}
