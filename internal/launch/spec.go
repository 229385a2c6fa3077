// Package launch is the partitioned multi-process runtime: it spreads one
// dist.Cluster's components across several OS processes — each running its
// own tcpnet fabric — and wires them together with address-prefix routes.
//
// The model: every worker builds the *identical* full cluster on its own
// fabric (tree.Cut.Components iterates in sorted order and partitioned
// runs never reconfigure, so component addresses "c:<path>#<gen>" agree
// across processes byte for byte). Each worker owns a subset of the cut;
// for every component it does not own it installs a Route sending that
// component's address prefix to the owner's listener, so its local copy
// is shadowed and the owner's copy is the single authority. Nothing is
// ever addressed to a token: a worker's batches send group arrives and
// read the replies, so only component and control addresses are routed.
// Each partition's retry client draws request IDs from a disjoint range
// (transport.RetryConfig.IDBase) so receiver dedup tables never alias
// calls from different processes.
//
// A coordinator process reads the same Spec, bootstraps the workers
// (readiness handshake, graceful shutdown), drives the workload over a
// small JSON-over-RPC control plane (wire.KindCtl), verifies count
// conservation across processes, and merges the per-worker metrics
// snapshots and trace spans into one registry dump and one Perfetto file.
package launch

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/transport"
	"repro/internal/tree"
)

// Workload is the token stream the coordinator drives through the
// partitioned cluster.
type Workload struct {
	// Tokens is the total token count, split contiguously across
	// partitions (every partition injects its share concurrently).
	Tokens int `json:"tokens"`
	// Burst is the application-level burst handed to one InjectBatch
	// call. Zero means 128.
	Burst int `json:"burst"`
	// Senders is the number of concurrent injecting goroutines per
	// partition. Zero means 1.
	Senders int `json:"senders"`
}

// Partition assigns one worker process its identity: a unique name, a
// listen address, and the component paths it owns.
type Partition struct {
	// Name is the partition's identity: it names the worker's control
	// endpoint and its Perfetto process row. Must be unique, must not
	// contain ':', and no name may be a prefix of another (names are used
	// as route prefixes).
	Name string `json:"name"`
	// Listen is the worker's host:port; empty means "127.0.0.1:0"
	// (loopback, kernel-assigned port — the coordinator learns the real
	// address from the readiness handshake).
	Listen string `json:"listen,omitempty"`
	// Components are the decomposition-tree paths this partition owns
	// (digit strings; "" is the root). The union over all partitions
	// must be exactly the spec's cut.
	Components []string `json:"components"`
}

// Spec is the JSON topology document both the coordinator and every
// worker read: the network shape, the partition map, and the workload.
type Spec struct {
	// Width is the counting network width (a power of two).
	Width int `json:"width"`
	// Level selects the uniform cut UniformCut(Width, Level) whose
	// components the partitions divide up.
	Level int `json:"level"`
	// Partitions maps workers to the components they own.
	Partitions []Partition `json:"partitions"`
	// Retry is the per-worker retry policy for token traffic. Left zero,
	// it is SocketRetry; otherwise its zero fields take
	// transport.DefaultRetry values. IDBase is overridden per partition by
	// the launcher and need not be set.
	Retry transport.RetryConfig `json:"retry,omitempty"`
	// TraceEvery samples one batch trace in every TraceEvery (0 disables
	// tracing, 1 traces everything); TraceRetain bounds retained spans.
	TraceEvery  int `json:"trace_every,omitempty"`
	TraceRetain int `json:"trace_retain,omitempty"`
	// Workload is what the coordinator injects.
	Workload Workload `json:"workload"`
}

// SocketRetry is the retry policy of token traffic between workers whose
// Spec leaves Retry zero. Workers talk over real sockets, where on
// a loaded host a reply can wait on the scheduler far longer than
// transport.DefaultRetry's 2 ms timeout, which is tuned for the in-memory
// fault injector, allows.
func SocketRetry() transport.RetryConfig {
	return transport.RetryConfig{
		Timeout:    50 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}
}

// Cut derives the spec's decomposition cut.
func (s *Spec) Cut() (tree.Cut, error) { return tree.UniformCut(s.Width, s.Level) }

// Partition returns the named partition and its index, or an error
// naming the known partitions.
func (s *Spec) Partition(name string) (*Partition, int, error) {
	for i := range s.Partitions {
		if s.Partitions[i].Name == name {
			return &s.Partitions[i], i, nil
		}
	}
	var names []string
	for _, p := range s.Partitions {
		names = append(names, p.Name)
	}
	return nil, 0, fmt.Errorf("launch: unknown partition %q (have %s)", name, strings.Join(names, ", "))
}

// Validate checks the spec's structural invariants: a valid cut, unique
// prefix-free partition names, and a partition map that covers the cut
// exactly — every cut path owned by exactly one partition, no path owned
// that is not in the cut.
func (s *Spec) Validate() error {
	cut, err := s.Cut()
	if err != nil {
		return fmt.Errorf("launch: spec cut: %w", err)
	}
	if err := cut.Validate(s.Width); err != nil {
		return fmt.Errorf("launch: spec cut: %w", err)
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("launch: spec has no partitions")
	}
	names := map[string]bool{}
	owned := map[tree.Path]string{}
	for _, p := range s.Partitions {
		if p.Name == "" {
			return fmt.Errorf("launch: partition with empty name")
		}
		if strings.Contains(p.Name, ":") {
			return fmt.Errorf("launch: partition name %q contains ':'", p.Name)
		}
		if names[p.Name] {
			return fmt.Errorf("launch: duplicate partition name %q", p.Name)
		}
		names[p.Name] = true
		for _, c := range p.Components {
			path := tree.Path(c)
			if !cut[path] {
				return fmt.Errorf("launch: partition %q owns %q, not a member of the level-%d cut", p.Name, c, s.Level)
			}
			if prev, dup := owned[path]; dup {
				return fmt.Errorf("launch: component %q owned by both %q and %q", c, prev, p.Name)
			}
			owned[path] = p.Name
		}
	}
	// Prefix-free names keep "ctl:<name>" unambiguous as a route prefix
	// even before longest-prefix resolution breaks ties.
	for a := range names {
		for b := range names {
			if a != b && strings.HasPrefix(b, a) {
				return fmt.Errorf("launch: partition name %q is a prefix of %q", a, b)
			}
		}
	}
	if len(owned) != len(cut) {
		for _, path := range cut.Paths() {
			if _, ok := owned[path]; !ok {
				return fmt.Errorf("launch: cut component %q owned by no partition", string(path))
			}
		}
	}
	return nil
}

// withDefaults fills the zero-value workload knobs.
func (w Workload) withDefaults() Workload {
	if w.Tokens <= 0 {
		w.Tokens = 1024
	}
	if w.Burst <= 0 {
		w.Burst = 128
	}
	if w.Senders <= 0 {
		w.Senders = 1
	}
	return w
}

// AutoSpec builds a spec that spreads UniformCut(width, level) round-robin
// over parts partitions named "p0".."p<parts-1>", all listening on
// loopback ephemeral ports.
func AutoSpec(width, level, parts int) (*Spec, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("launch: %d partitions", parts)
	}
	cut, err := tree.UniformCut(width, level)
	if err != nil {
		return nil, err
	}
	s := &Spec{Width: width, Level: level, Partitions: make([]Partition, parts)}
	for i := range s.Partitions {
		s.Partitions[i].Name = fmt.Sprintf("p%d", i)
	}
	for i, path := range cut.Paths() {
		p := &s.Partitions[i%parts]
		p.Components = append(p.Components, string(path))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("launch: spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &s, nil
}

// Save writes the spec as indented JSON.
func (s *Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
