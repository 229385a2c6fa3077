package experiments

import (
	"fmt"
	"time"

	"repro/internal/launch"
	"repro/internal/transport"
	"repro/internal/tree"
	"repro/internal/workload"
)

// E32Partitioned prices partitioning the cluster across OS-process-style
// boundaries: the same arrival sequence driven through one cluster on
// the in-process fabric, one cluster on a TCP loopback fabric, and
// 2-way / 4-way partitioned launches where each partition is a full
// worker runtime on its own fabric and every cross-partition component
// visit is a routed RPC (internal/launch — exactly what cmd/acnnode runs
// as separate processes, here in-process so the experiment stays
// hermetic). Each topology runs sequential and group-batched injection. Counting must stay exact in every cell: partitioning moves
// components between owners but never changes what the network counts.
func E32Partitioned(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E32",
		Title: "Partitioned multi-process runtime vs single-process (mem and tcp)",
		Claim: "spreading the cut across partitioned worker runtimes preserves exact counting and the step property; cross-partition routing is the dominant cost and group batching pays it once per group",
		Headers: []string{"topology", "mode", "tokens", "ms", "us/tok",
			"rpc/burst", "wire KB", "conserved", "step"},
	}
	const (
		w       = 1 << 6
		level   = 2
		senders = 4
	)
	tokens, burst := 2048, 128
	partsSweep := []int{2, 4}
	modes := []string{"seq", "group"}
	if opts.Quick {
		tokens, burst = 512, 64
		partsSweep = []int{2}
	}

	ins := make([]int, tokens)
	for i := range ins {
		ins[i] = (i * 2654435761) % w
	}

	// Single-process baselines: the same cut on one fabric, mem and tcp.
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}
	retry := transport.RetryConfig{
		Timeout:    50 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    100 * time.Microsecond,
		BackoffCap: 2 * time.Millisecond,
	}
	for _, fabric := range []string{"mem", "tcp"} {
		for _, mode := range modes {
			env, err := buildCluster(clusterCell{
				Fabric: fabric, Width: w, Cut: cut, Retry: retry, Obs: opts.Obs,
			})
			if err != nil {
				return nil, err
			}
			ms, err := workload.InjectShares(launch.InjectPath(env.Cluster, mode), ins, burst, senders)
			if err != nil {
				return nil, err
			}
			wireKB := "-"
			if kb := env.WireKB(); kb >= 0 {
				wireKB = fmt.Sprintf("%.1f", kb)
			}
			conserved := env.Cluster.OutCounts().Total() == env.Cluster.InCounts().Total()
			stepErr := env.Cluster.CheckStep()
			_, cs := env.Cluster.NetStats()
			t.AddRow("1proc/"+fabric, mode, tokens, ms, ms*1000/float64(tokens),
				float64(cs.Calls)*float64(burst)/float64(tokens), wireKB, conserved, stepErr == nil)
			if err := env.Close(); err != nil {
				return nil, err
			}
		}
	}

	// Partitioned topologies: the launch runtime splits the same cut
	// round-robin over N workers; the coordinator drives the identical
	// arrival sequence through the ctl plane.
	for _, parts := range partsSweep {
		for _, mode := range modes {
			spec, err := launch.AutoSpec(w, level, parts)
			if err != nil {
				return nil, err
			}
			spec.Retry = retry
			spec.Workload = launch.Workload{
				Tokens: tokens, Burst: burst, Senders: senders, Mode: mode,
			}
			coord, workers, err := launch.StartInProc(spec)
			if err != nil {
				return nil, err
			}
			var calls uint64 // group arrive RPCs: a worker's cluster sends nothing else
			ms, res, err := func() (float64, *launch.Result, error) {
				defer func() {
					_ = coord.Close()
					for _, wk := range workers {
						_ = wk.Close()
					}
				}()
				ms, err := coord.Run()
				if err != nil {
					return 0, nil, err
				}
				res, err := coord.Gather()
				if err != nil {
					return 0, nil, err
				}
				for _, wk := range workers {
					_, cs := wk.Cluster.NetStats()
					calls += cs.Calls
				}
				return ms, res, coord.Shutdown()
			}()
			if err != nil {
				return nil, err
			}
			var wireBytes uint64
			for _, rep := range res.Parts {
				wireBytes += rep.Wire.BytesIn + rep.Wire.BytesOut
			}
			t.AddRow(fmt.Sprintf("%dproc/tcp", parts), mode, tokens, ms,
				ms*1000/float64(tokens), float64(calls)*float64(burst)/float64(tokens),
				fmt.Sprintf("%.1f", float64(wireBytes)/1024), res.Conserved, res.StepOK)
		}
	}
	t.Note("every cell drives the identical %d-token arrival sequence through the same level-%d cut (%d components) with %d senders in %d-token bursts; the Nproc rows run the real partitioned worker runtime (per-partition fabrics, namespaced token endpoints, routed cross-partition visits) in one process — the same code path cmd/acnnode runs as separate OS processes", tokens, level, len(cut), senders, burst)
	t.Note("rpc/burst is the group arrive RPCs the injecting clusters issued, per %d tokens: a group burst pays one per round and destination fabric, a sequential one (a batch of one token at a time) 1 + crossings per token", burst)
	t.Note("wire KB for Nproc rows sums every partition's fabric bytes, so it includes the coordinator's control plane; the mem baseline has no wire at all")
	return t, nil
}
