package experiments

import (
	"fmt"

	"repro/internal/launch"
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
// hermetic). Each topology runs token-by-token injection (bursts of one) and
// full bursts. Counting must stay exact in every cell: partitioning moves
// components between owners but never changes what the network counts.
func E32Partitioned(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E32",
		Title: "Partitioned multi-process runtime vs single-process (mem and tcp)",
		Claim: "spreading the cut across partitioned worker runtimes preserves exact counting and the step property; cross-partition routing is the dominant cost and a burst pays it once per round and destination",
		Headers: []string{"topology", "burst", "tokens", "ms", "us/tok",
			"rpc/burst", "wire KB", "conserved", "step"},
	}
	const (
		w       = 1 << 6
		level   = 2
		senders = 4
	)
	tokens, burst := 2048, 128
	partsSweep := []int{2, 4}
	if opts.Quick {
		tokens, burst = 512, 64
		partsSweep = []int{2}
	}
	bursts := []int{1, burst}

	ins := make([]int, tokens)
	for i := range ins {
		ins[i] = (i * 2654435761) % w
	}

	// Single-process baselines: the same cut on one fabric, mem and tcp.
	cut, err := tree.UniformCut(w, level)
	if err != nil {
		return nil, err
	}
	for _, fabric := range []string{"mem", "tcp"} {
		for _, burst := range bursts {
			env, err := buildCluster(clusterCell{
				Fabric: fabric, Width: w, Cut: cut, Retry: launch.SocketRetry(), Obs: opts.Obs,
			})
			if err != nil {
				return nil, err
			}
			ms, err := workload.InjectShares(func(batch []int) error {
				_, err := env.Cluster.InjectBatch(batch)
				return err
			}, ins, burst, senders)
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
			t.AddRow("1proc/"+fabric, burst, tokens, ms, ms*1000/float64(tokens),
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
		for _, burst := range bursts {
			spec, err := launch.AutoSpec(w, level, parts)
			if err != nil {
				return nil, err
			}
			spec.Workload = launch.Workload{
				Tokens: tokens, Burst: burst, Senders: senders,
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
			t.AddRow(fmt.Sprintf("%dproc/tcp", parts), burst, tokens, ms,
				ms*1000/float64(tokens), float64(calls)*float64(burst)/float64(tokens),
				fmt.Sprintf("%.1f", float64(wireBytes)/1024), res.Conserved, res.StepOK)
		}
	}
	t.Note("every cell drives the identical %d-token arrival sequence through the same level-%d cut (%d components) with %d senders in bursts of the row's size; the Nproc rows run the real partitioned worker runtime (per-partition fabrics, routed cross-partition visits) in one process — the same code path cmd/acnnode runs as separate OS processes", tokens, level, len(cut), senders)
	t.Note("rpc/burst is the group arrive RPCs the injecting clusters issued, per burst of the row's size: a burst pays one per round and destination fabric, so a burst of one token 1 + crossings")
	t.Note("wire KB for Nproc rows sums every partition's fabric bytes, so it includes the coordinator's control plane; the mem baseline has no wire at all")
	return t, nil
}
