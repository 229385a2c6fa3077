package experiments

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/tree"
)

// clusterCell describes one experiment cell's fabric and cluster; the
// zero Fabric is "mem". Every dist-over-a-fabric experiment (E24, E32)
// builds its cells through buildCluster so the mem/tcp/faulty setup —
// construction order, instrumentation, teardown — is one shared path
// instead of a switch block per experiment.
type clusterCell struct {
	Fabric string // "mem" (default), "tcp", "faulty"
	Width  int
	Cut    tree.Cut
	Retry  transport.RetryConfig
	Fault  transport.FaultConfig // knobs for the "faulty" fabric
	Obs    *obs.Registry         // instruments a tcp fabric when non-nil
}

// fabricEnv is a built cell: the cluster plus whichever concrete fabric
// backs it, for the stats only that fabric exposes (WireStats,
// Latencies). Close releases fabric resources and is safe on every
// variant.
type fabricEnv struct {
	Cluster *dist.Cluster
	TCP     *tcpnet.Net       // non-nil for the "tcp" fabric
	Faulty  *transport.Faulty // non-nil for the "faulty" fabric
}

// Close shuts the fabric down (a no-op for fabrics without resources).
func (e *fabricEnv) Close() error {
	if e.TCP != nil {
		return e.TCP.Close()
	}
	return nil
}

// WireKB reports the fabric's total bytes moved, in KiB, or -1 when the
// fabric has no wire.
func (e *fabricEnv) WireKB() float64 {
	if e.TCP == nil {
		return -1
	}
	ws := e.TCP.WireStats()
	return float64(ws.BytesIn+ws.BytesOut) / 1024
}

// buildCluster builds one cell: the fabric c.Fabric selects, then the
// cluster on top of it through the options constructor.
func buildCluster(c clusterCell) (*fabricEnv, error) {
	env := &fabricEnv{}
	var tr transport.Transport
	switch c.Fabric {
	case "", "mem":
		tr = transport.NewMem()
	case "tcp":
		tn, err := tcpnet.New(tcpnet.Config{})
		if err != nil {
			return nil, err
		}
		if c.Obs != nil {
			tn.Instrument(c.Obs)
		}
		env.TCP = tn
		tr = tn
	case "faulty":
		env.Faulty = transport.NewFaulty(transport.NewMem(), c.Fault)
		tr = env.Faulty
	default:
		return nil, fmt.Errorf("experiments: unknown fabric %q", c.Fabric)
	}
	cl, err := dist.New(c.Width, c.Cut, dist.WithTransport(tr), dist.WithRetry(c.Retry))
	if err != nil {
		_ = env.Close()
		return nil, err
	}
	env.Cluster = cl
	return env, nil
}
