package launch

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// idSpaceBits positions each process's request-ID base: partition i uses
// (i+1)<<48, the coordinator the top bit. 48 bits of per-process IDs is
// inexhaustible at any realistic rate, and the spaces never overlap — the
// property receiver dedup tables need.
const idSpaceBits = 48

// coordIDBase is the coordinator's request-ID space.
const coordIDBase = uint64(1) << 63

// ctlAddr is the worker's control endpoint address on its own fabric.
func ctlAddr(name string) transport.Addr { return transport.Addr("ctl:" + name) }

// ctlReq is one coordinator→worker control command, carried as JSON in a
// wire.Blob. Op selects the action; the other fields apply per-op.
type ctlReq struct {
	Op string `json:"op"` // "ping", "wire", "run", "report", "shutdown"

	// Peers (op "wire"): partition name → listener host:port, self
	// included (workers skip their own entry).
	Peers map[string]string `json:"peers,omitempty"`

	// Workload share (op "run").
	Tokens  []int `json:"tokens,omitempty"`
	Burst   int   `json:"burst,omitempty"`
	Senders int   `json:"senders,omitempty"`

	// Span page (op "spans"): a report's trace spans are pulled in
	// bounded pages so no single reply outgrows a wire frame.
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// ctlRes is the worker's reply.
type ctlRes struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	// Run timing (op "run").
	MS float64 `json:"ms,omitempty"`

	// Report payload (op "report").
	Report *Report `json:"report,omitempty"`

	// Span page (op "spans").
	Spans []*obs.Span `json:"spans,omitempty"`
	Total int         `json:"total,omitempty"`
}

// Report is one worker's end-of-run observation dump: the per-wire
// injection and emission counts its conservation share, the registry
// snapshot, and the wire counters. Spans is filled by the coordinator
// from the paged "spans" op — the report RPC itself stays small.
type Report struct {
	Name     string           `json:"name"`
	In       []int64          `json:"in"`
	Out      []int64          `json:"out"`
	Snapshot obs.Snapshot     `json:"snapshot"`
	Spans    []*obs.Span      `json:"spans,omitempty"`
	Wire     tcpnet.WireStats `json:"wire"`
}

// Worker is one partition's runtime: the fabric, the full cluster (its
// non-owned components shadowed by routes), and the control endpoint.
type Worker struct {
	Name    string
	Net     *tcpnet.Net
	Cluster *dist.Cluster
	Reg     *obs.Registry

	spec *Spec

	shutOnce sync.Once
	shutCh   chan struct{}
}

// StartWorker builds and starts the named partition from spec: fabric
// listening on the partition's address, full cluster with a disjoint
// request-ID space, observability
// (registry, tracer, server-side RPC spans), and the bound control
// endpoint. The worker serves remote traffic immediately; cross-partition
// routes are installed later by the coordinator's "wire" command, after
// every listener's address is known.
func StartWorker(spec *Spec, name string) (*Worker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, idx, err := spec.Partition(name)
	if err != nil {
		return nil, err
	}
	cut, err := spec.Cut()
	if err != nil {
		return nil, err
	}
	tn, err := tcpnet.New(tcpnet.Config{Listen: p.Listen})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	tn.Instrument(reg)

	retry := spec.Retry
	retry.IDBase = uint64(idx+1) << idSpaceBits
	opts := []dist.Option{
		dist.WithTransport(tn),
		dist.WithRetry(retry),
		dist.WithObs(reg),
	}
	if spec.TraceEvery > 0 {
		retain := spec.TraceRetain
		if retain <= 0 {
			retain = 4096
		}
		opts = append(opts, dist.WithTrace(spec.TraceEvery, retain))
	}
	w := &Worker{Name: name, Net: tn, Reg: reg, spec: spec, shutCh: make(chan struct{})}
	cl, err := dist.New(spec.Width, cut, opts...)
	if err != nil {
		_ = tn.Close()
		return nil, err
	}
	w.Cluster = cl

	// Server-side RPC observation stitches remote callers' sampled trace
	// contexts into rpc:agroup child spans on this worker's tracer — the
	// cross-process edges of the merged Perfetto timeline.
	cl.InstrumentRPC(obs.NewRPCObs(obs.RPCObsConfig{Tracer: cl.Tracer(), Registry: reg}))

	if err := tn.Bind(ctlAddr(name), w.handleCtl); err != nil {
		_ = tn.Close()
		return nil, err
	}
	return w, nil
}

// Addr is the fabric's real listen address (resolved ephemeral port).
func (w *Worker) Addr() string { return w.Net.Addr() }

// Wait blocks until a shutdown command arrives, then briefly lingers so
// the shutdown reply flushes to the coordinator before Close tears the
// listener down.
func (w *Worker) Wait() {
	<-w.shutCh
	time.Sleep(100 * time.Millisecond)
}

// Close stops the fabric. Safe after Wait or on construction-failure
// cleanup paths.
func (w *Worker) Close() error {
	return w.Net.Close()
}

// handleCtl serves one control command. Like every inbound request it runs
// on a goroutine of its own, so the long-running "run" op holds up no other
// request.
func (w *Worker) handleCtl(req transport.Request) (any, error) {
	blob, ok := req.Body.(wire.Blob)
	if !ok {
		return nil, fmt.Errorf("launch: ctl body %T", req.Body)
	}
	var c ctlReq
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("launch: ctl request: %w", err)
	}
	res := w.serve(&c)
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return wire.Blob(b), nil
}

func (w *Worker) serve(c *ctlReq) *ctlRes {
	switch c.Op {
	case "ping":
		return &ctlRes{OK: true}

	case "wire":
		if err := w.wirePeers(c.Peers); err != nil {
			return &ctlRes{Err: err.Error()}
		}
		return &ctlRes{OK: true}

	case "run":
		ms, err := w.run(c)
		if err != nil {
			return &ctlRes{Err: err.Error()}
		}
		return &ctlRes{OK: true, MS: ms}

	case "report":
		return &ctlRes{OK: true, Report: w.report()}

	case "spans":
		spans := w.Reg.TraceSpans()
		total := len(spans)
		lo := c.Offset
		if lo > total {
			lo = total
		}
		hi := lo + c.Limit
		if c.Limit <= 0 || hi > total {
			hi = total
		}
		return &ctlRes{OK: true, Spans: spans[lo:hi], Total: total}

	case "shutdown":
		w.shutOnce.Do(func() { close(w.shutCh) })
		return &ctlRes{OK: true}

	default:
		return &ctlRes{Err: fmt.Sprintf("launch: unknown ctl op %q", c.Op)}
	}
}

// wirePeers installs the cross-partition routes: every peer's owned
// component prefixes point at the peer's listener (shadowing this
// worker's local copies), and so does the peer's control endpoint.
// Re-wiring with the same map is idempotent.
func (w *Worker) wirePeers(peers map[string]string) error {
	for _, p := range w.spec.Partitions {
		if p.Name == w.Name {
			continue
		}
		addr, ok := peers[p.Name]
		if !ok {
			return fmt.Errorf("launch: wire: no address for partition %q", p.Name)
		}
		for _, comp := range p.Components {
			// "c:<path>#" captures every incarnation of the component;
			// the cut is an antichain, so no owned path is a string
			// prefix of another and the route set is unambiguous.
			if err := w.Net.Route("c:"+comp+"#", addr); err != nil {
				return err
			}
		}
		if err := w.Net.Route(string(ctlAddr(p.Name)), addr); err != nil {
			return err
		}
	}
	return nil
}

// run injects this worker's token share: Senders goroutines over
// contiguous sub-shares, Burst tokens per InjectBatch call. It returns the
// wall-clock milliseconds of the injection phase. When run returns, every
// injected token has exited the network (InjectBatch is synchronous), so a
// subsequent report op carries settled counts.
func (w *Worker) run(c *ctlReq) (float64, error) {
	burst := c.Burst
	if burst <= 0 {
		burst = 128
	}
	senders := c.Senders
	if senders <= 0 {
		senders = 1
	}
	return workload.InjectShares(func(ins []int) error {
		_, err := w.Cluster.InjectBatch(ins)
		return err
	}, c.Tokens, burst, senders)
}

// report snapshots this worker's observable state (spans travel
// separately, paged).
func (w *Worker) report() *Report {
	return &Report{
		Name:     w.Name,
		In:       w.Cluster.InCounts(),
		Out:      w.Cluster.OutCounts(),
		Snapshot: w.Reg.Snapshot(),
		Wire:     w.Net.WireStats(),
	}
}
