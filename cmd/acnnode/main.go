// Command acnnode is the partitioned multi-process runtime. One binary,
// two modes:
//
// Worker mode runs a single partition of a topology spec — its own
// tcpnet fabric, the full cluster with non-owned components shadowed by
// routes, and the control endpoint — and announces itself on stdout:
//
//	acnnode -spec topo.json -partition p0
//	ACNNODE READY p0 127.0.0.1:40731
//
// Coordinator mode spawns one worker subprocess per partition, collects
// their readiness handshakes, wires the cross-partition routes, drives
// the spec's workload, verifies count conservation across processes, and
// merges the per-worker metrics and trace spans:
//
//	acnnode -coord -spec topo.json -tracefile trace.json -metricsfile metrics.json
//
// Without -spec, coordinator mode builds an automatic topology from
// -width/-level/-parts and the workload flags:
//
//	acnnode -coord -width 16 -level 2 -parts 2 -tokens 2048 -burst 1
//
// The coordinator exits nonzero when conservation or the step property
// fails, or when tracing was on but no trace stitched across processes —
// the same gates `make partsmoke` relies on.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/launch"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acnnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("acnnode", flag.ContinueOnError)
	var (
		specPath  = fs.String("spec", "", "topology spec JSON (required in worker mode)")
		partition = fs.String("partition", "", "worker mode: run this partition of the spec")
		coord     = fs.Bool("coord", false, "coordinator mode: spawn workers, drive the workload, merge results")

		// Auto-topology knobs (coordinator mode without -spec).
		width      = fs.Int("width", 16, "without -spec: counting network width")
		level      = fs.Int("level", 2, "without -spec: uniform cut level")
		parts      = fs.Int("parts", 2, "without -spec: number of worker processes")
		tokens     = fs.Int("tokens", 1024, "without -spec: total tokens to inject")
		burst      = fs.Int("burst", 128, "without -spec: tokens per injection call")
		senders    = fs.Int("senders", 2, "without -spec: concurrent senders per worker")
		traceEvery = fs.Int("traceevery", 16, "without -spec: sample one batch trace in every N (0 disables)")

		tracefile   = fs.String("tracefile", "", "coordinator: write the merged Perfetto trace here")
		metricsfile = fs.String("metricsfile", "", "coordinator: write the merged registry snapshot as JSON here")
		writespec   = fs.String("writespec", "", "coordinator: also save the (possibly auto-built) spec here")
		bootWait    = fs.Duration("bootwait", 15*time.Second, "coordinator: readiness handshake deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *coord:
		return runCoord(*specPath, *tracefile, *metricsfile, *writespec, *bootWait, autoTopo{
			width: *width, level: *level, parts: *parts,
			tokens: *tokens, burst: *burst, senders: *senders,
			traceEvery: *traceEvery,
		})
	case *partition != "":
		if *specPath == "" {
			return fmt.Errorf("worker mode needs -spec")
		}
		return runWorker(*specPath, *partition)
	default:
		return fmt.Errorf("need -coord or -partition (see -h)")
	}
}

// runWorker serves one partition until the coordinator's shutdown
// command arrives. The READY line on stdout is the handshake the
// coordinator scans for; everything else the worker has to say goes to
// stderr.
func runWorker(specPath, name string) error {
	spec, err := launch.Load(specPath)
	if err != nil {
		return err
	}
	w, err := launch.StartWorker(spec, name)
	if err != nil {
		return err
	}
	fmt.Printf("ACNNODE READY %s %s\n", name, w.Addr())
	w.Wait()
	return w.Close()
}

// autoTopo are the coordinator's flags for building a spec when none was
// given on disk.
type autoTopo struct {
	width, level, parts    int
	tokens, burst, senders int
	traceEvery             int
}

// runCoord is coordinator mode: resolve the spec, spawn one worker
// subprocess per partition, drive the run, and gate the results.
func runCoord(specPath, tracefile, metricsfile, writespec string, bootWait time.Duration, auto autoTopo) error {
	var spec *launch.Spec
	var err error
	if specPath != "" {
		if spec, err = launch.Load(specPath); err != nil {
			return err
		}
	} else {
		if spec, err = launch.AutoSpec(auto.width, auto.level, auto.parts); err != nil {
			return err
		}
		spec.Workload = launch.Workload{
			Tokens: auto.tokens, Burst: auto.burst,
			Senders: auto.senders,
		}
		spec.TraceEvery = auto.traceEvery
		// Workers re-read the spec from disk, so an auto-built one must
		// land in a file.
		dir, err := os.MkdirTemp("", "acnnode")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		specPath = filepath.Join(dir, "topo.json")
		if err := spec.Save(specPath); err != nil {
			return err
		}
	}
	if writespec != "" {
		if err := spec.Save(writespec); err != nil {
			return err
		}
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// Each child gets exactly one Wait, in its scanner goroutine (after
	// its stdout hits EOF, which is when the child exits); done closes
	// once the child is fully reaped. The deferred Kill is the backstop
	// for every early-return path — on the happy path the workers have
	// already exited and Kill is a no-op error we ignore.
	type child struct {
		name string
		cmd  *exec.Cmd
		done chan struct{}
	}
	children := make([]*child, 0, len(spec.Partitions))
	defer func() {
		for _, ch := range children {
			if ch.cmd.Process != nil {
				_ = ch.cmd.Process.Kill()
			}
			<-ch.done
		}
	}()

	// Spawn every worker and scan its stdout for the readiness line; the
	// rest of each child's stdout is forwarded to stderr under its name.
	type ready struct {
		name, addr string
		err        error
	}
	readyCh := make(chan ready, len(spec.Partitions))
	for _, p := range spec.Partitions {
		cmd := exec.Command(exe, "-spec", specPath, "-partition", p.Name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn %s: %w", p.Name, err)
		}
		ch := &child{name: p.Name, cmd: cmd, done: make(chan struct{})}
		children = append(children, ch)
		go func(ch *child, out *bufio.Scanner) {
			defer close(ch.done)
			announced := false
			for out.Scan() {
				line := out.Text()
				if !announced {
					fields := strings.Fields(line)
					if len(fields) == 4 && fields[0] == "ACNNODE" && fields[1] == "READY" && fields[2] == ch.name {
						readyCh <- ready{name: ch.name, addr: fields[3]}
						announced = true
						continue
					}
				}
				fmt.Fprintf(os.Stderr, "[%s] %s\n", ch.name, line)
			}
			_ = ch.cmd.Wait()
			if !announced {
				readyCh <- ready{name: ch.name, err: fmt.Errorf("worker %s exited before READY", ch.name)}
			}
		}(ch, bufio.NewScanner(out))
	}

	addrs := make(map[string]string, len(spec.Partitions))
	boot := time.After(bootWait)
	for len(addrs) < len(spec.Partitions) {
		select {
		case r := <-readyCh:
			if r.err != nil {
				return r.err
			}
			addrs[r.name] = r.addr
			fmt.Fprintf(os.Stderr, "acnnode: %s ready on %s\n", r.name, r.addr)
		case <-boot:
			return fmt.Errorf("readiness handshake timed out after %s (%d/%d workers up)",
				bootWait, len(addrs), len(spec.Partitions))
		}
	}

	c, err := launch.NewCoordinator(spec, addrs)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return err
	}
	if err := c.Wire(); err != nil {
		return err
	}
	ms, err := c.Run()
	if err != nil {
		return err
	}
	res, err := c.Gather()
	if err != nil {
		return err
	}

	// Graceful shutdown first; the deferred Kill is only the backstop.
	if err := c.Shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "acnnode: shutdown:", err)
	}
	grace := time.After(5 * time.Second)
	for _, ch := range children {
		select {
		case <-ch.done:
		case <-grace:
			fmt.Fprintln(os.Stderr, "acnnode: workers slow to exit; killing")
		}
	}

	fmt.Printf("acnnode: %d workers, %d tokens in, %d out, run %.1fms\n",
		len(spec.Partitions), res.In.Total(), res.Out.Total(), ms)
	fmt.Printf("acnnode: conserved=%v step=%v crosstraces=%d\n",
		res.Conserved, res.StepOK, res.CrossTraces)

	if tracefile != "" {
		if err := writeTrace(tracefile, res); err != nil {
			return err
		}
		fmt.Printf("acnnode: merged trace -> %s\n", tracefile)
	}
	if metricsfile != "" {
		b, err := json.MarshalIndent(res.Merged, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsfile, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("acnnode: merged metrics -> %s\n", metricsfile)
	}

	if !res.Conserved {
		return fmt.Errorf("count conservation violated: in %d, out %d", res.In.Total(), res.Out.Total())
	}
	if !res.StepOK {
		return fmt.Errorf("summed outputs violate the step property")
	}
	if spec.TraceEvery > 0 && res.CrossTraces < 1 {
		return fmt.Errorf("tracing was on but no trace crossed processes")
	}
	return nil
}

// writeTrace exports the merged Perfetto timeline, one process row per
// partition.
func writeTrace(path string, res *launch.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEventsParts(f, res.TraceParts()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
