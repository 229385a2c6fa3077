// Command acnbench runs the reproduction experiments (E1..E32, indexed in
// DESIGN.md) and prints their tables. EXPERIMENTS.md is generated from its
// output.
//
// Usage:
//
//	acnbench                 # run everything
//	acnbench -run E11,E15    # run selected experiments
//	acnbench -quick          # smaller sweeps
//	acnbench -seed 7         # different deterministic seed
//	acnbench -http :8080     # also serve /metrics, /debug/vars, /debug/pprof
//	acnbench -cpuprofile cpu.out -run E26   # write a pprof CPU profile
//	acnbench -memprofile mem.out -run E26   # write a heap profile at exit
//	acnbench -validatetrace out.json        # check a Perfetto trace export
//
// With -http, harness-level metrics (experiments completed, per-experiment
// wall time) are served for the duration of the run, alongside the expvar
// and pprof endpoints — attach a profiler to a long sweep by pointing it at
// the printed address. Experiments that build a real TCP fabric (E30, E32)
// instrument it into the same registry, so tcpnet byte counters and
// pool-health gauges (tcpnet.pool.dialing, tcpnet.pool.cooldown,
// tcpnet.conns.open) are live on /metrics and /debug/vars while they run.
//
// Performance comparisons between two commits are acnload's job (the
// benchmark module under benchmark/), not this command's.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "acnbench:", err)
		os.Exit(1)
	}
}

// serveMetrics exposes reg's export surface on addr (host:port; port 0
// picks a free one) and returns the bound address. The server lives until
// the process exits.
func serveMetrics(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	reg.PublishExpvar("acnbench")
	go func() { _ = http.Serve(ln, reg.Handler()) }()
	return ln.Addr().String(), nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("acnbench", flag.ContinueOnError)
	var (
		runIDs   = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		quick    = fs.Bool("quick", false, "smaller sweeps")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		httpAddr = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		valTrace = fs.String("validatetrace", "", "validate a trace-event JSON file (as written by acnsim -tracefile or /debug/acn/trace) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *valTrace != "" {
		f, err := os.Open(*valTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		n, err := obs.ValidateTraceEvents(f)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d trace events, valid\n", *valTrace, n)
		return nil
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acnbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "acnbench: memprofile:", err)
			}
		}()
	}

	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		bound, err := serveMetrics(*httpAddr, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "acnbench: serving metrics on http://%s/metrics\n", bound)
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Obs: reg}
	ids := experiments.IDs()
	if *runIDs != "" {
		ids = ids[:0]
		for _, id := range strings.Split(*runIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		if id == "E26" && runtime.NumCPU() == 1 {
			fmt.Fprintln(os.Stderr, "acnbench: warning: runtime.NumCPU() == 1; the E26 GOMAXPROCS sweep cannot measure parallel speedups on this host, its rows are serial baselines")
		}
		start := time.Now()
		t, err := experiments.Run(id, opts)
		if err != nil {
			return err
		}
		if reg != nil {
			reg.Counter("experiments.completed").Inc()
			reg.Histogram("experiment.seconds", 0, 120, 240).Observe(time.Since(start).Seconds())
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
