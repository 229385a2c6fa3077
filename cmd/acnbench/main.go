// Command acnbench runs the reproduction experiments (E1..E29, indexed in
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
//	acnbench -memprofile mem.out -run E20   # write a heap profile at exit
//	acnbench -validatetrace out.json        # check a Perfetto trace export
//	go test -bench . -benchmem | acnbench -json -label post > bench.json
//	acnbench -compare old.json new.json -maxregress 15   # CI regression gate
//	acnbench -compare BENCH_9.json          # gate a pre/post file against itself
//
// With -http, harness-level metrics (experiments completed, per-experiment
// wall time) are served for the duration of the run, alongside the expvar
// and pprof endpoints — attach a profiler to a long sweep by pointing it at
// the printed address. Experiments that build a real TCP fabric (E28, E29)
// instrument it into the same registry, so tcpnet byte counters and
// pool-health gauges (tcpnet.pool.dialing, tcpnet.pool.cooldown,
// tcpnet.conns.open) are live on /metrics and /debug/vars while they run.
//
// With -json, acnbench runs no experiments: it reads `go test -bench`
// output on stdin and writes the repo's BENCH_*.json baseline format to
// stdout (see internal/stats.ParseGoBench).
//
// With -compare, acnbench reads two baseline files (as written by -json /
// `make bench-baseline`), prints per-benchmark ns/op and allocs/op deltas,
// and exits nonzero when any shared benchmark's ns/op regressed beyond
// -maxregress percent. `make bench-compare OLD=a.json NEW=b.json` wraps it
// as the perf-regression CI gate. Given a single file, -compare gates the
// file against itself — first run vs last run — so a checked-in pre/post
// baseline (BENCH_N.json) is continuously re-verified by `make check`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/stats"
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

// writeBenchRun writes one run in the BENCH_*.json baseline format. A run
// stamped num_cpu 1 is refused unless forced, as acnload --out refuses it:
// on such a host nothing ran in parallel, and every baseline file written
// from one so far hid what the concurrent paths cost on real cores.
func writeBenchRun(w io.Writer, run stats.BenchRun, force bool) error {
	if run.NumCPU == 1 && !force {
		return errors.New("refusing to write a BENCH file from a 1-CPU host (nothing in it ran in parallel); pass -force to override")
	}
	return stats.WriteBenchJSON(w, []stats.BenchRun{run})
}

func run(args []string) error {
	fs := flag.NewFlagSet("acnbench", flag.ContinueOnError)
	var (
		runIDs     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		quick      = fs.Bool("quick", false, "smaller sweeps")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
		jsonOut    = fs.Bool("json", false, "convert `go test -bench` output on stdin to BENCH_*.json format on stdout")
		label      = fs.String("label", "", "run label for -json output (e.g. pre, post, a git revision)")
		force      = fs.Bool("force", false, "with -json, write the baseline even on a 1-CPU host")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		valTrace   = fs.String("validatetrace", "", "validate a trace-event JSON file (as written by acnsim -tracefile or /debug/acn/trace) and exit")
		compare    = fs.Bool("compare", false, "compare two BENCH_*.json baselines: acnbench -compare old.json new.json")
		maxRegress = fs.Float64("maxregress", 10, "with -compare, fail when any shared benchmark's ns/op regresses by more than this percentage")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		switch fs.NArg() {
		case 1:
			return compareBenchFile(fs.Arg(0), *maxRegress)
		case 2:
			return compareBench(fs.Arg(0), fs.Arg(1), *maxRegress)
		default:
			return fmt.Errorf("-compare needs one baseline file (first vs last run) or two (old new), got %d args", fs.NArg())
		}
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
	if *jsonOut {
		run, err := stats.ParseGoBench(os.Stdin)
		if err != nil {
			return err
		}
		run.Label = *label
		run.StampHost()
		return writeBenchRun(os.Stdout, run, *force)
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
