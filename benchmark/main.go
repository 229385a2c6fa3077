// Command acnload is the repository's benchmark: four closed-loop workloads
// measured end to end and layer by layer, with a counting oracle after every
// repetition. BENCHMARK.json at the root of the repository names the command
// and the metrics; README.md in this directory explains them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// meta describes the host and settings a result document was measured with.
type meta struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Senders    int     `json:"senders"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	WindowS    float64 `json:"window_s"`
	Trace      string  `json:"trace"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Fabric     string  `json:"fabric"`
}

// document is what -out writes and -compare reads.
type document struct {
	Meta      meta                            `json:"meta"`
	Workloads map[string]map[string]metricOut `json:"workloads"`
}

// result is the last line of standard output when one workload was run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     string
	out       string
	tracefile string
	smoke     bool
	force     bool
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run: core-steady, core-churn, tcp-token, tcp-burst or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per workload, split evenly over the repetitions")
	flag.IntVar(&o.reps, "reps", 10, "repetitions per workload, each on a freshly built system")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced repetitions and probes; both: a full set")
	flag.StringVar(&o.out, "out", "", "write the result document (what -compare reads) to this file")
	flag.StringVar(&o.tracefile, "tracefile", "", "write the last traced repetition's spans as Perfetto trace events to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "0.3 s windows, 1 repetition, probes at 1/100 iterations")
	flag.BoolVar(&o.force, "force", false, "write -out even on a 1-CPU host")
	flag.BoolVar(&compare, "compare", false, "compare two result documents: acnload -compare a.json b.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: acnload -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acnload:", err)
	os.Exit(2)
}

// schedule lists one workload's repetitions, true for a traced one.
func schedule(trace string, reps int) ([]bool, error) {
	var s []bool
	switch trace {
	case "0":
		s = make([]bool, reps)
	case "1": // alternate, so the tracing overhead is read off neighbours in time
		for i := 0; i < max(reps, 2); i++ {
			s = append(s, i%2 == 1)
		}
	case "both":
		s = append(make([]bool, reps), true)
	default:
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", trace)
	}
	return s, nil
}

// run measures the chosen workloads and prints every metric by name and unit;
// it reports whether every repetition counted exactly.
func run(o options, w io.Writer) (bool, error) {
	if o.smoke {
		o.reps = 1
	}
	if o.reps < 1 || o.seconds <= 0 {
		return false, errors.New("-reps and -seconds must be positive")
	}
	sched, err := schedule(o.trace, o.reps)
	if err != nil {
		return false, err
	}
	n := len(sched)
	if o.trace == "both" { // the traced repetition rides on top of -seconds
		n = o.reps
	}
	window := time.Duration(o.seconds / float64(n) * float64(time.Second))
	probeScale := 1
	if o.smoke {
		window, probeScale = 300*time.Millisecond, 100
	}
	var chosen []*workloadDef
	for i := range workloads {
		if o.workload == "all" || o.workload == workloads[i].name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 {
		return false, fmt.Errorf("-workload %q: no such workload", o.workload)
	}

	senders := min(runtime.NumCPU(), 4)
	doc := document{
		Meta: meta{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Senders: senders,
			Seed: o.seed, Seconds: o.seconds, Reps: o.reps, WindowS: window.Seconds(), Trace: o.trace,
			GoVersion: runtime.Version(), Commit: commit(),
			Fabric: "tcp-* run over one tcpnet.Net on the host's loopback interface, not a real link",
		},
		Workloads: make(map[string]map[string]metricOut),
	}

	// Repetitions go round-robin across workloads so host drift hits all of
	// them equally; each workload keeps its own sample buffers.
	reps := make(map[string][]*repResult)
	buffers := make(map[string][]*sampler)
	for _, wl := range chosen {
		capacity := int(float64(wl.maxOpRate)*window.Seconds())*stretch + 1024
		for s := 0; s < senders; s++ {
			buffers[wl.name] = append(buffers[wl.name], newSampler(capacity))
		}
	}
	for i, traced := range sched {
		for _, wl := range chosen {
			cfg := repConfig{seed: o.seed*1000 + int64(i), senders: senders, window: window, traced: traced, export: o.tracefile != ""}
			r, err := runRep(wl, cfg, buffers[wl.name])
			if err != nil {
				return false, err
			}
			reps[wl.name] = append(reps[wl.name], r)
		}
	}
	var probes map[string]float64
	if o.trace != "0" {
		if probes, err = runProbes(o.seed, probeScale); err != nil {
			return false, err
		}
	}

	ok := true
	var res result
	for _, wl := range chosen {
		ms, err := aggregate(wl.name, reps[wl.name], probes)
		if err != nil {
			return false, err
		}
		doc.Workloads[wl.name] = ms
		for i, r := range reps[wl.name] {
			res.Attempted += r.attempted
			res.Failed += r.failed
			if r.oracleErr != nil {
				ok = false
				fmt.Fprintf(os.Stderr, "acnload: %s rep %d: counting oracle: %v\n", wl.name, i, r.oracleErr)
			}
		}
		if x := ms["span.residual_ratio"].Value; x > 0.10 {
			ok = false
			fmt.Fprintf(os.Stderr, "acnload: %s: span.residual_ratio %.3f > 0.10: the trace does not reconcile\n", wl.name, x)
		}
		printWorkload(w, wl, ms, reps[wl.name], o.trace)
	}
	printMeta(w, doc.Meta)

	if o.tracefile != "" {
		if err := writeTrace(o.tracefile, chosen, reps); err != nil {
			return false, err
		}
	}
	if o.out != "" {
		if doc.Meta.NumCPU == 1 && !o.force {
			return false, errors.New("refusing to write -out from a 1-CPU host (nothing here runs in parallel there); pass -force to override")
		}
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	res.Correct = ok && res.Failed == 0
	if len(chosen) == 1 && o.trace != "both" {
		res.Metrics = make(map[string]resultValue)
		for _, d := range catalogue {
			if d.endToEnd() == (o.trace == "0") {
				res.Metrics[d.name] = resultValue{doc.Workloads[chosen[0].name][d.name].Value, d.unit}
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	return res.Correct, nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printMeta(w io.Writer, m meta) {
	fmt.Fprintf(w, "host: num_cpu=%d gomaxprocs=%d senders=%d go=%s commit=%s\n", m.NumCPU, m.GOMAXPROCS, m.Senders, m.GoVersion, m.Commit)
	fmt.Fprintf(w, "run: seed=%d seconds=%g reps=%d window=%gs trace=%s\n", m.Seed, m.Seconds, m.Reps, m.WindowS, m.Trace)
	fmt.Fprintf(w, "note: closed loop, %d senders in one process; %s\n", m.Senders, m.Fabric)
}

// printWorkload prints the workload's metrics by name and unit, and after a
// traced repetition the table the span metrics summarise.
func printWorkload(w io.Writer, wl *workloadDef, ms map[string]metricOut, reps []*repResult, trace string) {
	fmt.Fprintf(w, "== %s: %s\n", wl.name, wl.why)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tlayer\treps\twhat")
	for _, d := range catalogue {
		if !d.appliesTo(wl.name) || (trace == "0" && !d.endToEnd()) || (trace == "1" && d.endToEnd()) {
			continue
		}
		m := ms[d.name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%s\n", d.name, m.Value, d.unit, d.layer, len(m.Reps), d.what)
	}
	tw.Flush()
	for i := len(reps) - 1; i >= 0; i-- {
		if st := reps[i].spans; st != nil {
			printSpanTable(w, st)
			break
		}
	}
}

// printSpanTable shows where the ops' time went in one traced repetition:
// each layer's self time summed over the linked ops, as a share of all op
// time. The shares and the residual add up to 1.
func printSpanTable(w io.Writer, st *spanStats) {
	share := func(x int64) float64 { return ratio(float64(x), float64(st.opTotal)) }
	fmt.Fprintf(w, "traced repetition: %d ops, %d linked to their spans, %d Sends, %d handler spans\n",
		st.ops, st.linked, len(st.fabricSelf), len(st.handler))
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tself time share\tus per op")
	perOp := func(x int64) float64 { return ratio(us(float64(x)), float64(st.linked)) }
	fmt.Fprintf(tw, "dist client (op minus Sends)\t%.3f\t%.2f\n", share(st.clientTotal), perOp(st.clientTotal))
	fmt.Fprintf(tw, "fabric (Send minus handler)\t%.3f\t%.2f\n", share(st.fabricTotal), perOp(st.fabricTotal))
	fmt.Fprintf(tw, "handler (dist server + component)\t%.3f\t%.2f\n", share(st.handlerTotal), perOp(st.handlerTotal))
	fmt.Fprintf(tw, "residual (unlinked ops, overlap)\t%.3f\t\n", share(st.residual))
	tw.Flush()
}

// writeTrace exports the last traced repetition of every chosen workload.
func writeTrace(path string, chosen []*workloadDef, reps map[string][]*repResult) error {
	var parts []obs.TracePart
	for _, wl := range chosen {
		for i := len(reps[wl.name]) - 1; i >= 0; i-- {
			if r := reps[wl.name][i]; r.traced {
				parts = append(parts, obs.TracePart{Name: wl.name, Spans: r.export})
				break
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEventsParts(f, parts); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
