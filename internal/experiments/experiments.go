// Package experiments implements the reproduction harness: one experiment
// per paper claim or figure (E1..E32, indexed in DESIGN.md). Each
// experiment runs a seeded, deterministic workload and produces a Table;
// EXPERIMENTS.md records the tables next to the paper's claims. The cmd
// acnbench CLI and the repository's benchmarks both drive this package.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"repro/internal/obs"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
	// Quick shrinks sweeps for use inside benchmarks.
	Quick bool
	// Obs, when non-nil, receives fabric-level instrumentation from
	// experiments that build real transports — tcpnet byte counters and
	// pool-health gauges (dial slots, cooldown windows, live conns) — so a
	// long `acnbench -http` run exposes transport internals live on
	// /metrics and /debug/vars.
	Obs *obs.Registry
}

// Table is an experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim being checked
	Headers []string
	Rows    [][]string
	Notes   []string // pass/fail findings appended below the table
}

// AddRow appends a row, formatting each value.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = formatCell(v)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a finding below the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

func formatCell(v interface{}) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', 4, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', 4, 64)
	case bool:
		if x {
			return "yes"
		}
		return "no"
	default:
		return fmt.Sprint(v)
	}
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	fmt.Fprintf(cw, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(cw, "claim: %s\n", t.Claim)
	}
	tw := tabwriter.NewWriter(cw, 2, 4, 2, ' ', 0)
	for i, h := range t.Headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return cw.n, err
	}
	for _, note := range t.Notes {
		fmt.Fprintf(cw, "note: %s\n", note)
	}
	fmt.Fprintln(cw)
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

// Func runs one experiment.
type Func func(Options) (*Table, error)

// registry maps experiment IDs to implementations. It is populated by the
// registerAll call below (kept explicit rather than via init side effects).
var registry = registerAll()

func registerAll() map[string]Func {
	return map[string]Func{
		"E1":  E1FullExpansion,
		"E2":  E2PhiAndCuts,
		"E3":  E3Figure3,
		"E4":  E4EveryCutCounts,
		"E5":  E5DepthBound,
		"E6":  E6WidthBound,
		"E7":  E7SizeEstimation,
		"E8":  E8LevelEstimates,
		"E9":  E9ComponentLevels,
		"E10": E10ComponentsPerNode,
		"E11": E11WidthDepthScaling,
		"E12": E12Churn,
		"E13": E13RoutingEfficiency,
		"E14": E14InputLookup,
		"E15": E15Comparison,
		"E16": E16Matching,
		"E17": E17Erratum,
		"E18": E18AblationNoMerge,
		"E19": E19AblationEstimator,
		"E21": E21Generality,
		"E22": E22AdaptivityAxes,
		"E23": E23Saturation,
		"E24": E24FaultyTransport,
		"E25": E25Observability,
		"E26": E26MulticoreScaling,
		"E30": E30RPCFastPath,
		"E32": E32Partitioned,
	}
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(out[i][1:])
		b, _ := strconv.Atoi(out[j][1:])
		return a < b
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Table, error) {
	f, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return f(opts)
}

// RunAll executes every experiment in order, writing tables to w.
func RunAll(w io.Writer, opts Options) error {
	for _, id := range IDs() {
		t, err := Run(id, opts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", id, err)
		}
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}
