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

// registry maps experiment IDs to implementations. It is populated by the
// registerAll call below (kept explicit rather than via init side effects).
var registry = registerAll()

func registerAll() map[string]func(Options) (*Table, error) {
	return map[string]func(Options) (*Table, error){
		"E1":  e1FullExpansion,
		"E2":  e2PhiAndCuts,
		"E3":  e3Figure3,
		"E4":  e4EveryCutCounts,
		"E5":  e5DepthBound,
		"E6":  e6WidthBound,
		"E7":  e7SizeEstimation,
		"E8":  e8LevelEstimates,
		"E9":  e9ComponentLevels,
		"E10": e10ComponentsPerNode,
		"E11": e11WidthDepthScaling,
		"E12": e12Churn,
		"E13": e13RoutingEfficiency,
		"E14": e14InputLookup,
		"E15": e15Comparison,
		"E16": e16Matching,
		"E17": e17Erratum,
		"E18": e18AblationNoMerge,
		"E19": e19AblationEstimator,
		"E21": e21Generality,
		"E22": e22AdaptivityAxes,
		"E23": e23Saturation,
		"E24": e24FaultyTransport,
		"E25": e25Observability,
		"E26": e26MulticoreScaling,
		"E32": e32Partitioned,
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
