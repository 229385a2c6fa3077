package acn_test

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// wallClockExperiments print a wall-clock column, so their recorded tables
// are one run's sample and cannot match a fresh run byte for byte.
var wallClockExperiments = map[string]string{
	"E24": "latency percentiles of retried calls",
	"E25": "per-token latency percentiles",
	"E26": "tokens per millisecond across GOMAXPROCS",
	"E32": "milliseconds per cell over real sockets",
}

// TestExperimentTablesMatchCode renders every registered experiment that
// reads no clock at seed 1 and holds it to its block under EXPERIMENTS.md's
// "Full tables (seed 1)" byte for byte: a change that moves a count, a
// verdict or a bound must regenerate the table it moves.
func TestExperimentTablesMatchCode(t *testing.T) {
	blocks := fullTables(t, readDoc(t, "EXPERIMENTS.md"))
	for _, id := range experiments.IDs() {
		if why, ok := wallClockExperiments[id]; ok {
			t.Logf("%s skipped: wall clock (%s)", id, why)
			continue
		}
		tab, err := experiments.Run(id, experiments.Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var got bytes.Buffer
		if _, err := tab.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		want, ok := blocks[id]
		if !ok {
			t.Errorf("%s: no table under EXPERIMENTS.md's full tables", id)
			continue
		}
		gl := strings.Split(strings.TrimRight(got.String(), "\n"), "\n")
		wl := strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s differs from EXPERIMENTS.md at table line %d (regenerate with go run ./cmd/acnbench -run %s -seed 1):\n code: %s\n  doc: %s", id, i+1, id, g, w)
				break
			}
		}
	}
}

// fullTables returns the tables under "## Full tables (seed 1)", keyed by
// experiment ID: each runs from its "== ID:" line to the line before the
// next blank line.
func fullTables(t *testing.T, doc string) map[string]string {
	t.Helper()
	_, sec, ok := strings.Cut(doc, "\n## Full tables (seed 1)\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"## Full tables (seed 1)\" section")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	head := regexp.MustCompile(`^== (E\d+): `)
	blocks := map[string]string{}
	lines := strings.Split(sec, "\n")
	for i, l := range lines {
		m := head.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		end := i
		for end < len(lines) && strings.TrimSpace(lines[end]) != "" && lines[end] != "```" {
			end++
		}
		blocks[m[1]] = strings.Join(lines[i:end], "\n")
	}
	return blocks
}

// TestExperimentIndexesAgree holds the experiment registry, the rows of
// EXPERIMENTS.md's summary table and the rows of DESIGN.md's experiment
// index to the same IDs. The summary's one row whose verdict column reads
// "retired" lists the retired IDs instead, and none of them may be
// registered.
func TestExperimentIndexesAgree(t *testing.T) {
	registered := experiments.IDs()
	exp := readDoc(t, "EXPERIMENTS.md")
	_, summary, _ := strings.Cut(exp, "\n## Summary of paper claim vs. measured outcome\n")
	summary, _, _ = strings.Cut(summary, "\n## ")
	var rows, retired []string
	for _, r := range tableRows(summary) {
		if len(r) > 1 && r[1] == "retired" {
			if retired != nil {
				t.Errorf("EXPERIMENTS.md summary has more than one retired row: %v", r)
			}
			retired = expandIDs(t, r[0])
			continue
		}
		rows = append(rows, r[0])
	}
	if !slices.Equal(rows, registered) {
		t.Errorf("EXPERIMENTS.md summary rows %v, registry %v", rows, registered)
	}
	if retired == nil {
		t.Error("EXPERIMENTS.md summary has no retired row")
	}
	for _, id := range retired {
		if slices.Contains(registered, id) {
			t.Errorf("%s is listed retired in EXPERIMENTS.md but still registered", id)
		}
	}

	_, index, ok := strings.Cut(readDoc(t, "DESIGN.md"), "\n| ID | Source | Claim | Benchmark |\n")
	if !ok {
		t.Fatal("DESIGN.md has no experiment index table")
	}
	var ids []string
	for _, r := range tableRows(index) {
		ids = append(ids, r[0])
	}
	if !slices.Equal(ids, registered) {
		t.Errorf("DESIGN.md index rows %v, registry %v", ids, registered)
	}
}

var experimentID = regexp.MustCompile(`^E\d+\b`)

// tableRows returns the cells of the markdown table rows at the start of
// text whose first cell names an experiment, stopping at the first line
// that is not a table row.
func tableRows(text string) [][]string {
	var rows [][]string
	started := false
	for _, l := range strings.Split(text, "\n") {
		if !strings.HasPrefix(l, "|") {
			if started {
				break
			}
			continue
		}
		started = true
		var cells []string
		for _, c := range strings.Split(strings.Trim(l, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		if experimentID.MatchString(cells[0]) {
			rows = append(rows, cells)
		}
	}
	return rows
}

// expandIDs expands a cell such as "E20, E27–E31" into its IDs.
func expandIDs(t *testing.T, cell string) []string {
	t.Helper()
	num := func(s string) int {
		n, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSpace(s), "E"))
		if err != nil {
			t.Fatalf("retired row %q: %v", cell, err)
		}
		return n
	}
	var ids []string
	for _, part := range strings.Split(cell, ",") {
		lo, hi, isRange := strings.Cut(part, "–")
		a, b := num(lo), num(lo)
		if isRange {
			b = num(hi)
		}
		for n := a; n <= b; n++ {
			ids = append(ids, "E"+strconv.Itoa(n))
		}
	}
	return ids
}
