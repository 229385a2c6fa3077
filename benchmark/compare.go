package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict compares one end-to-end metric of one workload between two result
// documents of the same settings. A spread (interquartile range over median
// of the per-repetition values) wider than the bound on either side leaves
// the pair unresolved rather than unchanged.
func verdict(d metricDef, a, b metricOut) (delta float64, v string) {
	spread := func(m metricOut) float64 {
		q1, q3 := quartiles(m.Reps)
		return ratio(q3-q1, median(m.Reps))
	}
	delta = ratio(b.Value-a.Value, a.Value)
	worse := delta
	if d.better == "higher" {
		worse = -delta
	}
	switch {
	case spread(a) > d.bound || spread(b) > d.bound:
		return delta, "unresolved"
	case worse > d.bound:
		return delta, "worse"
	}
	return delta, "same"
}

func readDocument(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two result
// documents and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	if a.Meta.Senders != b.Meta.Senders || a.Meta.WindowS != b.Meta.WindowS ||
		a.Meta.Reps != b.Meta.Reps || a.Meta.Seed != b.Meta.Seed {
		return false, fmt.Errorf("settings differ: senders %d/%d, window %gs/%gs, reps %d/%d, seed %d/%d",
			a.Meta.Senders, b.Meta.Senders, a.Meta.WindowS, b.Meta.WindowS,
			a.Meta.Reps, b.Meta.Reps, a.Meta.Seed, b.Meta.Seed)
	}
	cell := func(m metricOut) string {
		q1, q3 := quartiles(m.Reps)
		return fmt.Sprintf("%.5g [%.5g,%.5g]", m.Value, q1, q3)
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1,q3]\tb median [q1,q3]\tdelta\tbound\tverdict")
	for _, wl := range workloads {
		ma, mb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range catalogue {
			if !d.endToEnd() {
				continue
			}
			delta, v := verdict(d, ma[d.name], mb[d.name])
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.name, d.unit, cell(ma[d.name]), cell(mb[d.name]), 100*delta, 100*d.bound, v)
		}
	}
	return worse, tw.Flush()
}
