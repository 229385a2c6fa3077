package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tput := metricDef{name: "tput", better: "higher", bound: 0.10}
	lat := metricDef{name: "lat", better: "lower", bound: 0.10}
	m := func(reps ...float64) metricOut { return metricOut{Value: median(reps), Reps: reps} }
	cases := []struct {
		name string
		d    metricDef
		a, b metricOut
		want string
	}{
		{"within the bound", tput, m(100, 101, 99, 100, 102), m(95, 96, 94, 95, 97), "same"},
		{"throughput fell by more than the bound", tput, m(100, 101, 99, 100, 102), m(80, 81, 79, 80, 82), "worse"},
		{"throughput rose", tput, m(100, 101, 99, 100, 102), m(130, 131, 129, 130, 132), "same"},
		{"latency rose by more than the bound", lat, m(10, 10.1, 9.9, 10, 10.2), m(12, 12.1, 11.9, 12, 12.2), "worse"},
		{"latency fell", lat, m(10, 10.1, 9.9, 10, 10.2), m(8, 8.1, 7.9, 8, 8.2), "same"},
		{"spread wider than the bound", tput, m(100, 101, 99, 100, 102), m(60, 80, 100, 70, 90), "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, tput float64) string {
		t.Helper()
		doc := document{
			Meta:      meta{Senders: 2, WindowS: 2, Reps: 3, Seed: seed},
			Workloads: map[string]map[string]metricOut{"tcp-token": {}},
		}
		for _, d := range catalogue {
			if d.endToEnd() {
				doc.Workloads["tcp-token"][d.name] = metricOut{Unit: d.unit, Value: 10, Reps: []float64{10, 10, 10}}
			}
		}
		doc.Workloads["tcp-token"]["tokens_per_s"] = metricOut{Unit: "1/s", Value: tput, Reps: []float64{tput, tput, tput}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, other := write("a.json", 1, 1000), write("b.json", 1, 990), write("c.json", 1, 700), write("d.json", 2, 1000)

	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same); err != nil || worse {
		t.Errorf("equal documents: worse=%v err=%v", worse, err)
	}
	if rows := strings.Count(out.String(), "tcp-token"); rows != 5 {
		t.Errorf("%d rows for one workload, want one per end-to-end metric:\n%s", rows, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Errorf("30%% slower document: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if _, err := compareFiles(&out, base, other); err == nil {
		t.Error("documents measured with different seeds were compared")
	}
}
