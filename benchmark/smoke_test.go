package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json at the root of the repository.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCatalogue keeps BENCHMARK.json and the catalogue, the
// two places a metric is named, from drifting apart.
func TestContractMatchesCatalogue(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, acnload has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), acnload %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layer []contractMetric
	for _, d := range catalogue {
		m := contractMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound}
		if d.endToEnd() {
			e2e = append(e2e, m)
		} else {
			layer = append(layer, m)
		}
	}
	check := func(kind string, got, want []contractMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", c.EndToEnd, e2e)
	check("per_layer", c.PerLayer, layer)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload the way the driver does, at -smoke size, and
// checks that the last line of output names every metric of BENCHMARK.json
// exactly once, with its unit, and that the counting oracle passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	c := readContract(t)
	for _, wl := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := c.EndToEnd
			if trace == "1" {
				want = c.PerLayer
			}
			var out bytes.Buffer
			ok, err := run(options{workload: wl.Name, seed: 7, seconds: 1, reps: 1, trace: trace, smoke: true}, &out)
			if err != nil || !ok {
				t.Fatalf("%s -trace %s: ok=%v err=%v\n%s", wl.Name, trace, ok, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s -trace %s: last line is not the result object: %v\n%s", wl.Name, trace, err, lines[len(lines)-1])
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s -trace %s: result %s", wl.Name, trace, lines[len(lines)-1])
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s -trace %s: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s -trace %s: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s -trace %s: metric %s has unit %q, BENCHMARK.json %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", wl.Name, m.Name, *got.Value)
				}
				if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("metric %q unit %q outside the contract's alphabet", m.Name, m.Unit)
				}
				if d, _ := findMetric(m.Name); !d.appliesTo(wl.Name) {
					continue // printed as 0 in the result line only
				}
				if n := strings.Count(out.String(), "\n"+m.Name+" "); n != 1 {
					t.Errorf("%s -trace %s: metric %s printed %d times in the table", wl.Name, trace, m.Name, n)
				}
			}
		}
	}
}
