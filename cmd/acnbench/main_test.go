package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelected(t *testing.T) {
	if err := run([]string{"-run", "E2,E3", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSelectedWithSpacesAndEmpties(t *testing.T) {
	if err := run([]string{"-run", " E2 ,, E3 ", "-quick", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := run([]string{"-run", "E999"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunWithHTTP(t *testing.T) {
	if err := run([]string{"-run", "E2", "-quick", "-http", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("experiments.completed").Inc()
	addr, err := serveMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/vars"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "experiments.completed") {
			t.Fatalf("GET %s: harness counter missing from body:\n%s", path, body)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestJSONRefusesOneCPUHost: a baseline from a host with one CPU measured
// nothing running in parallel, so -json writes it only when forced.
func TestJSONRefusesOneCPUHost(t *testing.T) {
	run := stats.BenchRun{Label: "x", NumCPU: 1, GoMaxProcs: 1,
		Results: []stats.BenchResult{{Name: "BenchmarkTokenDist", Procs: 1, N: 10, NsPerOp: 500}}}
	var buf bytes.Buffer
	if err := writeBenchRun(&buf, run, false); err == nil || buf.Len() != 0 {
		t.Fatalf("1-CPU run written without -force (err %v, %d bytes)", err, buf.Len())
	}
	if err := writeBenchRun(&buf, run, true); err != nil || !strings.Contains(buf.String(), `"num_cpu": 1`) {
		t.Fatalf("forced 1-CPU run: err %v, output %q", err, buf.String())
	}
	buf.Reset()
	run.NumCPU = 2
	if err := writeBenchRun(&buf, run, false); err != nil || buf.Len() == 0 {
		t.Fatalf("2-CPU run refused: %v", err)
	}
}

// writeBaseline writes one labeled BENCH_*.json file for the -compare
// tests: benchmark name -> (ns/op, allocs/op).
func writeBaseline(t *testing.T, path, label string, res map[string][2]float64) {
	t.Helper()
	run := stats.BenchRun{Label: label}
	for name, v := range res {
		run.Results = append(run.Results, stats.BenchResult{
			Name: name, Procs: 1, N: 100, NsPerOp: v[0], AllocsPerOp: v[1],
		})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := stats.WriteBenchJSON(f, []stats.BenchRun{run}); err != nil {
		t.Fatal(err)
	}
}

func TestComparePassesAndFails(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeBaseline(t, oldPath, "pre", map[string][2]float64{
		"BenchmarkA":       {1000, 20},
		"BenchmarkB":       {500, 3},
		"BenchmarkOnlyOld": {42, 0},
	})
	writeBaseline(t, newPath, "post", map[string][2]float64{
		"BenchmarkA":       {800, 2}, // improved
		"BenchmarkB":       {520, 3}, // +4%: inside the default 10% gate
		"BenchmarkOnlyNew": {7, 0},
	})
	if err := run([]string{"-compare", oldPath, newPath}); err != nil {
		t.Fatalf("compare within threshold failed: %v", err)
	}
	// Tighten the gate below B's +4% regression: now it must fail.
	if err := run([]string{"-compare", "-maxregress", "2", oldPath, newPath}); err == nil {
		t.Fatal("regression beyond -maxregress accepted")
	} else if !strings.Contains(err.Error(), "BenchmarkB") {
		t.Fatalf("regression error does not name the benchmark: %v", err)
	}
}

func TestCompareArgErrors(t *testing.T) {
	if err := run([]string{"-compare", "one.json"}); err == nil {
		t.Fatal("-compare with one file accepted")
	}
	if err := run([]string{"-compare", "nope.json", "alsonope.json"}); err == nil {
		t.Fatal("-compare with missing files accepted")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	writeBaseline(t, a, "", map[string][2]float64{"BenchmarkX": {1, 0}})
	writeBaseline(t, b, "", map[string][2]float64{"BenchmarkY": {1, 0}})
	if err := run([]string{"-compare", a, b}); err == nil {
		t.Fatal("-compare with disjoint benchmark sets accepted")
	}
}
