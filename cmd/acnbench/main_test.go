package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
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
