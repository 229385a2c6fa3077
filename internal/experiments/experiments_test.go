package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every registered experiment in quick mode
// and checks the structural validity of the tables plus the key pass/fail
// cells the reproduction depends on.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID != id {
				t.Fatalf("table ID %q, want %q", tab.ID, id)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Fatalf("row %v does not match headers %v", row, tab.Headers)
				}
			}
			var buf bytes.Buffer
			if _, err := tab.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), tab.Title) {
				t.Fatal("rendered table missing title")
			}
		})
	}
}

// TestQuickSeed1Golden pins the tables of the experiments that read no
// clock: their quick seed-1 output must match testdata/quick-seed1.txt byte
// for byte. A change that moves a count, a verdict or a bound shows up here.
// Regenerate the file only when such a change is intended:
//
//	go run ./cmd/acnbench -quick -seed 1 -run E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16,E17,E18,E19,E21,E22 > internal/experiments/testdata/quick-seed1.txt
func TestQuickSeed1Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range strings.Split("E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16,E17,E18,E19,E21,E22", ",") {
		tab, err := Run(id, Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := tab.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/quick-seed1.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/quick-seed1.txt %d", len(gl), len(wl))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("E999", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 27 {
		t.Fatalf("got %d experiments, want 27", len(ids))
	}
	if ids[0] != "E1" || ids[9] != "E10" || ids[26] != "E32" {
		t.Fatalf("IDs not numerically ordered: %v", ids)
	}
}

// TestKeyVerdicts pins the boolean verdicts the reproduction claims.
func TestKeyVerdicts(t *testing.T) {
	// E3: the Figure 3 cut matches the paper's width/depth.
	tab, err := Run("E3", Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][4] != "yes" {
		t.Fatalf("Figure 3 row does not match: %v", tab.Rows[0])
	}

	// E4: zero violations in every row.
	tab, err = Run("E4", Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "0" || row[4] != "0" {
			t.Fatalf("E4 found violations: %v", row)
		}
	}

	// E17: the prose wiring and the state-only init fail; the fixes don't.
	tab, err = Run("E17", Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"yes", "no", "yes", "no"}
	for i, row := range tab.Rows {
		if row[2] != want[i] {
			t.Fatalf("E17 row %d verdict %q, want %q (%v)", i, row[2], want[i], row)
		}
	}

	// E8: all level estimates within +-4.
	tab, err = Run("E8", Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Fatalf("E8 deviation out of range: %v", row)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, Options{Seed: 2, Quick: true}); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), "== "+id+":") {
			t.Fatalf("output missing %s", id)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Headers: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("s", true)
	tab.AddRow(float32(1.5), false)
	tab.Note("n=%d", 7)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"2.5", "yes", "no", "note: n=7", "1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
