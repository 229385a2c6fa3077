package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestAllExperiments runs every registered experiment and checks the
// structural validity of its table.
func TestAllExperiments(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Options{Seed: 1})
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

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("E999", Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("got %d experiments, want 26", len(ids))
	}
	if ids[0] != "E1" || ids[9] != "E10" || ids[25] != "E32" {
		t.Fatalf("IDs not numerically ordered: %v", ids)
	}
}

// TestKeyVerdicts pins the boolean verdicts the reproduction claims.
func TestKeyVerdicts(t *testing.T) {
	// E3: the Figure 3 cut matches the paper's width/depth.
	tab, err := Run("E3", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][4] != "yes" {
		t.Fatalf("Figure 3 row does not match: %v", tab.Rows[0])
	}

	// E4: zero violations in every row.
	tab, err = Run("E4", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[3] != "0" || row[4] != "0" {
			t.Fatalf("E4 found violations: %v", row)
		}
	}

	// E17: the prose wiring and the state-only init fail; the fixes don't.
	tab, err = Run("E17", Options{Seed: 1})
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
	tab, err = Run("E8", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Fatalf("E8 deviation out of range: %v", row)
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

// TestE25HopsFollowBinomial holds Chord's lookup hop counts to idealised
// Chord's model, Binomial(log2 N, 1/2) + 1, by total-variation distance:
// at most hopModelTolerance (0.15) for each of seeds 1–5, and at most 0.10
// for the five seeds' lookups pooled, at N = 256 and N = 1024. Both bounds
// were set before the test was first run.
func TestE25HopsFollowBinomial(t *testing.T) {
	const pooledTolerance = 0.10
	for _, n := range []int{256, 1024} {
		var pooled *stats.Histogram
		for seed := int64(1); seed <= 5; seed++ {
			r, err := lookupHops(seed+int64(n), n, 1200)
			if err != nil {
				t.Fatal(err)
			}
			tv := totalVariation(hopPMF(r.hops), hopModel(n))
			t.Logf("N=%d seed %d: %d lookups, TV %.3f", n, seed, r.hops.Count(), tv)
			if r.hops.Count() < minModelLookups {
				t.Errorf("N=%d seed %d: %d lookups, too few to test the model", n, seed, r.hops.Count())
			}
			if tv > hopModelTolerance {
				t.Errorf("N=%d seed %d: TV %.3f > %.2f", n, seed, tv, hopModelTolerance)
			}
			if pooled == nil {
				pooled = r.hops
			} else if err := pooled.Merge(r.hops); err != nil {
				t.Fatal(err)
			}
		}
		tv := totalVariation(hopPMF(pooled), hopModel(n))
		t.Logf("N=%d pooled: %d lookups, TV %.3f", n, pooled.Count(), tv)
		if tv > pooledTolerance {
			t.Errorf("N=%d pooled: TV %.3f > %.2f", n, tv, pooledTolerance)
		}
	}
}
