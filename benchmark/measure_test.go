package main

import (
	"math"
	"testing"
	"time"
)

// TestHarnessAllocatesNothingPerOp pins what the sender loop and the slice
// watcher do inside a window to 0 allocs, so allocs_per_token is the
// system's and not the harness's.
func TestHarnessAllocatesNothingPerOp(t *testing.T) {
	s := newSampler(1 << 12)
	set := newValueSet(1 << 12)
	now := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += 3 * time.Microsecond
		s.record(now, nil)
		set.add(uint64(now / time.Microsecond))
	}); n != 0 {
		t.Errorf("recording one op allocates %v times", n)
	}
	if len(s.lats) != 1001 || s.lats[5] != 3000 {
		t.Errorf("sampler holds %d latencies, lats[5]=%d; want 1001 of 3000ns", len(s.lats), s.lats[5])
	}

	clock := openHostClock()
	defer clock.close()
	if n := testing.AllocsPerRun(100, func() { clock.mark(0) }); n != 0 {
		t.Errorf("marking a slice boundary allocates %v times", n)
	}
}

func TestParseProcStat(t *testing.T) {
	steal, total := parseProcStat([]byte("cpu  100 5 30 800 7 0 3 55 9 0\ncpu0 1 2 3 4 5 6 7 8 9 0\n"))
	if steal != 55 || total != 100+5+30+800+7+0+3+55 {
		t.Errorf("steal %d total %d, want 55 and 1000", steal, total)
	}
	for _, bad := range []string{"", "intr 1 2 3\n", "cpu  1 2 3\n"} {
		if s, tot := parseProcStat([]byte(bad)); s != 0 || tot != 0 {
			t.Errorf("parseProcStat(%q) = %d, %d; want zeros", bad, s, tot)
		}
	}
	if m := openHostClock().mark(0); m.total == 0 {
		t.Log("no /proc/stat here: steal reads as 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the driver's spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 9}, 4, 10},
		{[]float64{2, 4, 4, 5, 9}, 3, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if p := percentile([]uint32{10, 20, 30, 40}, 0.5); p != 25 {
		t.Errorf("percentile interpolates to %v, want 25", p)
	}
}

// TestSlicesAndStealCut checks that ops land in the slice they completed in
// and that only the slices the host left alone are timed.
func TestSlicesAndStealCut(t *testing.T) {
	ms := time.Millisecond
	marks := []mark{
		{at: 0, steal: 0, total: 0},
		{at: 250 * ms, steal: 0, total: 50, cpu: 400 * ms},
		{at: 500 * ms, steal: 10, total: 100, cpu: 700 * ms}, // 20% stolen
		{at: 750 * ms, steal: 10, total: 150, cpu: 1100 * ms},
	}
	a, b := newSampler(16), newSampler(16)
	for _, at := range []time.Duration{100 * ms, 240 * ms, 260 * ms, 600 * ms, 800 * ms} {
		a.record(at, nil)
	}
	b.record(700*ms, nil)
	all := cutSlices([]*sampler{a, b}, marks)
	if len(all) != 3 || all[0].ops != 2 || all[1].ops != 1 || all[2].ops != 2 {
		t.Fatalf("slices %+v; want 2, 1 and 2 ops (the op at 800ms is past the last mark)", all)
	}
	if all[0].cpu != 400*ms || !all[0].clean() || all[1].clean() || !all[2].clean() {
		t.Fatalf("slices %+v; want the middle one stolen from", all)
	}
	cut, nClean := stealCut(all, 3)
	if nClean != 2 || cut != maxSteal {
		t.Errorf("with 2 of 3 slices clean, only those are timed: cut %v, nClean %d", cut, nClean)
	}
	lat := keptLatencies([]*sampler{a, b}, all, slice.clean)
	if len(lat) != 4 {
		t.Errorf("kept %d latencies, want the 4 ops of the clean slices", len(lat))
	}
	// A host that steals from every slice still yields a measurement, from
	// the least stolen slices.
	noisy := []slice{{steal: 0.4}, {steal: 0.1}, {steal: 0.3}, {steal: 0.2}}
	if cut, nClean = stealCut(noisy, 2); nClean != 0 || cut != 0.2 {
		t.Errorf("fallback must time the 2 least stolen slices: cut %v, nClean %d", cut, nClean)
	}
}
