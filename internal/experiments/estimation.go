package experiments

import (
	"math"

	"repro/internal/chord"
	"repro/internal/estimate"
	"repro/internal/stats"
)

// e7SizeEstimation (Lemmas 3.1, 3.2): every node's size estimate lies in
// [N/10, 10N] with high probability, and e_v > log(N)/2.
func e7SizeEstimation(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Decentralized size estimation accuracy",
		Claim: "all n_v in [N/10, 10N] whp; e_v > log(N)/2 (Lemmas 3.1, 3.2)",
		Headers: []string{"N", "min n_v/N", "mean n_v/N", "max n_v/N",
			"frac in [0.1,10]", "min e_v/log N", "mean probes"},
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	for _, n := range sizes {
		ring := chord.NewRing(opts.Seed + int64(n))
		ring.JoinN(n)
		var (
			ratios []float64
			eMin   = math.Inf(1)
			probes []float64
			within int
		)
		for _, v := range ring.Nodes() {
			est, err := estimate.SizeEstimate(ring, v, estimate.DefaultParams())
			if err != nil {
				return nil, err
			}
			r := est.Size / float64(n)
			ratios = append(ratios, r)
			if r >= 0.1 && r <= 10 {
				within++
			}
			if e := est.LogEstimate / math.Log2(float64(n)); e < eMin {
				eMin = e
			}
			probes = append(probes, float64(est.Probes))
		}
		rs := stats.Summarize(ratios)
		ps := stats.Summarize(probes)
		t.AddRow(n, rs.Min, rs.Mean, rs.Max, float64(within)/float64(n), eMin, ps.Mean)
	}
	t.Note("Lemma 3.2 requires the fraction in [0.1,10] to be 1 whp; Lemma 3.1 requires min e_v/log N > 0.5")
	return t, nil
}

// e8LevelEstimates (Lemma 3.3): every node's level estimate lies within
// [l*-4, l*+4].
func e8LevelEstimates(opts Options) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Level estimates cluster around l*",
		Claim:   "all l_v in [l*-4, l*+4] (Lemma 3.3)",
		Headers: []string{"N", "l*", "min l_v", "max l_v", "max |l_v - l*|", "within +-4"},
	}
	w := 1 << 20
	sizes := []int{64, 256, 1024, 4096}
	for _, n := range sizes {
		ring := chord.NewRing(opts.Seed + 31*int64(n))
		ring.JoinN(n)
		lstar := estimate.IdealLevel(n, w)
		minL, maxL := math.MaxInt32, -1
		maxDev := 0
		for _, v := range ring.Nodes() {
			est, err := estimate.SizeEstimate(ring, v, estimate.DefaultParams())
			if err != nil {
				return nil, err
			}
			lv := estimate.Level(est.Size, w)
			if lv < minL {
				minL = lv
			}
			if lv > maxL {
				maxL = lv
			}
			if d := abs(lv - lstar); d > maxDev {
				maxDev = d
			}
		}
		t.AddRow(n, lstar, minL, maxL, maxDev, maxDev <= 4)
	}
	return t, nil
}

// e19AblationEstimator: sweeping the estimator multiplier
// (k = mult * ceil(e_v)) trades probe cost against estimate spread; the
// paper's mult=4 keeps the spread within the Lemma 3.2 window.
func e19AblationEstimator(opts Options) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Ablation: estimator probe multiplier",
		Claim: "mult=4 (paper) balances probe cost and spread",
		Headers: []string{"mult", "N", "min n_v/N", "max n_v/N", "frac in [0.1,10]",
			"mean probes", "level spread"},
	}
	n := 1024
	w := 1 << 20
	for _, mult := range []int{1, 2, 4, 8, 16} {
		ring := chord.NewRing(opts.Seed + 7)
		ring.JoinN(n)
		var (
			minR, maxR = math.Inf(1), math.Inf(-1)
			within     int
			probes     []float64
			minL, maxL = math.MaxInt32, -1
		)
		for _, v := range ring.Nodes() {
			est, err := estimate.SizeEstimate(ring, v, estimate.Params{Mult: mult})
			if err != nil {
				return nil, err
			}
			r := est.Size / float64(n)
			if r < minR {
				minR = r
			}
			if r > maxR {
				maxR = r
			}
			if r >= 0.1 && r <= 10 {
				within++
			}
			probes = append(probes, float64(est.Probes))
			lv := estimate.Level(est.Size, w)
			if lv < minL {
				minL = lv
			}
			if lv > maxL {
				maxL = lv
			}
		}
		t.AddRow(mult, n, minR, maxR, float64(within)/float64(n),
			stats.Summarize(probes).Mean, maxL-minL)
	}
	t.Note("larger multipliers cost linearly more probes and tighten the spread sublinearly")
	return t, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
