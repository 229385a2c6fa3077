//go:build race

package dist

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a share of what is put back, so
// allocation-count pins skip; the -race pass still runs the same code.
const raceEnabled = true
