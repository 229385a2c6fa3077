//go:build !race

package dist

// raceEnabled: see race_test.go.
const raceEnabled = false
