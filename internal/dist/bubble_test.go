//go:build goexperiment.synctest

package dist

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
)

// This file is the one place the bubbled tests touch testing/synctest,
// which go 1.24 ships only under GOEXPERIMENT=synctest and whose API
// changes in later releases: `make synctest` runs them.

// bubble runs f in a synctest bubble, on a fake clock that moves only when
// every goroutine in the bubble is blocked. It returns "" when f and every
// goroutine it started have returned, and the runtime's deadlock message
// when all of them were left blocked for good: a hang, reported in
// milliseconds. The bubble's goroutines stay blocked after a deadlock, so
// f must report failures with t.Error, never t.Fatal.
func bubble(t *testing.T, f func()) (deadlock string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "all goroutines in bubble are blocked") {
				panic(r)
			}
			deadlock = msg
		}
	}()
	synctest.Run(f)
	return ""
}

// settle returns once every other goroutine of the calling bubble is
// durably blocked.
func settle() { synctest.Wait() }

// blockedIn counts the goroutines blocked in a channel receive whose
// innermost frame outside the runtime is the function fn (a name as a
// stack trace prints it). A deadlocked bubble's goroutines stay blocked
// for the life of the test binary, so a test compares the count before
// and after its bubble to name the wait its own bubble hung in.
func blockedIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if !strings.Contains(header, "[chan receive") {
			continue
		}
		for _, l := range strings.Split(frames, "\n") {
			if strings.HasPrefix(l, "\t") || strings.HasPrefix(l, "runtime.") {
				continue
			}
			if strings.HasPrefix(l, fn+"(") {
				n++
			}
			break
		}
	}
	return n
}
