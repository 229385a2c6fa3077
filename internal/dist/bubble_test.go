//go:build goexperiment.synctest

package dist

import (
	"fmt"
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
