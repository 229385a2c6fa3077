package workload

import (
	"errors"
	"sort"
	"sync"
	"testing"
)

// TestInjectSharesCoversAllTokens checks the union of injected bursts is
// exactly the input sequence regardless of sender count, and that no
// burst exceeds the cap.
func TestInjectSharesCoversAllTokens(t *testing.T) {
	ins := make([]int, 103) // deliberately not a multiple of burst or senders
	for i := range ins {
		ins[i] = i
	}
	for _, senders := range []int{1, 2, 4, 7} {
		var mu sync.Mutex
		var got []int
		ms, err := InjectShares(func(part []int) error {
			if len(part) == 0 || len(part) > 10 {
				t.Errorf("burst size %d", len(part))
			}
			mu.Lock()
			got = append(got, part...)
			mu.Unlock()
			return nil
		}, ins, 10, senders)
		if err != nil {
			t.Fatal(err)
		}
		if ms < 0 {
			t.Fatalf("negative wall clock %f", ms)
		}
		sort.Ints(got)
		if len(got) != len(ins) {
			t.Fatalf("senders=%d: injected %d tokens, want %d", senders, len(got), len(ins))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("senders=%d: token %d missing (saw %d)", senders, i, v)
			}
		}
	}
}

func TestInjectSharesPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	ins := make([]int, 64)
	if _, err := InjectShares(func([]int) error { return boom }, ins, 8, 4); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestInjectSharesRejectsBadSizes(t *testing.T) {
	var se *SizeError
	if _, err := InjectShares(func([]int) error { return nil }, []int{1}, 0, 1); !errors.As(err, &se) {
		t.Fatalf("burst=0: %v", err)
	}
	if _, err := InjectShares(func([]int) error { return nil }, []int{1}, 1, 0); !errors.As(err, &se) {
		t.Fatalf("senders=0: %v", err)
	}
}

func TestSizeErrorMessage(t *testing.T) {
	err := error(&SizeError{Op: "x: Y", Size: -3})
	var se *SizeError
	if !errors.As(err, &se) || se.Size != -3 {
		t.Fatalf("errors.As failed on %v", err)
	}
	if want := "x: Y: invalid size -3 (must be >= 1)"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
}
