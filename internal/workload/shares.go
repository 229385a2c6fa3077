package workload

import (
	"fmt"
	"sync"
	"time"
)

// SizeError reports a non-positive burst or sender count handed to
// InjectShares. Callers detect it with errors.As.
type SizeError struct {
	Op   string // the API that rejected the size, e.g. "workload: InjectShares burst"
	Size int    // the offending value
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: invalid size %d (must be >= 1)", e.Op, e.Size)
}

// Inject is one burst-injection call into a counting engine — typically a
// closure over a dist.Cluster's InjectBatch. It is kept as a plain function
// type so this package stays engine-agnostic.
type Inject func(ins []int) error

// InjectShares drives ins through fn concurrently: senders goroutines
// each take a contiguous share of the arrival sequence and hand it to fn
// in burst-sized calls. Contiguous shares keep the union of injected
// wires identical regardless of senders, so conservation checks compare
// like with like across concurrency levels. The first injection error
// wins. Returns the injection wall-clock in milliseconds.
//
// This is the shared injection loop of the partitioned worker runtime
// (launch.Worker) and of E32's single-process cells. burst < 1 or
// senders < 1 is rejected with an *SizeError.
func InjectShares(fn Inject, ins []int, burst, senders int) (float64, error) {
	if burst < 1 {
		return 0, &SizeError{Op: "workload: InjectShares burst", Size: burst}
	}
	if senders < 1 {
		return 0, &SizeError{Op: "workload: InjectShares senders", Size: senders}
	}
	share := (len(ins) + senders - 1) / senders
	var wg sync.WaitGroup
	errCh := make(chan error, senders)
	start := time.Now()
	for g := 0; g < senders; g++ {
		lo := g * share
		hi := lo + share
		if hi > len(ins) {
			hi = len(ins)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			for off := 0; off < len(part); off += burst {
				end := off + burst
				if end > len(part) {
					end = len(part)
				}
				if err := fn(part[off:end]); err != nil {
					errCh <- err
					return
				}
			}
		}(ins[lo:hi])
	}
	wg.Wait()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return ms, nil
}
