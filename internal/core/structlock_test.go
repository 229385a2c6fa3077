package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStructLockExcludes hammers the lock with readers and writers: a writer
// never overlaps a reader or another writer. Four readers take the striped
// path on three stripes (two of them share one), two take the central one.
func TestStructLockExcludes(t *testing.T) {
	l := structLock{stripes: make([]tokenStripe, 3)}
	var readers, writers atomic.Int32
	var wg sync.WaitGroup
	const iters = 2000
	for g := 0; g < 6; g++ {
		var s *tokenStripe
		if g < 4 {
			s = &l.stripes[g%3]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				striped := false
				if s != nil {
					striped = l.rlockStriped(s)
				} else {
					l.RLock()
				}
				readers.Add(1)
				if writers.Load() != 0 {
					t.Error("reader inside a writer's critical section")
				}
				readers.Add(-1)
				if s != nil {
					l.runlockStriped(s, striped)
				} else {
					l.RUnlock()
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				l.Lock()
				if writers.Add(1) != 1 || readers.Load() != 0 {
					t.Error("writer not alone")
				}
				writers.Add(-1)
				l.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestStructLockAdmitsHeldBackReaders pins the admission order the metered
// churn behaviour depends on: a reader held back by a writer goes ahead of
// the next writer, so back-to-back structural operations still let every
// waiting token through in between.
func TestStructLockAdmitsHeldBackReaders(t *testing.T) {
	var l structLock
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	l.Lock()
	done := make(chan struct{}, 2)
	go func() {
		l.RLock() // held back by the first writer
		note("reader")
		l.RUnlock()
		done <- struct{}{}
	}()
	for l.readerCount.Load() != 1-maxReaders { // until the reader is waiting
		runtime.Gosched()
	}
	go func() {
		l.Lock() // queues behind the first writer
		note("writer 2")
		l.Unlock()
		done <- struct{}{}
	}()
	note("writer 1")
	l.Unlock()
	<-done
	<-done
	if len(order) != 3 || order[0] != "writer 1" || order[1] != "reader" || order[2] != "writer 2" {
		t.Fatalf("admission order %v, want writer 1, reader, writer 2", order)
	}
}
