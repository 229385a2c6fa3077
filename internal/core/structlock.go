package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// structLock is the network's structural lock: a reader/writer lock with
// sync.RWMutex's algorithm and admission order — a waiting writer holds
// back new readers, and the readers it held back all go ahead of the next
// writer — whose waiters yield their processor instead of parking. Tokens
// enter it through a striped fast path.
//
// Parking is what sync.RWMutex does, and under churn it is what made token
// throughput depend on where the operating system put the threads: a token
// blocked by a structural operation parked its goroutine, its P went idle
// and its thread to sleep, and the thread came back on whichever CPU woke
// it. With as many clients as CPUs the kernel then ran two clients on one
// CPU for a while, and because clients that share a CPU do not bounce cache
// lines between cores they ran faster together than apart, so a run's
// throughput followed its thread placement. A waiter that yields keeps its
// thread running (the scheduler hands the P to whatever else is runnable,
// the structural operation included), so placement stays put. Structural
// operations last 0.1–2 ms; the yielding costs that much processor time
// per waiting client.
//
// The striped fast path keeps warm tokens off the shared reader count: a
// token (rlockStriped) counts itself on its client's tokenStripe.readers,
// a line no other client writes, as long as no writer holds or waits. A
// writer raises writers, waits for every stripe to drain, and then runs the
// central algorithm above; a token that finds writers raised backs out of
// its stripe to the central RLock, so a token a writer held back still goes
// ahead of the next writer. The handshake is Dekker's — the token adds to
// its stripe and then loads writers, the writer adds to writers and then
// loads the stripes — and is sound because Go's sync/atomic operations are
// sequentially consistent: at least one side sees the other. Read-mode
// callers other than tokens (the analysis functions, Lost) take the central
// path.
type structLock struct {
	w           sync.Mutex   // serializes writers
	writers     atomic.Int32 // writers holding or waiting: tokens take the central path
	readerCount atomic.Int32 // readers in or waiting; minus maxReaders while a writer holds or waits
	readerWait  atomic.Int32 // readers the waiting writer has still to see leave
	readerSem   atomic.Int32 // permits for the readers a writer held back
	writerSem   atomic.Int32 // permit for the writer once the readers it waits for have left
	stripes     []tokenStripe
}

const maxReaders = 1 << 30

func (l *structLock) RLock() {
	if l.readerCount.Add(1) < 0 {
		acquire(&l.readerSem) // a writer holds or waits
	}
}

func (l *structLock) RUnlock() {
	if l.readerCount.Add(-1) < 0 && l.readerWait.Add(-1) == 0 {
		l.writerSem.Add(1) // the last reader the writer waited for
	}
}

// rlockStriped takes the lock in read mode for a token of the client dealt
// stripe s, and reports whether it did so on the stripe; pass that to
// runlockStriped.
func (l *structLock) rlockStriped(s *tokenStripe) (striped bool) {
	s.readers.Add(1)
	if l.writers.Load() == 0 {
		return true
	}
	s.readers.Add(-1)
	l.RLock()
	return false
}

func (l *structLock) runlockStriped(s *tokenStripe, striped bool) {
	if striped {
		s.readers.Add(-1)
		return
	}
	l.RUnlock()
}

func (l *structLock) Lock() {
	l.writers.Add(1)
	l.w.Lock()
	for i := range l.stripes {
		for l.stripes[i].readers.Load() != 0 {
			runtime.Gosched()
		}
	}
	// Announce the writer to new readers, then wait for the r already in.
	r := l.readerCount.Add(-maxReaders) + maxReaders
	if r != 0 && l.readerWait.Add(r) != 0 {
		acquire(&l.writerSem)
	}
}

func (l *structLock) Unlock() {
	// Readmit readers; the r that arrived meanwhile each take one permit.
	r := l.readerCount.Add(maxReaders)
	l.readerSem.Add(r)
	l.w.Unlock()
	l.writers.Add(-1)
}

// acquire takes one permit from sem, yielding the processor until there is
// one.
func acquire(sem *atomic.Int32) {
	for {
		if n := sem.Load(); n > 0 && sem.CompareAndSwap(n, n-1) {
			return
		}
		runtime.Gosched()
	}
}
