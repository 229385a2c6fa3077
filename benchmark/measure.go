package main

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// sliceDur is the width of one slice of a window. Steal is read per
	// slice and tokens_per_s is the median of per-slice completion rates.
	sliceDur = 250 * time.Millisecond
	// maxSteal is the share of the host's jiffies a slice may lose to other
	// tenants and still be measured.
	maxSteal = 0.02
	// stretch is how many times its nominal length a window may run while
	// it waits for clean slices.
	stretch = 2
)

// sampler is one sender's preallocated sample buffer. The loop is closed, so
// an op starts when the previous one ends and one clock read per op gives
// both: lats[k] is the time from the end of op k-1 (or the window start) to
// the end of op k, and the running sum of lats is op k's completion time.
// Recording appends into capacity reserved before the window: 0 allocs/op.
type sampler struct {
	lats   []uint32 // ns; an op longer than maxLat is a harness error
	failed int      // ops that returned an error
	last   time.Duration
}

const maxLat = 1<<32 - 1

func newSampler(capacity int) *sampler {
	s := &sampler{lats: make([]uint32, capacity)}
	clear(s.lats) // touch the pages now, not inside the window
	s.lats = s.lats[:0]
	return s
}

func (s *sampler) reset() { s.lats, s.failed, s.last = s.lats[:0], 0, 0 }

func (s *sampler) full() bool { return len(s.lats) == cap(s.lats) }

// record notes that an op ended at now (time since the window start).
func (s *sampler) record(now time.Duration, err error) {
	d := now - s.last
	s.last = now
	if d > maxLat {
		d = maxLat
	}
	s.lats = append(s.lats, uint32(d))
	if err != nil {
		s.failed++
	}
}

// mark is one reading of the host's clocks, taken at every slice boundary of
// a window, so that steal is known per slice and not only per repetition.
type mark struct {
	at           time.Duration // since the window start
	steal, total uint64        // /proc/stat aggregate cpu line, jiffies
	cpu          time.Duration // getrusage user+sys of this process
	nivcsw       int64         // getrusage involuntary context switches
}

// hostClock reads the noise guards' inputs without allocating: /proc/stat is
// opened once and re-read in place.
type hostClock struct {
	f   *os.File // nil where /proc is not there, which reads as "no steal seen"
	buf [512]byte
}

func openHostClock() *hostClock {
	f, _ := os.Open("/proc/stat")
	return &hostClock{f: f}
}

func (h *hostClock) close() {
	if h.f != nil {
		h.f.Close()
	}
}

func (h *hostClock) mark(at time.Duration) mark {
	m := mark{at: at}
	if h.f != nil {
		n, _ := h.f.ReadAt(h.buf[:], 0)
		m.steal, m.total = parseProcStat(h.buf[:n])
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		m.nivcsw = int64(ru.Nivcsw)
	}
	return m
}

// watch marks every slice boundary of the window that began at start and
// ends the window, by setting stop, once need slices were clean or limit
// slices have passed: a window the host steals from runs longer, up to limit,
// until it holds as much undisturbed time as a quiet one.
func (h *hostClock) watch(start time.Time, stop *atomic.Bool, need, limit int) []mark {
	marks := append(make([]mark, 0, limit+1), h.mark(0))
	for i, clean := 1, 0; i <= limit && clean < need; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * sliceDur)))
		m := h.mark(time.Since(start))
		if sliceBetween(marks[len(marks)-1], m).clean() {
			clean++
		}
		marks = append(marks, m)
	}
	stop.Store(true)
	return marks
}

// slice is the stretch of a window between two marks.
type slice struct {
	lo, hi time.Duration
	ops    int
	cpu    time.Duration
	steal  float64 // share of the host's jiffies stolen from this VM
}

func (s slice) clean() bool { return s.steal <= maxSteal }

func sliceBetween(a, b mark) slice {
	return slice{lo: a.at, hi: b.at, cpu: b.cpu - a.cpu,
		steal: ratio(float64(b.steal-a.steal), float64(b.total-a.total))}
}

// cutSlices bins every sampler's op completions into the slices the marks
// delimit; ops that ended after the last mark belong to no slice.
func cutSlices(ss []*sampler, marks []mark) []slice {
	out := make([]slice, len(marks)-1)
	for i := range out {
		out[i] = sliceBetween(marks[i], marks[i+1])
	}
	eachOp(ss, out, func(i int, _ uint32) { out[i].ops++ })
	return out
}

// eachOp calls f with the slice index and latency of every op that completed
// inside one of the slices.
func eachOp(ss []*sampler, in []slice, f func(i int, lat uint32)) {
	for _, s := range ss {
		var at time.Duration
		i := 0
		for _, l := range s.lats {
			at += time.Duration(l)
			for i < len(in) && at >= in[i].hi {
				i++
			}
			if i == len(in) {
				break
			}
			f(i, l)
		}
	}
}

// keptLatencies returns, sorted, the latency of every op that completed in a
// slice keep accepts.
func keptLatencies(ss []*sampler, in []slice, keep func(slice) bool) []uint32 {
	n := 0
	for _, s := range in {
		if keep(s) {
			n += s.ops
		}
	}
	all := make([]uint32, 0, n)
	eachOp(ss, in, func(i int, l uint32) {
		if keep(in[i]) {
			all = append(all, l)
		}
	})
	slices.Sort(all)
	return all
}

// percentile reads the p-quantile (0..1) off sorted values, interpolating
// between neighbours so the result keeps the clock's digits.
func percentile[T uint32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver's spread check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// memSnap is the allocator's and collector's cumulative work, read before
// and after a window: ReadMemStats stops the world, so never inside one.
type memSnap struct {
	mallocs uint64
	gcPause time.Duration
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, gcPause: time.Duration(ms.PauseTotalNs)}
}

// parseProcStat returns the steal and total jiffies of /proc/stat's first
// line, "cpu user nice system idle iowait irq softirq steal guest ..."; guest
// time is already inside user, so the total stops at steal. It does not
// allocate: watch calls it inside the window.
func parseProcStat(data []byte) (steal, total uint64) {
	if !bytes.HasPrefix(data, []byte("cpu ")) {
		return 0, 0
	}
	field, inNum := 0, false
	var v uint64
	for _, c := range data[4:] {
		if c >= '0' && c <= '9' {
			v, inNum = v*10+uint64(c-'0'), true
			continue
		}
		if inNum {
			field++
			total += v
			if field == 8 {
				return v, total
			}
			v, inNum = 0, false
		}
		if c == '\n' {
			break
		}
	}
	return 0, 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
