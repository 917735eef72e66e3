package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request as the generator saw it. Times are offsets from the
// start of the phase.
type sample struct {
	class      opClass
	ok         bool
	due        time.Duration // when the schedule said to send it (closed loop: when it was sent)
	free       time.Duration // when a connection was free to take it
	start, end time.Duration
}

// latency is measured from the instant the request was due, so a stall is
// charged to every request that should have been sent during it.
func (s sample) latency() time.Duration { return s.end - s.due }

// runOpen sends rate requests per second for dur on a fixed schedule, request
// i being due at i/rate. The workers share one arrival stream: a free worker
// takes the next index, builds the request, waits for its due time if that is
// still ahead, and sends it. When every worker is busy the schedule does not
// wait for them; later requests are simply picked up late, and their latency
// says so.
func runOpen(rate float64, dur time.Duration, workers int, gen func(i uint64) *op, exec func(w int, o *op) bool) []sample {
	total := uint64(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, total)
	var next atomic.Uint64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				free := time.Since(begin)
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				o := gen(i)
				due := time.Duration(i) * interval
				sleepUntil(begin, due)
				start := time.Since(begin)
				ok := exec(w, o)
				out[i] = sample{class: o.class, ok: ok, due: due, free: free, start: start, end: time.Since(begin)}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks until offset due from begin. time.Sleep parks the
// goroutine on the runtime's poller, which on Linux wakes in whole
// milliseconds; an arrival schedule with sub-millisecond gaps needs better, so
// the last stretch is slept on the calling thread with nanosleep, which the
// kernel honours to within its timer slack (tens of microseconds).
func sleepUntil(begin time.Time, due time.Duration) {
	const fine = 3 * time.Millisecond
	if wait := due - time.Since(begin); wait > fine {
		time.Sleep(wait - fine)
	}
	// The runtime's preemption signals interrupt nanosleep, so sleep again
	// until the time has really come.
	for wait := due - time.Since(begin); wait > 0; wait = due - time.Since(begin) {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// runClosed keeps each worker sending its next request as soon as the
// previous reply arrives, for dur. It returns the samples and the time the
// phase really took.
func runClosed(dur time.Duration, workers int, gen func(i uint64) *op, exec func(w int, o *op) bool) ([]sample, time.Duration) {
	per := make([][]sample, workers)
	var next atomic.Uint64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(begin) < dur {
				o := gen(next.Add(1) - 1)
				start := time.Since(begin)
				ok := exec(w, o)
				per[w] = append(per[w], sample{class: o.class, ok: ok, due: start, start: start, end: time.Since(begin)})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by nearest
// rank: the smallest value with at least p % of the sample at or below it.
// xs must be sorted ascending; an empty sample has percentile 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the sorted latencies in ms of the samples keep admits. A
// failed request has no latency: it is counted as failed and, by the caller,
// as missing every limit.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if s.ok && (keep == nil || keep(s)) {
			out = append(out, ms(s.latency()))
		}
	}
	sort.Float64s(out)
	return out
}

// The box the benchmark runs on is shared: for seconds at a time a neighbour
// slows everything down by a fifth or more, and never speeds anything up. A
// phase is therefore cut into short windows and the reported figure is the
// quartile of the window values on the undisturbed side — the first quartile
// of a latency, the third quartile of a rate — which a disturbance has to
// cover three quarters of the phase to move.

// quartile returns the q-th quartile (1 or 3) of xs by nearest rank.
func quartile(xs []float64, q int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, float64(25*q))
}

// windowed splits an open-loop phase into n equal windows by due time and
// returns the first quartile over windows of each window's p-th percentile.
func windowed(ss []sample, dur time.Duration, n int, p float64) float64 {
	per := make([]float64, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := dur*time.Duration(w)/time.Duration(n), dur*time.Duration(w+1)/time.Duration(n)
		ls := latencies(ss, func(s sample) bool { return s.due >= lo && s.due < hi })
		if len(ls) > 0 {
			per = append(per, percentile(ls, p))
		}
	}
	if len(per) == 0 {
		return 0
	}
	return quartile(per, 1)
}

// windowedRate returns the third quartile over n equal windows of the
// successful completions per second in each window of a closed-loop phase.
func windowedRate(ss []sample, elapsed time.Duration, n int) float64 {
	counts := make([]float64, n)
	width := elapsed / time.Duration(n)
	for _, s := range ss {
		if w := int(s.end / width); s.ok && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return quartile(counts, 3)
}

// lateness returns the sorted dispatch delays in ms: how long the generator
// took to send each request once it could, that is once the request was due
// and a connection was free. Waiting for a busy connection is queueing, which
// the latency already counts; this is the generator's own delay (building the
// request, oversleeping, being descheduled).
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		could := s.due
		if s.free > could {
			could = s.free
		}
		out[i] = ms(s.start - could)
	}
	sort.Float64s(out)
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}
