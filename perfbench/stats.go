package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p / 100 * float64(len(xs))))
	if k < 1 {
		k = 1
	}
	if k > len(xs) {
		k = len(xs)
	}
	return xs[k-1]
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// highestSupported returns the highest whole percentile in [50, maxP] that
// leaves at least minBeyond of n samples above it, or 0 when even the
// median does not.
func highestSupported(n, maxP int) int {
	for p := maxP; p >= 50; p-- {
		if beyond(n, float64(p)) >= minBeyond {
			return p
		}
	}
	return 0
}

// samplesFor is the smallest sample count that supports percentile p; the
// benchmarked workloads diagnose at least samplesFor(75) chips.
func samplesFor(p int) int {
	n := 1
	for beyond(n, float64(p)) < minBeyond {
		n++
	}
	return n
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// request is one open-loop arrival: when it was due, when the generator
// actually sent it, and when its answer arrived. ok is false for a request
// that errored, got a non-200 or a wrong report.
type request struct {
	due, sent, done time.Time
	ok              bool
}

// latency is the request's latency as its user sees it: from the time it
// was due, so a stalled generator or a full queue shows up in every later
// request instead of being hidden by the coordinated omission of a late
// send.
func (r request) latency() time.Duration { return r.done.Sub(r.due) }

// lateness is how long after its due time the generator sent the request.
func (r request) lateness() time.Duration { return r.sent.Sub(r.due) }

// phase is one fixed-rate step of an open-loop run.
type phase struct {
	name string
	rate float64 // offered requests per second
	reqs []request
	// windowEnd is when the last arrival was due.
	windowEnd time.Time
}

// okLatenciesMS returns the latencies of the successful requests in ms.
func (ph *phase) okLatenciesMS() []float64 {
	var out []float64
	for _, r := range ph.reqs {
		if r.ok {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

// limitLatenciesMS returns every request's latency in ms for checking the
// latency limit: a failed request counts as missing it (+Inf).
func (ph *phase) limitLatenciesMS() []float64 {
	out := make([]float64, len(ph.reqs))
	for i, r := range ph.reqs {
		out[i] = math.Inf(1)
		if r.ok {
			out[i] = ms(r.latency())
		}
	}
	return out
}

// drain is how long the phase kept answering after its last arrival was
// due. A server keeping up drains within one request's latency; a backlog
// that grew during the window takes longer.
func (ph *phase) drain() time.Duration {
	var last time.Time
	for _, r := range ph.reqs {
		if r.done.After(last) {
			last = r.done
		}
	}
	if last.Before(ph.windowEnd) {
		return 0
	}
	return last.Sub(ph.windowEnd)
}

// meets reports whether the phase meets the latency limit: the limitP-th
// percentile of all requests (failures counting as misses) is within
// limit, and the backlog did not grow (the drain after the window fits in
// the limit too).
func (ph *phase) meets(limitP float64, limit time.Duration) bool {
	if len(ph.reqs) == 0 {
		return false
	}
	return percentile(ph.limitLatenciesMS(), limitP) <= ms(limit) && ph.drain() <= limit
}

// maxRate is the highest offered rate among the phases that meet the
// limit, or 0 when none does. Rates are chosen independently: a pass at a
// higher rate counts even if a lower rate missed.
func maxRate(phases []*phase, limitP float64, limit time.Duration) float64 {
	best := 0.0
	for _, ph := range phases {
		if ph.rate > best && ph.meets(limitP, limit) {
			best = ph.rate
		}
	}
	return best
}

// poissonSchedule returns n arrival offsets of a Poisson process with the
// given rate (requests per second), drawn from next (uniform in [0,1)).
func poissonSchedule(n int, rate float64, next func() float64) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-next()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
