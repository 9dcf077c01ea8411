package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the "inclusive" method of
// Python's statistics.quantiles. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return math.Inf(1) // failures sort last; interpolating into one is +Inf
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles is the ladder tailPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten samples strictly beyond it, with its value. ok is false
// when no percentile of the ladder qualifies (fewer than about twenty
// samples).
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailPercentiles {
		v := quantile(xs, p/100)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond >= 10 {
			return p, v, true
		}
	}
	return 0, 0, false
}

// closedLoop accounts the operations of a closed-loop client: every
// operation attempted, the latency of each one that succeeded, and the
// failures. A failed or refused operation counts as missing every
// latency limit, so it enters the latency distribution as +Inf.
type closedLoop struct {
	lat    []float64 // ms, successful operations
	failed int
}

func (l *closedLoop) ok(d time.Duration) { l.lat = append(l.lat, float64(d)/1e6) }
func (l *closedLoop) fail()              { l.failed++ }
func (l *closedLoop) attempted() int     { return len(l.lat) + l.failed }

func (l *closedLoop) merge(o *closedLoop) {
	l.lat = append(l.lat, o.lat...)
	l.failed += o.failed
}

// samples returns every attempt's latency in ms, +Inf for failures.
func (l *closedLoop) samples() []float64 {
	s := append([]float64(nil), l.lat...)
	for i := 0; i < l.failed; i++ {
		s = append(s, math.Inf(1))
	}
	return s
}

func (l *closedLoop) percentile(p float64) float64 { return quantile(l.samples(), p/100) }

// rate is successful operations per second over elapsed.
func (l *closedLoop) rate(elapsed time.Duration) float64 {
	return float64(len(l.lat)) / elapsed.Seconds()
}
