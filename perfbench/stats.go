package main

import (
	"math"
	"sort"
)

// dist is a set of timing samples in one unit (milliseconds unless a
// caller says otherwise). Percentiles use the nearest-rank definition so
// every reported value is a sample that was actually observed.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) merge(o *dist) { d.mergeScaled(o, 1) }

// mergeScaled adds every sample of o multiplied by f.
func (d *dist) mergeScaled(o *dist, f float64) {
	for _, x := range o.xs {
		d.xs = append(d.xs, x*f)
	}
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// pct reports the q-quantile (0 < q ≤ 1) by nearest rank, and how many
// samples lie strictly above it — the count that says whether the sample
// supports the percentile (at least ten beyond it).
func (d *dist) pct(q float64) (value float64, beyond int) {
	if len(d.xs) == 0 {
		return 0, 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(d.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.xs) {
		rank = len(d.xs)
	}
	value = d.xs[rank-1]
	// Samples equal to the value are not beyond it.
	above := sort.Search(len(d.xs), func(i int) bool { return d.xs[i] > value })
	return value, len(d.xs) - above
}

// median of a small set of per-pass figures (the mean of the middle two
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tally counts operations against attempts. Every operation the load
// generator issues is attempted once; failed covers refused or throttled
// acks, non-2xx replies, transport errors and timeouts, and rounds that
// did not commit.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) ok()   { t.attempted++ }
func (t *tally) fail() { t.attempted++; t.failed++ }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// errorRatio is failed ÷ attempted (0 for an empty tally).
func (t tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// okRatio is the complement of errorRatio: the share of attempted
// operations that succeeded. It is the gated end-to-end form, since a
// ratio that reads 0 on every healthy run cannot carry a relative bound.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - t.errorRatio()
}
