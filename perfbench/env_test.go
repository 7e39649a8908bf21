package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6*math.Max(1, math.Abs(want)) }
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{7, 7, 7, 7}, 0.95); !near(got, 7) {
		t.Errorf("quantile of equal samples = %v, want 7", got)
	}
	// The median of samples symmetric about their centre is the centre,
	// whatever their order.
	if got := quantile([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5}, 0.5); !near(got, 5) {
		t.Errorf("median of 1..9 = %v, want 5", got)
	}
	xs := []float64{30, 10, 20, 50, 40, 1000}
	lo, mid, hi := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.95)
	if !(10 < lo && lo < mid && mid < hi && hi < 1000) {
		t.Errorf("quantiles 0.25, 0.5, 0.95 of %v = %v, %v, %v: want increasing, inside the samples", xs, lo, mid, hi)
	}
	// One far sample moves the median far less than the mean.
	if mid > 100 {
		t.Errorf("median of %v = %v, pulled towards the outlier", xs, mid)
	}
}
