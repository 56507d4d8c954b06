package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(10), 0.5, 5},
		{seq(11), 0.5, 6},
		{seq(100), 0.99, 99},
		{seq(100), 1, 100},
		{seq(1), 0.5, 1},
		{nil, 0.5, 0},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(n=%d, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		// 1000 samples: rank 990 leaves exactly ten beyond, so p99 stands.
		{1000, 0.99, 990, true},
		// 2000 samples: rank 1980, twenty beyond.
		{2000, 0.99, 1980, true},
		// 999 samples: rank 990 leaves nine beyond; no p99.
		{999, 0.99, 0, false},
		// 500 samples: rank 495 leaves five beyond; no p99, and no lower
		// percentile stands in for it.
		{500, 0.99, 0, false},
		// A p97 needs 334 samples: rank 324 leaves ten beyond.
		{334, 0.97, 324, true},
		{333, 0.97, 0, false},
		{0, 0.99, 0, false},
		// A median is exact as soon as ten samples lie above it.
		{100, 0.5, 50, true},
	} {
		v, ok := tail(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("tail(n=%d, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tail(n=%d, %v): %d samples beyond, want ≥ %d", c.n, c.q, beyond, minBeyond)
			}
		}
	}
}

func TestStddev(t *testing.T) {
	if got := stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); got != 2 {
		t.Errorf("stddev = %v, want 2", got)
	}
}
