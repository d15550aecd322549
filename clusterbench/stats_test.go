package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestTenBeyondRule pins the reporting rule: a percentile is reported
// only with at least ten samples strictly beyond it.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{200, 0.95, 10, true},
		{199, 0.95, 9, false},
		{100, 0.9, 10, true},
		{10000, 0.999, 10, true},
		{9999, 0.999, 9, false},
		{0, 0.5, 0, false},
	} {
		if got := beyond(c.n, c.q); c.n > 0 && got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := reportable(c.n, c.q); got != c.ok {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {100, 0.9}, {20, 0.5}, {19, 0}} {
		if got := highestReportable(c.n); got != c.want {
			t.Errorf("highestReportable(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowQuantiles(t *testing.T) {
	// 2000 samples of 1ms with one slow second half: p50 per window
	// tracks each half, and the median over windows lies between.
	lat := make([]time.Duration, 2000)
	for i := range lat {
		lat[i] = time.Millisecond
		if i >= 1000 {
			lat[i] = 3 * time.Millisecond
		}
	}
	got := windowQuantiles(lat, 0.5, 4)
	if len(got) != 4 || got[0] != 1 || got[3] != 3 {
		t.Fatalf("windows = %v, want 4 windows from 1ms to 3ms", got)
	}
	// p99 needs 2000 samples per window for twenty beyond: one window.
	if got := windowQuantiles(lat, 0.99, 10); len(got) != 1 || got[0] != 3 {
		t.Fatalf("p99 windows = %v, want one window at 3ms", got)
	}
	// Fewer samples than a window still form one.
	if got := windowQuantiles(lat[:50], 0.95, 10); len(got) != 1 {
		t.Fatalf("short sample: %d windows, want 1", len(got))
	}
}

func TestWindowedRate(t *testing.T) {
	// 10 events/s for 4s, except a burst of 100 in the third second: the
	// median window ignores the burst.
	var times []time.Duration
	var weights []float64
	for i := 0; i < 40; i++ {
		times = append(times, time.Duration(i)*100*time.Millisecond)
		weights = append(weights, 1)
	}
	for i := 0; i < 100; i++ {
		times = append(times, 2*time.Second+time.Duration(i)*time.Millisecond)
		weights = append(weights, 1)
	}
	if got := windowedRate(times, weights, 0, 4*time.Second, 4); got != 10 {
		t.Fatalf("rate = %v, want 10/s", got)
	}
	if got := windowedRate(times, weights, time.Second, time.Second, 4); got != 0 {
		t.Fatalf("empty interval rate = %v, want 0", got)
	}
}
