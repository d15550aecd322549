package snap

import (
	"testing"

	"repro/internal/rng"
)

// drawSnapshot must honor mixture weights for totals beyond 2³¹ — the
// int-truncation regime that corrupted the m_j/m mixture on 32-bit
// platforms (CI runs this test under GOARCH=386). Synthetic masses: no
// need to route 2³¹ updates.
func TestDrawSnapshotBeyond32BitBoundary(t *testing.T) {
	src := rng.New(7)
	const big = int64(1) << 33
	lens := []int64{big / 2, big / 4, big / 4}
	counts := make([]int64, len(lens))
	const draws = 200000
	for i := 0; i < draws; i++ {
		j := drawSnapshot(src, lens, big)
		if j < 0 || j >= len(lens) {
			t.Fatalf("drawSnapshot out of range: %d", j)
		}
		counts[j]++
	}
	for j, l := range lens {
		want := float64(l) / float64(big)
		got := float64(counts[j]) / draws
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Fatalf("shard %d drawn %.4f, want %.4f (±0.01)", j, got, want)
		}
	}
	// Exact boundary totals must not panic or skew to shard 0.
	for _, total := range []int64{1<<31 - 1, 1 << 31, 1<<31 + 1} {
		lens := []int64{1, total - 1}
		seen1 := false
		for i := 0; i < 64; i++ {
			if drawSnapshot(src, lens, total) == 1 {
				seen1 = true
			}
		}
		if !seen1 {
			t.Fatalf("total=%d: shard 1 (mass %d/%d) never drawn", total,
				total-1, total)
		}
	}
}

// Property test: under adversarial mass vectors the mixture consumes
// at most T instances of any one shard per group and never draws a
// zero-mass shard — the structural invariant that keeps full per-shard
// provisioning exhaustion-free (and the trial indexing in bounds).
// sample/shard's TestPerShardConsumptionNeverExceedsProvisioning
// checks the same end to end on a maximally skewed stream.
func TestDrawSnapshotConsumptionNeverExceedsProvisioning(t *testing.T) {
	src := rng.New(31)
	const T = 64
	for _, lens := range [][]int64{
		{1 << 40, 1, 1},       // nearly all mass on shard 0
		{1, 1 << 40},          // nearly all mass on shard 1
		{5, 0, 5, 0, 5},       // zero-mass shards interleaved
		{1, 1, 1, 1},          // uniform
		{1 << 35, 1 << 35, 2}, // two heavy, one light
		{0, 0, 7},             // single live shard at the end
	} {
		var total int64
		for _, l := range lens {
			total += l
		}
		used := make([]int, len(lens))
		for trial := 0; trial < T; trial++ {
			j := drawSnapshot(src, lens, total)
			if lens[j] == 0 {
				t.Fatalf("lens=%v: zero-mass shard %d drawn", lens, j)
			}
			used[j]++
		}
		for j, u := range used {
			if u > T {
				t.Fatalf("lens=%v: shard %d consumed %d > T=%d", lens, j, u, T)
			}
		}
	}
}
