package main

import (
	"context"
	"fmt"
	"net/http/httptest"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/snap"
)

// E23 measures delta snapshots (wire format v2): how many bytes a
// checkpoint of a slowly-churning sampler costs as a v2 delta against
// its predecessor versus as a full v1 snapshot, per kind and per churn
// level — and what the serving layer's cache makes of it (an
// aggregator re-query against a churning fleet fetches deltas, and
// against an idle fleet fetches nothing at all). The exactness story
// is unchanged by construction: folding full + delta* reproduces the
// v1 snapshot bit-for-bit (TestClaimDeltaChainEquivalence), so the
// only question an experiment can answer is economic, and the answer
// is the ratio column.
func init() {
	register("E23", "delta snapshots (wire v2) — bytes per checkpoint vs full v1, cached aggregator transfer", func(quick bool) {
		const n = int64(1 << 12)
		m := 1 << 15
		if quick {
			m = 1 << 13
		}
		gen := stream.NewGenerator(rng.New(23))
		items := gen.Zipf(n, m, 1.1)
		cap := int64(2*m) + 1

		kinds := []struct {
			name string
			mk   func(seed uint64) sample.Sampler
		}{
			{"l1", func(s uint64) sample.Sampler { return sample.NewL1(0.1, s) }},
			{"l2", func(s uint64) sample.Sampler { return sample.NewLp(2, n, cap, 0.1, s) }},
			{"l1l2", func(s uint64) sample.Sampler {
				return sample.NewMEstimator(sample.MeasureL1L2(), cap, 0.1, s)
			}},
			{"f0", func(s uint64) sample.Sampler { return sample.NewF0(n, 0.1, s) }},
			{"window-l2", func(s uint64) sample.Sampler {
				return sample.NewWindowLp(2, n, 4096, 0.1, true, s)
			}},
		}
		churns := []int{64, 1024, 8192}
		fmt.Printf("  checkpoint cost after a %d-update Zipf prefix (universe %d):\n", m, n)
		fmt.Printf("  %-12s %-10s", "sampler", "full v1")
		for _, c := range churns {
			fmt.Printf(" %-14s", fmt.Sprintf("Δ after %d", c))
		}
		fmt.Println()
		for _, k := range kinds {
			s := k.mk(1)
			s.ProcessBatch(items)
			base, err := snap.Snapshot(s)
			if err != nil {
				fmt.Printf("  %-12s snapshot failed: %v\n", k.name, err)
				continue
			}
			fmt.Printf("  %-12s %-10d", k.name, len(base))
			for _, churn := range churns {
				s.ProcessBatch(items[:churn])
				delta, err := snap.SnapshotDelta(base, s)
				if err != nil {
					fmt.Printf(" %-14s", "err")
					continue
				}
				full, err := snap.Snapshot(s)
				if err != nil {
					fmt.Printf(" %-14s", "err")
					continue
				}
				fmt.Printf(" %-14s", fmt.Sprintf("%d (%.1f×)", len(delta),
					float64(len(full))/float64(len(delta))))
				base = full // chain: each delta against its predecessor
			}
			fmt.Println()
		}
		fmt.Println("  (Δ columns chain: each delta is diffed against the previous checkpoint;")
		fmt.Println("   folding full + Δ* reproduces the v1 snapshot bit-for-bit, so the ratio")
		fmt.Println("   is pure bandwidth/storage savings at zero distributional cost. A ratio")
		fmt.Println("   near or below 1 means most state churned between checkpoints — serve.Node")
		fmt.Println("   ships whichever encoding is smaller, so a delta is never a regression)")

		// --- the serving layer's view: cached aggregator transfer -------
		// A sampler node: the aggregator fetches it through /snapshot
		// (coordinator nodes ship acceptance summaries instead).
		node := serve.NewSamplerNode(sample.NewLp(2, n, cap, 0.1, 7), serve.NodeConfig{})
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		cl := serve.NewClient(srv.URL)
		if _, err := cl.IngestBinary(context.Background(), items); err != nil {
			fmt.Println("  ingest:", err)
			return
		}
		agg := serve.NewAggregator(99, srv.URL)
		if _, _, err := agg.Merge(context.Background()); err != nil {
			fmt.Println("  aggregator:", err)
			return
		}
		cold := agg.Counters()
		queries := 16
		if quick {
			queries = 4
		}
		for q := 0; q < queries; q++ {
			if _, err := cl.IngestBinary(context.Background(), items[q*64:(q+1)*64]); err != nil {
				fmt.Println("  ingest:", err)
				return
			}
			if _, _, err := agg.Merge(context.Background()); err != nil {
				fmt.Println("  aggregator:", err)
				return
			}
		}
		warm := agg.Counters()
		if _, _, err := agg.Merge(context.Background()); err != nil { // idle fleet
			fmt.Println("  aggregator:", err)
			return
		}
		idle := agg.Counters()
		fmt.Printf("\n  cached aggregator vs one churning l2 node (64 updates between queries):\n")
		fmt.Printf("  cold query:           %d full fetch, %d bytes\n", cold.FullFetches, cold.BytesFetched)
		fmt.Printf("  %d churning re-queries: %d delta fetches, %d full, %.0f bytes/query (%.1f× less than cold)\n",
			queries, warm.DeltaFetches, warm.FullFetches-cold.FullFetches,
			float64(warm.BytesFetched-cold.BytesFetched)/float64(queries),
			float64(cold.BytesFetched)*float64(queries)/float64(warm.BytesFetched-cold.BytesFetched+1))
		fmt.Printf("  idle re-query:        %d bytes (304 revalidation, cache hits %d)\n",
			idle.BytesFetched-warm.BytesFetched, idle.CacheHits)
	})
}
