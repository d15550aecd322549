package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample/serve"
	"repro/sample/shard"
)

// E22 measures the network serving layer (sample/serve): HTTP ingest
// throughput through a node at several batch sizes (the wire cost on
// top of the E19 in-process path), the latency of a global aggregator
// query (fetch every node's snapshot + explode + merge + draw), and
// the exactness of the served law — k mutually independent global
// draws from one fleet must sit on the single-sampler law over the
// union stream at the sampling noise floor. The law row is the §1
// composition property crossing a network boundary; the latency rows
// are what it costs to cross it.
func init() {
	register("E22", "network serving layer — HTTP ingest throughput, aggregator merge latency, served global law", func(quick bool) {
		const (
			universe = int64(1 << 10)
			nodes    = 3
			k        = 256
		)
		m := 1 << 18
		if quick {
			m = 1 << 15
		}
		gen := stream.NewGenerator(rng.New(22))
		items := gen.Zipf(universe, m, 1.2)

		// --- HTTP ingest throughput through one node --------------------
		fmt.Printf("  HTTP ingest of %d zipf updates into one node (L2, 2 shards):\n", m)
		fmt.Printf("  %-14s %-12s %-12s %s\n", "batch items", "ns/update", "req/s", "updates/s")
		for _, batch := range []int{512, 4096, 32768} {
			node := serve.NewNode(
				shard.NewLp(2, universe, int64(m)+1, 0.2, 3, shard.Config{Shards: 2}),
				serve.NodeConfig{})
			srv := httptest.NewServer(node.Handler())
			cl := serve.NewClient(srv.URL)
			reqs := 0
			start := time.Now()
			stream.ForEachChunk(items, batch, func(chunk []int64) {
				if _, err := cl.Ingest(context.Background(), chunk); err != nil {
					panic(err)
				}
				reqs++
			})
			node.Coordinator().Drain()
			el := time.Since(start)
			fmt.Printf("  %-14d %-12.1f %-12.0f %.2e\n",
				batch,
				float64(el.Nanoseconds())/float64(m),
				float64(reqs)/el.Seconds(),
				float64(m)/el.Seconds())
			srv.Close()
			node.Close()
		}
		fmt.Println("  (compare E19's in-process ns/update: the gap is HTTP framing + JSON,")
		fmt.Println("   amortized away by batch size — routing stays the serial bottleneck)")

		// --- aggregator query latency + served law ----------------------
		var urls []string
		var cleanup []func()
		for i := 0; i < nodes; i++ {
			node := serve.NewNode(
				// Distinct seeds per node; L1 is exact under the round-robin
				// split below. Queries provisions the independent draws.
				shard.NewL1(0.2, uint64(i)+1, shard.Config{Shards: 2, Queries: k}),
				serve.NodeConfig{})
			srv := httptest.NewServer(node.Handler())
			urls = append(urls, srv.URL)
			cleanup = append(cleanup, func() { srv.Close(); node.Close() })
			var part []int64
			for j := i; j < len(items); j += nodes {
				part = append(part, items[j])
			}
			if _, err := serve.NewClient(srv.URL).Ingest(context.Background(), part); err != nil {
				panic(err)
			}
		}
		defer func() {
			for _, f := range cleanup {
				f()
			}
		}()
		agg := serve.NewAggregator(99, urls...)

		probes := 30
		if quick {
			probes = 8
		}
		var mergeNS, drawNS time.Duration
		for i := 0; i < probes; i++ {
			start := time.Now()
			merged, _, err := agg.Merge(context.Background())
			if err != nil {
				panic(err)
			}
			mergeNS += time.Since(start)
			start = time.Now()
			if _, got := merged.SampleK(1); got == 0 {
				panic("merged draw failed")
			}
			drawNS += time.Since(start)
		}
		fmt.Printf("\n  aggregator over %d nodes × 2 shards (global mass %d):\n", nodes, m)
		fmt.Printf("  %-34s %.2f ms\n", "fetch+explode+merge per query", float64(mergeNS.Milliseconds())/float64(probes))
		fmt.Printf("  %-34s %.3f ms\n", "one global draw from the mixture", float64(drawNS.Microseconds())/float64(probes)/1000)

		merged, pools, err := agg.Merge(context.Background())
		if err != nil {
			panic(err)
		}
		outs, _ := merged.SampleK(k)
		h := stats.Histogram{}
		for _, o := range outs {
			if !o.Bottom {
				h.Add(o.Item)
			}
		}
		freq := stream.Frequencies(items)
		target := stats.GDistribution(freq, func(f int64) float64 { return float64(f) })
		fmt.Printf("\n  served global law, %d independent draws over %d pools:\n", h.Total(), pools)
		fmt.Printf("  %s\n", stats.Summary("served L1", h, target))
		fmt.Printf("  noise floor E[TV] at N=%d: %.4f\n", h.Total(), stats.ExpectedTV(target, h.Total()))
		fmt.Println("  (TV at the floor, p not ≈0 ⇒ serving adds zero distributional cost;")
		fmt.Println("   TestClaimServedMergeLaw pins the same statement at test strength)")
	})
}
