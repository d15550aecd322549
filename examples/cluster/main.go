// Command cluster runs a full serving topology in one process: three
// tpserve-style nodes (each a sharded coordinator behind HTTP) plus an
// aggregator, wired over real loopback listeners. It demonstrates the
// three claims DESIGN.md §5 makes for the serving layer:
//
//  1. Exactness: the aggregator's answers over the nodes' acceptance
//     summaries follow exactly the single-sampler law on the union
//     stream. The
//     demo provisions 256 disjoint query groups per node, so one
//     SampleK(256) yields 256 mutually independent global draws — the
//     empirical TV distance to the exact law sits at the sampling
//     noise floor.
//  2. Durability: killing a node and restoring it from its snapshot
//     store brings back the exact stream mass it had checkpointed.
//  3. Zero coupling: nodes never talk to each other; the only shared
//     state in flight is summaries and snapshot bytes.
//
// It also walks the observability layer (DESIGN.md §7): a request ID
// stamped on an aggregator query shows up in node 0's request log —
// the fan-out forwards it — and both tiers' /metrics answer in the
// Prometheus text format.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample/serve"
	"repro/sample/shard"
)

const (
	nodes    = 3
	queries  = 256
	items    = 30000
	universe = 64
)

func main() {
	ctx := context.Background()
	gen := stream.NewGenerator(rng.New(7))
	updates := gen.Zipf(universe, items, 1.3)

	// --- the fleet --------------------------------------------------------
	fmt.Printf("starting %d nodes + 1 aggregator on loopback…\n", nodes)
	var urls []string
	var nodeHandles []*serve.Node
	var servers []*http.Server
	stores := make([]*serve.DirStore, nodes)
	for i := 0; i < nodes; i++ {
		dir := mustTempDir(i)
		defer os.RemoveAll(dir)
		st, err := serve.NewDirStore(dir)
		if err != nil {
			fail(err)
		}
		stores[i] = st
		// L1 is exact under ANY item split (linear G); nonlinear measures
		// would need item-disjoint routing across nodes, same as shards.
		coord := shard.NewL1(0.05, uint64(i)+1, // distinct seed per node
			shard.Config{Shards: 2, Queries: queries})
		nodeCfg := serve.NodeConfig{Store: st}
		if i == 0 {
			// Node 0 logs every request it serves (Debug level includes the
			// 2xx lines), so the aggregator fan-out's forwarded request ID
			// is visible below.
			nodeCfg.Logger = slog.New(slog.NewTextHandler(os.Stdout,
				&slog.HandlerOptions{Level: slog.LevelDebug}))
		}
		node := serve.NewNode(coord, nodeCfg)
		url, srv := listen(node.Handler())
		urls = append(urls, url)
		nodeHandles = append(nodeHandles, node)
		servers = append(servers, srv)
	}
	agg := serve.NewAggregator(99, urls...)
	aggURL, aggSrv := listen(agg.Handler())
	defer aggSrv.Close()

	// --- ingest over HTTP, round-robin across nodes -----------------------
	for i := 0; i < nodes; i++ {
		var part []int64
		for j := i; j < len(updates); j += nodes {
			part = append(part, updates[j])
		}
		if _, err := serve.NewClient(urls[i]).Ingest(ctx, part); err != nil {
			fail(err)
		}
	}

	// --- global law through the aggregator --------------------------------
	cl := serve.NewClient(aggURL)
	resp, err := cl.SampleK(ctx, queries)
	if err != nil {
		fail(err)
	}
	fmt.Printf("aggregator merged %d nodes / %d pools, global mass %d\n",
		resp.Nodes, resp.Pools, resp.StreamLen)
	h := stats.Histogram{}
	for _, o := range resp.Outcomes {
		h.Add(o.Item)
	}
	freq := stream.Frequencies(updates)
	target := stats.GDistribution(freq, func(f int64) float64 { return float64(f) })
	fmt.Printf("  %s\n", stats.Summary("global L1", h, target))
	fmt.Printf("  noise floor E[TV] at N=%d: %.4f\n", h.Total(), stats.ExpectedTV(target, h.Total()))
	fmt.Println("  (the", resp.Count, "draws are mutually independent — disjoint query groups —")
	fmt.Println("   and each follows exactly the single-sampler law on the union stream)")

	// --- observability: tracing + metrics ---------------------------------
	// A client-chosen X-Request-ID rides the aggregator query, the
	// fan-out forwards it to every node (node 0's request log above
	// shows request_id=cluster-demo-1 on its GET /snapshot), and the
	// response echoes it back.
	fmt.Println("\ntracing one aggregator query as cluster-demo-1…")
	req, err := http.NewRequest(http.MethodGet, aggURL+"/sample", nil)
	if err != nil {
		fail(err)
	}
	req.Header.Set("X-Request-ID", "cluster-demo-1")
	traced, err := http.DefaultClient.Do(req)
	if err != nil {
		fail(err)
	}
	traced.Body.Close()
	fmt.Printf("  aggregator echoed X-Request-ID: %s\n", traced.Header.Get("X-Request-ID"))

	// Both tiers serve their registries on GET /metrics in the
	// Prometheus text format; print a few series.
	nodeMet, err := serve.NewClient(urls[0]).Metrics(ctx)
	if err != nil {
		fail(err)
	}
	aggMet, err := cl.Metrics(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Println("  node 0 /metrics (excerpt):")
	printMetrics(nodeMet, "tp_ingest_requests_total", "tp_ingest_items_total", "tp_summary_serves_total")
	fmt.Println("  aggregator /metrics (excerpt):")
	printMetrics(aggMet, "tp_agg_queries_total", "tp_agg_summary_fetches_total", "tp_agg_cache_hits_total")

	// --- kill a node, restore it from its store ---------------------------
	fmt.Println("\nkilling node 0 and restoring it from its snapshot store…")
	if _, err := nodeHandles[0].Checkpoint(); err != nil {
		fail(err)
	}
	servers[0].Close()
	was := nodeHandles[0].Coordinator().StreamLen()
	nodeHandles[0].Coordinator().Close() // crash: no graceful Close, no final snapshot

	restored, skipped, err := serve.Restore(stores[0], serve.NodeConfig{})
	if err != nil {
		fail(err)
	}
	for _, sk := range skipped {
		fmt.Printf("  (skipped checkpoint %s: %v)\n", sk.Name, sk.Err)
	}
	url, srv := listen(restored.Handler())
	defer srv.Close()
	st, err := serve.NewClient(url).Stats(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("  restored node serves %s again: stream mass %d (was %d) — bit-for-bit\n",
		st.Sampler, st.StreamLen, was)

	// The aggregator keeps answering against the surviving fleet once the
	// restored node takes the dead one's place.
	agg2 := serve.NewAggregator(100, url, urls[1], urls[2])
	merged, pools, err := agg2.Merge(ctx)
	if err != nil {
		fail(err)
	}
	out, ok := merged.Sample()
	fmt.Printf("  post-restore global sample over %d pools (mass %d): item %d ok=%v\n",
		pools, merged.StreamLen(), out.Item, ok)

	for i, n := range nodeHandles[1:] {
		servers[i+1].Close()
		_ = n.Close()
	}
	_ = restored.Close()
}

// printMetrics prints the sample lines of the named families from a
// Prometheus text exposition.
func printMetrics(exposition string, families ...string) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, f := range families {
			if strings.HasPrefix(line, f) {
				fmt.Printf("    %s\n", line)
			}
		}
	}
}

// listen serves h on a fresh loopback port and returns its base URL.
func listen(h http.Handler) (string, *http.Server) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv
}

func mustTempDir(i int) string {
	dir, err := os.MkdirTemp("", fmt.Sprintf("cluster-node%d-", i))
	if err != nil {
		fail(err)
	}
	return dir
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cluster:", err)
	os.Exit(1)
}
