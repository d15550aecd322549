package serve_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"

	"repro/sample/serve"
	"repro/sample/shard"
)

// One node end to end: ingest a batch over HTTP, draw a node-local
// merged sample, fetch the checkpoint bytes an aggregator would merge.
// A single-item stream keeps the (random) draw deterministic for this
// example's output.
func ExampleNewNode() {
	node := serve.NewNode(shard.NewL1(0.05, 42, shard.Config{Shards: 2}), serve.NodeConfig{})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	ctx := context.Background()
	cl := serve.NewClient(srv.URL)
	ack, err := cl.Ingest(ctx, []int64{7, 7, 7, 7, 7, 7})
	if err != nil {
		panic(err)
	}
	resp, err := cl.SampleK(ctx, 1)
	if err != nil {
		panic(err)
	}
	snapshot, err := cl.SnapshotSince(ctx, "")
	if err != nil {
		panic(err)
	}
	fmt.Println(ack.Accepted, resp.Outcomes[0].Item, shard.IsCoordinatorSnapshot(snapshot.Data))
	// Output:
	// 6 7 true
}

// A two-node fleet with an aggregator: each node ingests its share,
// and the aggregator's /sample answers with exactly the law one
// sampler would have on the union stream — here a single-item union,
// so the answer (and this output) is deterministic.
func ExampleNewAggregator() {
	ctx := context.Background()
	var urls []string
	for seed := uint64(1); seed <= 2; seed++ {
		node := serve.NewNode(shard.NewL1(0.05, seed, shard.Config{Shards: 2}), serve.NodeConfig{})
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
		if _, err := serve.NewClient(srv.URL).Ingest(ctx, []int64{9, 9, 9, 9}); err != nil {
			panic(err)
		}
	}
	agg := serve.NewAggregator(99, urls...)
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()

	resp, err := serve.NewClient(aggSrv.URL).SampleK(ctx, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(resp.Outcomes[0].Item, resp.StreamLen, resp.Nodes, resp.Pools)
	// Output:
	// 9 8 2 4
}

// Checkpoint into a store and restore after a restart: the restored
// node continues the stream bit-for-bit from the stored snapshot.
func ExampleRestore() {
	dir := exampleTempDir()
	defer os.RemoveAll(dir)
	store, err := serve.NewDirStore(dir)
	if err != nil {
		panic(err)
	}
	node := serve.NewNode(shard.NewL1(0.05, 42, shard.Config{Shards: 2}),
		serve.NodeConfig{Store: store})
	node.Coordinator().ProcessBatch([]int64{3, 3, 3})
	if err := node.Close(); err != nil { // drains + writes the final checkpoint
		panic(err)
	}

	restored, _, err := serve.Restore(store, serve.NodeConfig{})
	if err != nil {
		panic(err)
	}
	defer restored.Close()
	fmt.Println(restored.Coordinator().StreamLen())
	// Output:
	// 3
}
