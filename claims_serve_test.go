package repro

// Headline claims for the network serving layer (sample/serve): the
// aggregator's global answers over HTTP-fetched snapshots follow
// exactly the single-sampler law on the union of the node streams, and
// a node killed and restored from its snapshot store resumes
// bit-for-bit. Together they are the paper's ε = γ = 0 composition
// property (§1) carried across a network boundary — serving adds
// latency, never distributional error.

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
)

// Claim (served merge law): a 2-node fleet — each node a 2-shard
// coordinator behind HTTP — queried through the aggregator's
// snapshot-merge path is chi-square-indistinguishable from a single
// truly perfect sampler on the concatenated stream. Each fleet serves
// 256 mutually independent draws (disjoint query groups, §3.1), so a
// dozen fleets give a few thousand i.i.d. samples of the served law.
func TestClaimServedMergeLaw(t *testing.T) {
	const (
		n      = int64(32)
		m      = 2400
		delta  = 0.2
		k      = 256
		fleets = 12
	)
	gen := stream.NewGenerator(rng.New(71))
	items := gen.Zipf(n, m, 1.3)
	freq := stream.Frequencies(items)
	target := stats.GDistribution(freq, func(f int64) float64 { return float64(f) })
	// Item-disjoint halves, as a front-door hash router would produce
	// (L1 would be exact under any split; keep the general discipline).
	var parts [2][]int64
	for _, it := range items {
		parts[int(it)%2] = append(parts[int(it)%2], it)
	}

	served := stats.Histogram{}
	singleRun := stats.Histogram{}
	for fleet := 0; fleet < fleets; fleet++ {
		base := uint64(fleet)*16 + 1
		var urls []string
		for j := 0; j < 2; j++ {
			node := serve.NewNode(
				shard.NewL1(delta, base+uint64(j), shard.Config{Shards: 2, Queries: k}),
				serve.NodeConfig{})
			srv := httptest.NewServer(node.Handler())
			defer srv.Close()
			defer node.Close()
			urls = append(urls, srv.URL)
			if _, err := serve.NewClient(srv.URL).Ingest(context.Background(), parts[j]); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		agg := serve.NewAggregator(base+11, urls...)
		aggSrv := httptest.NewServer(agg.Handler())
		resp, err := serve.NewClient(aggSrv.URL).SampleK(context.Background(), k)
		aggSrv.Close()
		if err != nil {
			t.Fatalf("aggregator SampleK: %v", err)
		}
		if resp.StreamLen != int64(m) || resp.Nodes != 2 || resp.Pools != 4 {
			t.Fatalf("aggregator answered mass %d over %d nodes / %d pools, want %d/2/4",
				resp.StreamLen, resp.Nodes, resp.Pools, m)
		}
		for _, o := range resp.Outcomes {
			if !o.Bottom {
				served.Add(o.Item)
			}
		}

		ref := sample.NewL1(delta, base+7, sample.Queries(k))
		ref.ProcessBatch(items)
		outs, _ := ref.SampleK(k)
		for _, o := range outs {
			if !o.Bottom {
				singleRun.Add(o.Item)
			}
		}
	}
	for _, h := range []struct {
		name string
		h    stats.Histogram
	}{{"served", served}, {"single-run", singleRun}} {
		chi, dof, p := stats.ChiSquare(h.h, target, 5)
		t.Logf("%s: N=%d chi2=%.2f dof=%d p=%.4f", h.name, h.h.Total(), chi, dof, p)
		if p < 1e-3 {
			t.Fatalf("%s law deviates from the exact distribution: chi2=%.2f dof=%d p=%.5f",
				h.name, chi, dof, p)
		}
	}
	if served.Total() < fleets*k*8/10 {
		t.Fatalf("served queries failed too often: %d/%d", served.Total(), fleets*k)
	}
}

// Claim (crash-restart continuation): a node killed without a graceful
// shutdown restores from its last stored checkpoint and continues
// bit-for-bit — fed the same suffix, it answers exactly what an
// uninterrupted coordinator answers on checkpoint-prefix + suffix —
// and a graceful Close loses no acknowledged update at all.
func TestClaimServedCrashRestart(t *testing.T) {
	gen := stream.NewGenerator(rng.New(72))
	items := gen.Zipf(64, 4000, 1.2)
	mk := func() *shard.Coordinator {
		return shard.NewLp(2, 64, int64(len(items))+1, 0.1, 13, shard.Config{Shards: 2, Queries: 2})
	}
	store, err := serve.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	victim := serve.NewNode(mk(), serve.NodeConfig{Store: store})
	srv := httptest.NewServer(victim.Handler())
	cl := serve.NewClient(srv.URL)
	if _, err := cl.Ingest(context.Background(), items[:2000]); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Acknowledged after the checkpoint, then the process dies: these
	// updates are the documented ≤-one-interval staleness loss.
	if _, err := cl.Ingest(context.Background(), items[2000:3000]); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	victim.Coordinator().Close() // crash: no Node.Close, no final snapshot

	restored, skipped, err := serve.Restore(store, serve.NodeConfig{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("Restore skipped %v on a clean store", skipped)
	}
	defer restored.Close()
	if got := restored.Coordinator().StreamLen(); got != 2000 {
		t.Fatalf("restored mass %d, want the checkpointed 2000", got)
	}

	// Bit-for-bit: same suffix into the restored node (over HTTP) and
	// into an uninterrupted reference; identical merged answers.
	srv2 := httptest.NewServer(restored.Handler())
	defer srv2.Close()
	if _, err := serve.NewClient(srv2.URL).Ingest(context.Background(), items[3000:]); err != nil {
		t.Fatal(err)
	}
	ref := mk()
	defer ref.Close()
	ref.ProcessBatch(items[:2000])
	ref.ProcessBatch(items[3000:])
	for q := 0; q < 4; q++ {
		want, wantN := ref.SampleK(2)
		resp, err := serve.NewClient(srv2.URL).SampleK(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != wantN || len(resp.Outcomes) != len(want) {
			t.Fatalf("query %d: restored answered %d draws, reference %d", q, resp.Count, wantN)
		}
		for i := range want {
			if resp.Outcomes[i].Item != want[i].Item || resp.Outcomes[i].Freq != want[i].Freq {
				t.Fatalf("query %d draw %d diverges: %+v vs %+v", q, i, resp.Outcomes[i], want[i])
			}
		}
	}

	// Graceful path: Close writes a final checkpoint covering every
	// acknowledged update.
	if err := restored.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	again, _, err := serve.Restore(store, serve.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got, want := again.Coordinator().StreamLen(), int64(2000+len(items)-3000); got != want {
		t.Fatalf("after graceful close, restored mass %d, want %d", got, want)
	}
}
