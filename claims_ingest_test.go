package repro

// Headline claims for the ingest fast path (binary content-type +
// group-commit batcher): the codec a producer speaks and the batching
// the node applies are transport details — they must change neither a
// node's state evolution (bit-for-bit snapshot equality) nor the
// sampling law under concurrent writers.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
)

// Claim (codec equivalence): the same item stream sent as JSON and as
// binary frames leaves identically-seeded nodes in bit-for-bit
// identical states — the snapshot codec is deterministic, so byte-equal
// snapshots mean equal state, RNG streams included. Checked for a
// representative kind set: L1 and Lp(2) coordinators (the latter
// exercises the Misra–Gries normalizer), an M-estimator coordinator,
// and a bare sampler node.
func TestClaimIngestCodecEquivalence(t *testing.T) {
	gen := stream.NewGenerator(rng.New(91))
	items := gen.Zipf(48, 2000, 1.2)
	const batch = 250

	kinds := []struct {
		name string
		mk   func() *serve.Node
	}{
		{"l1", func() *serve.Node {
			return serve.NewNode(shard.NewL1(0.1, 17, shard.Config{Shards: 2, Queries: 4}), serve.NodeConfig{})
		}},
		{"lp2", func() *serve.Node {
			return serve.NewNode(shard.NewLp(2, 48, 4000, 0.1, 17, shard.Config{Shards: 2}), serve.NodeConfig{})
		}},
		{"huber", func() *serve.Node {
			return serve.NewNode(shard.New(sample.MeasureHuber(3), 4000, 0.1, 17, shard.Config{Shards: 2}), serve.NodeConfig{})
		}},
		{"randorderl2", func() *serve.Node {
			return serve.NewSamplerNode(sample.NewRandomOrderL2(256, 8, 17), serve.NodeConfig{})
		}},
	}

	type transport struct {
		name string
		send func(cl *serve.Client, part []int64) error
	}
	transports := []transport{
		{"json", func(cl *serve.Client, part []int64) error {
			_, err := cl.Ingest(context.Background(), part)
			return err
		}},
		{"binary", func(cl *serve.Client, part []int64) error {
			_, err := cl.IngestBinary(context.Background(), part)
			return err
		}},
	}

	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			var ref []byte
			for _, tr := range transports {
				node := kind.mk()
				srv := httptest.NewServer(node.Handler())
				cl := serve.NewClient(srv.URL)
				for at := 0; at < len(items); at += batch {
					end := min(at+batch, len(items))
					if err := tr.send(cl, items[at:end]); err != nil {
						t.Fatalf("%s: %v", tr.name, err)
					}
				}
				res, err := cl.SnapshotSince(context.Background(), "")
				srv.Close()
				node.Close()
				if err != nil {
					t.Fatalf("%s: snapshot: %v", tr.name, err)
				}
				snap := res.Data
				if ref == nil {
					ref = snap
					continue
				}
				if !bytes.Equal(snap, ref) {
					t.Fatalf("%s snapshot differs from %s's: the ingest codec leaked into sampler state",
						tr.name, transports[0].name)
				}
			}
		})
	}
}

// Claim (coalesced ingest law): 16 concurrent writers pushing disjoint
// slices of one stream into a default node — whose group-commit
// batcher gathers writers that arrive during a flush into the next one
// — leave the node answering merged queries chi-square-indistinguishable
// from the exact G-distribution of the full stream. Grouping reorders
// and re-batches requests, but for L1 the law depends only on the
// realized frequency vector — which concurrent grouped ingestion must
// preserve exactly.
func TestClaimCoalescedIngestLaw(t *testing.T) {
	const (
		n       = int64(32)
		m       = 2400
		k       = 256
		fleets  = 12
		writers = 16
		req     = 25 // items per request — small, so flushes gather several
	)
	gen := stream.NewGenerator(rng.New(73))
	items := gen.Zipf(n, m, 1.3)
	freq := stream.Frequencies(items)
	target := stats.GDistribution(freq, func(f int64) float64 { return float64(f) })

	// Disjoint contiguous slices per writer: their concurrent interleaving
	// is an arbitrary permutation of the stream, under which L1's law is
	// invariant.
	parts := make([][]int64, writers)
	for i, it := range items {
		parts[i%writers] = append(parts[i%writers], it)
	}

	hist := stats.Histogram{}
	for fleet := 0; fleet < fleets; fleet++ {
		node := serve.NewNode(
			shard.NewL1(0.2, uint64(fleet)*8+3, shard.Config{Shards: 2, Queries: k}),
			serve.NodeConfig{})
		srv := httptest.NewServer(node.Handler())
		cl := serve.NewClient(srv.URL)

		errs := make(chan error, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(part []int64) {
				defer wg.Done()
				for at := 0; at < len(part); at += req {
					end := min(at+req, len(part))
					if _, err := cl.IngestBinary(context.Background(), part[at:end]); err != nil {
						errs <- err
						return
					}
				}
			}(parts[w])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("coalesced ingest: %v", err)
		}
		if got := node.StreamLen(); got != int64(m) {
			t.Fatalf("fleet %d: stream mass %d after coalesced ingest, want %d", fleet, got, m)
		}
		resp, err := cl.SampleK(context.Background(), k)
		srv.Close()
		node.Close()
		if err != nil {
			t.Fatalf("SampleK: %v", err)
		}
		for _, o := range resp.Outcomes {
			if !o.Bottom {
				hist.Add(o.Item)
			}
		}
	}
	chi, dof, p := stats.ChiSquare(hist, target, 5)
	t.Logf("coalesced: N=%d chi2=%.2f dof=%d p=%.4f", hist.Total(), chi, dof, p)
	if p < 1e-3 {
		t.Fatalf("coalesced ingest law deviates: chi2=%.2f dof=%d p=%.5f", chi, dof, p)
	}
	if hist.Total() < fleets*k*8/10 {
		t.Fatalf("queries failed too often: %d/%d", hist.Total(), fleets*k)
	}
}
