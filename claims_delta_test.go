package repro

// Headline claims for delta snapshots (wire format v2): folding
// full + delta* restores bit-for-bit the state a full v1 snapshot
// would have captured — for every snapshot kind and for coordinator
// checkpoints — and the serving layer's delta path turns an
// aggregator's steady-state cost against a slowly-churning fleet from
// O(state) to O(change) per query, with unchanged nodes costing no
// snapshot bodies at all.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
	"repro/sample/snap"
)

// Claim (delta chain equivalence): for every snapshot kind, resolving
// full + delta + delta yields byte-for-byte the v1 snapshot of the
// live sampler — so a delta chain is just a cheaper spelling of the
// full checkpoint — and a sampler restored from the folded chain
// continues ingestion and queries exactly like an uncheckpointed run.
// The existing v1 golden files are pinned unchanged by
// TestGoldenWireFormat (sample/snap), per the §2.5 versioning rule.
func TestClaimDeltaChainEquivalence(t *testing.T) {
	const (
		n     = int64(256)
		w     = int64(128)
		delta = 0.1
	)
	gen := stream.NewGenerator(rng.New(53))
	items := gen.Zipf(n, 3000, 1.2)
	m := int64(len(items)) + 1
	third := len(items) / 3

	kinds := map[string]func(seed uint64) sample.Sampler{
		"l1":           func(s uint64) sample.Sampler { return sample.NewL1(delta, s, sample.Queries(2)) },
		"lp0.5":        func(s uint64) sample.Sampler { return sample.NewLp(0.5, n, m, delta, s) },
		"lp1.5":        func(s uint64) sample.Sampler { return sample.NewLp(1.5, n, m, delta, s) },
		"lp2":          func(s uint64) sample.Sampler { return sample.NewLp(2, n, m, delta, s, sample.Queries(2)) },
		"mest-l1l2":    func(s uint64) sample.Sampler { return sample.NewMEstimator(sample.MeasureL1L2(), m, delta, s) },
		"mest-fair":    func(s uint64) sample.Sampler { return sample.NewMEstimator(sample.MeasureFair(2), m, delta, s) },
		"mest-huber":   func(s uint64) sample.Sampler { return sample.NewMEstimator(sample.MeasureHuber(2), m, delta, s) },
		"mest-sqrt":    func(s uint64) sample.Sampler { return sample.NewMEstimator(sample.MeasureSqrt(), m, delta, s) },
		"mest-log1p":   func(s uint64) sample.Sampler { return sample.NewMEstimator(sample.MeasureLog1p(), m, delta, s) },
		"f0":           func(s uint64) sample.Sampler { return sample.NewF0(n, delta, s, sample.Queries(2)) },
		"f0-oracle":    func(s uint64) sample.Sampler { return sample.NewF0Oracle(s) },
		"tukey":        func(s uint64) sample.Sampler { return sample.NewTukey(3, n, delta, s) },
		"window-mest":  func(s uint64) sample.Sampler { return sample.NewWindowMEstimator(sample.MeasureL1L2(), w, delta, s) },
		"window-lp":    func(s uint64) sample.Sampler { return sample.NewWindowLp(2, n, w, delta, true, s, sample.Queries(2)) },
		"window-f0":    func(s uint64) sample.Sampler { return sample.NewWindowF0(n, w, 3, delta, s) },
		"window-tukey": func(s uint64) sample.Sampler { return sample.NewWindowTukey(3, n, w, delta, s) },
	}
	query := func(s sample.Sampler) []sample.Outcome {
		var sig []sample.Outcome
		for i := 0; i < 6; i++ {
			if out, ok := s.Sample(); ok {
				sig = append(sig, out)
			} else {
				sig = append(sig, sample.Outcome{Item: -1})
			}
			outs, _ := s.SampleK(2)
			sig = append(sig, outs...)
		}
		return sig
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			uninterrupted := mk(42)
			checkpointed := mk(42)
			for _, it := range items[:third] {
				uninterrupted.Process(it)
				checkpointed.Process(it)
			}
			full, err := snap.Snapshot(checkpointed)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			for _, it := range items[third : 2*third] {
				uninterrupted.Process(it)
				checkpointed.Process(it)
			}
			d1, err := snap.SnapshotDelta(full, checkpointed)
			if err != nil {
				t.Fatalf("SnapshotDelta: %v", err)
			}
			mid, err := snap.ApplyDelta(full, d1)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			for _, it := range items[2*third:] {
				uninterrupted.Process(it)
				checkpointed.Process(it)
			}
			d2, err := snap.SnapshotDelta(mid, checkpointed)
			if err != nil {
				t.Fatal(err)
			}
			// The folded chain IS the v1 full snapshot, byte for byte.
			folded, err := snap.Resolve(full, d1, d2)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			want, err := snap.Snapshot(checkpointed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(folded, want) {
				t.Fatalf("folded chain (%d bytes) != live v1 snapshot (%d bytes)", len(folded), len(want))
			}
			// Continued ingestion after RestoreDelta matches an
			// uncheckpointed run exactly, query coins included.
			restored, err := snap.RestoreDelta(mid, d2)
			if err != nil {
				t.Fatalf("RestoreDelta: %v", err)
			}
			suffix := gen.Zipf(n, 512, 1.2)
			uninterrupted.ProcessBatch(suffix)
			restored.ProcessBatch(suffix)
			if got, want := query(restored), query(uninterrupted); !reflect.DeepEqual(got, want) {
				t.Fatalf("delta-restored sampler diverges from the uninterrupted one:\n got %v\nwant %v",
					got, want)
			}
		})
	}

	// Coordinator checkpoints carry the same guarantee through
	// sample/shard's codec.
	t.Run("coordinator", func(t *testing.T) {
		c := shard.NewLp(1.5, n, m, delta, 9, shard.Config{Shards: 2, Queries: 2})
		defer c.Close()
		c.ProcessBatch(items[:third])
		full, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		c.ProcessBatch(items[third : 2*third])
		d1, err := c.SnapshotDelta(full)
		if err != nil {
			t.Fatal(err)
		}
		c.ProcessBatch(items[2*third:])
		mid, err := shard.ApplyCoordinatorDelta(full, d1)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := c.SnapshotDelta(mid)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := shard.ResolveCoordinatorChain(full, d1, d2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(folded, want) {
			t.Fatalf("folded coordinator chain != live snapshot")
		}
	})
}

// Claim (delta serving economics): against a fleet of nodes that do
// not summarize (sampler nodes, which the aggregator fetches through
// /snapshot) and whose pools churn slowly between checkpoints, an
// aggregator re-query performs ZERO full-snapshot fetches — unchanged
// nodes revalidate in one header round-trip and changed nodes ship
// only deltas several times smaller than their snapshots (the ≥5×
// figure is pinned at bench strength by BenchmarkE23DeltaEncode; here
// the claim is the fetch-path shape, asserted via the aggregator's
// counters).
func TestClaimDeltaServingAvoidsFullRefetch(t *testing.T) {
	gen := stream.NewGenerator(rng.New(57))
	items := gen.Zipf(1<<14, 40_000, 1.1)
	var urls []string
	for j := 0; j < 3; j++ {
		// The p=2 pool is the richest per-node state (instances + heap +
		// tracked table + Misra–Gries normalizer) — the regime the delta
		// path is built for.
		n := serve.NewSamplerNode(sample.NewLp(2, 1<<14, 50_000, 0.1, uint64(j)+1), serve.NodeConfig{})
		defer n.Close()
		srv := httptest.NewServer(n.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
		if _, err := serve.NewClient(srv.URL).IngestBinary(context.Background(), items[j*10_000:(j+1)*10_000]); err != nil {
			t.Fatal(err)
		}
	}
	agg := serve.NewAggregator(77, urls...)
	if _, _, err := agg.Merge(context.Background()); err != nil { // cold query primes the cache
		t.Fatalf("cold Merge: %v", err)
	}
	cold := agg.Counters()
	if cold.FullFetches != 3 {
		t.Fatalf("cold query made %d full fetches, want 3", cold.FullFetches)
	}

	// Slow churn: every node moves a little; re-query.
	for j, u := range urls {
		if _, err := serve.NewClient(u).IngestBinary(context.Background(), items[30_000+j*100:30_000+(j+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	merged, pools, err := agg.Merge(context.Background())
	if err != nil {
		t.Fatalf("warm Merge: %v", err)
	}
	if pools != 3 || merged.StreamLen() != 30_300 {
		t.Fatalf("warm merge spans %d pools, mass %d", pools, merged.StreamLen())
	}
	warm := agg.Counters()
	if warm.FullFetches != cold.FullFetches {
		t.Fatalf("re-query against a churning fleet refetched full snapshots: %+v", warm)
	}
	if warm.DeltaFetches != 3 {
		t.Fatalf("re-query made %d delta fetches, want 3", warm.DeltaFetches)
	}
	deltaBytes := warm.BytesFetched - cold.BytesFetched
	if deltaBytes <= 0 || deltaBytes*5 > cold.BytesFetched {
		t.Fatalf("delta re-query cost %d bytes against %d cold — not ≥5× cheaper", deltaBytes, cold.BytesFetched)
	}

	// Fully idle fleet: zero bodies at all.
	if _, _, err := agg.Merge(context.Background()); err != nil {
		t.Fatal(err)
	}
	idle := agg.Counters()
	if idle.BytesFetched != warm.BytesFetched || idle.CacheHits != warm.CacheHits+3 {
		t.Fatalf("idle re-query transferred bytes: %+v → %+v", warm, idle)
	}
}
