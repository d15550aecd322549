package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// startNode spins up a node over a fresh coordinator and returns its
// client plus the server URL.
func startNode(t *testing.T, mk func() *shard.Coordinator) (string, *Client) {
	t.Helper()
	n := NewNode(mk(), NodeConfig{})
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return srv.URL, NewClient(srv.URL)
}

// snapshotOnly serves just GET /snapshot with fixed bytes — a minimal
// stand-in for a non-coordinator peer in a mixed fleet.
func snapshotOnly(t *testing.T, data []byte) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestAggregatorGlobalSample(t *testing.T) {
	gen := stream.NewGenerator(rng.New(17))
	items := gen.Zipf(32, 4000, 1.2)
	// Item-disjoint halves, as a front-door hash router would produce.
	var parts [2][]int64
	for _, it := range items {
		parts[int(it)%2] = append(parts[int(it)%2], it)
	}
	urlA, clA := startNode(t, func() *shard.Coordinator {
		return shard.NewLp(1.5, 32, int64(len(items))+1, 0.1, 1, shard.Config{Shards: 2, Queries: 4})
	})
	urlB, clB := startNode(t, func() *shard.Coordinator {
		return shard.NewLp(1.5, 32, int64(len(items))+1, 0.1, 2, shard.Config{Shards: 2, Queries: 4})
	})
	if _, err := clA.Ingest(context.Background(), parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := clB.Ingest(context.Background(), parts[1]); err != nil {
		t.Fatal(err)
	}

	agg := NewAggregator(99, urlA, urlB)
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()
	cl := NewClient(aggSrv.URL)

	resp, err := cl.SampleK(context.Background(), 4)
	if err != nil {
		t.Fatalf("aggregator SampleK: %v", err)
	}
	if resp.StreamLen != int64(len(items)) {
		t.Fatalf("global mass %d, want %d", resp.StreamLen, len(items))
	}
	if resp.Nodes != 2 || resp.Pools != 4 {
		t.Fatalf("merge spanned %d nodes / %d pools, want 2/4", resp.Nodes, resp.Pools)
	}
	support := map[int64]bool{}
	for _, it := range items {
		support[it] = true
	}
	for _, o := range resp.Outcomes {
		if !support[o.Item] {
			t.Fatalf("sampled item %d outside the union support", o.Item)
		}
	}
	// /samplek without k is a usage error; /sample without k works.
	if httpResp, err := http.Get(aggSrv.URL + "/samplek"); err != nil {
		t.Fatal(err)
	} else if httpResp.Body.Close(); httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/samplek without k: %d, want 400", httpResp.StatusCode)
	}
	if _, err := cl.SampleK(context.Background(), 1); err != nil {
		t.Fatalf("aggregator /sample: %v", err)
	}

	// Aggregator stats see both nodes and the summed mass.
	stats, err := cl.AggregatorStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.StreamLen != int64(len(items)) || len(stats.Nodes) != 2 {
		t.Fatalf("aggregator stats = %+v", stats)
	}
	for _, row := range stats.Nodes {
		if row.Error != "" || row.Stats == nil {
			t.Fatalf("node row unhealthy: %+v", row)
		}
	}
}

// TestAggregatorNodeDown: a fleet with an unreachable node fails the
// query (502) — a silent subset-merge would answer a different
// question than the global law the caller asked for.
func TestAggregatorNodeDown(t *testing.T) {
	urlA, clA := startNode(t, func() *shard.Coordinator {
		return shard.NewL1(0.1, 1, shard.Config{Shards: 2})
	})
	if _, err := clA.Ingest(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	agg := NewAggregator(5, urlA, deadURL)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead node: status %d, want 502", resp.StatusCode)
	}
}

// TestAggregatorSnapshotRefusal: a node that ANSWERS /snapshot with an
// error status (a custom-measure coordinator cannot snapshot) is a
// composition refusal (422), not unreachability (502) — the node did
// answer.
func TestAggregatorSnapshotRefusal(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusInternalServerError, "shard: custom measures cannot be snapshotted")
	}))
	defer refusing.Close()
	agg := NewAggregator(5, refusing.URL)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("refusing node: status %d, want 422", resp.StatusCode)
	}
	var e errorBody
	if err := decodeErr(resp, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "refused its snapshot") || !strings.Contains(e.Error, "custom measures") {
		t.Fatalf("refusal message %q does not carry the node's reason", e.Error)
	}

	// A transient status — a node mid-Close answers 503 — is NOT a
	// refusal: it takes the unreachable path (502) so clients keep
	// retrying through a rolling restart.
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusServiceUnavailable, "node is shut down")
	}))
	defer draining.Close()
	agg2 := NewAggregator(5, draining.URL)
	srv2 := httptest.NewServer(agg2.Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("draining node: status %d, want 502", resp2.StatusCode)
	}
}

// TestAggregatorWindowRefusal: window snapshots refuse to merge with
// the typed sentinel, and the aggregator reports that as 422 (the
// fleet answered; its snapshots do not compose) with the sentinel's
// message — not as a node failure.
func TestAggregatorWindowRefusal(t *testing.T) {
	mkWin := func(seed uint64) []byte {
		s := sample.NewWindowLp(2, 64, 32, 0.1, true, seed)
		s.Process(1)
		data, err := snap.Snapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	agg := NewAggregator(5, snapshotOnly(t, mkWin(1)), snapshotOnly(t, mkWin(2)))
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("window fleet: status %d, want 422", resp.StatusCode)
	}
	var e errorBody
	if err := decodeErr(resp, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "window snapshots do not merge") {
		t.Fatalf("refusal message %q does not carry the sentinel text", e.Error)
	}
}

// TestAggregatorMixedFleet: bare sampler snapshots (non-coordinator
// peers) join the mixture alongside coordinator fleets.
func TestAggregatorMixedFleet(t *testing.T) {
	bare := sample.NewL1(0.1, 3)
	bare.ProcessBatch([]int64{5, 5, 5, 5})
	data, err := snap.Snapshot(bare)
	if err != nil {
		t.Fatal(err)
	}
	urlA, clA := startNode(t, func() *shard.Coordinator {
		return shard.NewL1(0.1, 1, shard.Config{Shards: 2})
	})
	if _, err := clA.Ingest(context.Background(), []int64{5, 5, 5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(7, urlA, snapshotOnly(t, data))
	merged, pools, err := agg.Merge(context.Background())
	if err != nil {
		t.Fatalf("mixed merge: %v", err)
	}
	if pools != 3 { // 2 coordinator shards + 1 bare sampler
		t.Fatalf("pools = %d, want 3", pools)
	}
	if merged.StreamLen() != 10 {
		t.Fatalf("merged mass %d, want 10", merged.StreamLen())
	}
	out, ok := merged.Sample()
	if !ok || out.Item != 5 {
		t.Fatalf("merged sample = %+v/%v, want item 5", out, ok)
	}
}

// TestAggregatorParameterMismatch: nodes built with different
// constructor parameters refuse with 422, not a crash or a silently
// wrong mixture.
func TestAggregatorParameterMismatch(t *testing.T) {
	urlA, clA := startNode(t, func() *shard.Coordinator {
		return shard.NewLp(2, 64, 1000, 0.1, 1, shard.Config{Shards: 2})
	})
	urlB, clB := startNode(t, func() *shard.Coordinator {
		return shard.NewLp(1.5, 64, 1000, 0.1, 2, shard.Config{Shards: 2})
	})
	if _, err := clA.Ingest(context.Background(), []int64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := clB.Ingest(context.Background(), []int64{2}); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(5, urlA, urlB)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched fleet: status %d, want 422", resp.StatusCode)
	}
}

// decodeErr parses a non-2xx JSON error envelope.
func decodeErr(resp *http.Response, e *errorBody) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(e)
}
