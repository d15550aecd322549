package serve

import (
	"context"
	"errors"
	"fmt"
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

// summaryFetch fetches a node's summary, conditionally on etag.
func summaryFetch(t *testing.T, url string, k int, etag string) SummaryResult {
	t.Helper()
	res, err := NewClient(url).Summary(context.Background(), k, etag)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNodeSummaryContract pins GET /summary: the ETag names the plan
// instance the summary was read from, so revalidating a frozen node
// answers 304 without touching the coordinator's epoch — a cut taken
// around it still hits the cut cache, and a checkpoint, which changes
// nothing a summary reads, keeps it. An ingest moves the ETag, and so
// does a local query that rebuilds the plan a cut dropped. Serving
// summaries never splits the mixture RNG: a node restored from a
// checkpoint written after them continues SampleK bit for bit.
func TestNodeSummaryContract(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(shard.NewLp(2, 64, 1<<14, 0.2, 3, shard.Config{Shards: 2, Queries: 4}), NodeConfig{Store: store})
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	gen := stream.NewGenerator(rng.New(8))
	items := gen.Zipf(64, 3000, 1.2)
	n.Coordinator().ProcessBatch(items[:2000])

	first := summaryFetch(t, srv.URL, 2, "")
	sum, err := snap.DecodeSummary(first.Data)
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified || first.ETag == "" || len(sum.Groups) != 2 {
		t.Fatalf("first summary: %+v, %d groups", first, len(sum.Groups))
	}
	if _, err := NewClient(srv.URL).SnapshotSince(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	epoch := n.Coordinator().Epoch()
	if again := summaryFetch(t, srv.URL, 2, first.ETag); !again.NotModified || again.ETag != first.ETag {
		t.Fatalf("revalidating a frozen node: %+v", again)
	}
	if n.Coordinator().Epoch() != epoch {
		t.Fatal("a 304 summary moved the coordinator's epoch")
	}
	if _, err := NewClient(srv.URL).SnapshotSince(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	text, err := NewClient(srv.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]string{
		`tp_snapshot_cut_cache_total{result="hit"}`:      "1",
		`tp_snapshot_cut_cache_total{result="miss"}`:     "1",
		`tp_summary_serves_total{result="full"}`:         "1",
		`tp_summary_serves_total{result="not_modified"}`: "1",
	} {
		if got, _ := expositionValue(t, text, series); got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}

	// A checkpoint keeps the ETag; the local query that rebuilds the
	// plan it dropped moves it, and so does an ingest.
	if _, err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if res := summaryFetch(t, srv.URL, 2, first.ETag); !res.NotModified {
		t.Fatalf("summary after a checkpoint: %+v", res)
	}
	n.Coordinator().SampleK(1)
	rebuilt := summaryFetch(t, srv.URL, 2, first.ETag)
	if rebuilt.NotModified || rebuilt.ETag == first.ETag {
		t.Fatalf("summary after the plan was rebuilt: %+v", rebuilt)
	}
	n.Coordinator().ProcessBatch(items[2000:])
	ingested := summaryFetch(t, srv.URL, 4, rebuilt.ETag)
	if ingested.NotModified || ingested.ETag == rebuilt.ETag {
		t.Fatalf("summary after an ingest: %+v", ingested)
	}
	if sum, err := snap.DecodeSummary(ingested.Data); err != nil || len(sum.Groups) != 4 ||
		sum.Lens[0]+sum.Lens[1] != int64(len(items)) {
		t.Fatalf("summary after an ingest: %v", err)
	}
	// A wider k than provisioned clamps; a bad k is a usage error.
	if res := summaryFetch(t, srv.URL, 99, ingested.ETag); !res.NotModified {
		t.Fatalf("summary for k past Queries: %+v", res)
	}
	resp, err := http.Get(srv.URL + "/summary?k=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/summary?k=0 = %d, want 400", resp.StatusCode)
	}

	// Restore from a checkpoint written after the summaries.
	if _, err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, _, err := Restore(store, NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for round := 0; round < 3; round++ {
		a, na := n.Coordinator().SampleK(4)
		b, nb := r.Coordinator().SampleK(4)
		if na != nb || len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d draws", round, na, nb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d draw %d: original %+v, restored %+v", round, i, a[i], b[i])
			}
		}
	}
}

// A sampler node does not summarize: /summary answers 501, which the
// client reports as a StatusError.
func TestSamplerNodeRefusesSummary(t *testing.T) {
	n := NewSamplerNode(sample.NewL1(0.1, 1), NodeConfig{})
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	_, err := NewClient(srv.URL).Summary(context.Background(), 1, "")
	var status *StatusError
	if !errors.As(err, &status) || status.Status != http.StatusNotImplemented {
		t.Fatalf("sampler node summary: %v", err)
	}
}

// TestAggregatorSummaryRefusal: a summary that does not decode, or
// whose spec does not merge with the fleet's, answers 422 naming the
// node that served it.
func TestAggregatorSummaryRefusal(t *testing.T) {
	serveSummary := func(data []byte) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/summary" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("ETag", `"fixed"`)
			_, _ = w.Write(data)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	urlA, clA := startNode(t, func() *shard.Coordinator {
		return shard.NewL1(0.1, 1, shard.Config{Shards: 2})
	})
	if _, err := clA.Ingest(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	good := summaryFetch(t, urlA, 1, "").Data
	other := shard.NewLp(2, 64, 1000, 0.1, 9, shard.Config{Shards: 2})
	defer other.Close()
	other.ProcessBatch([]int64{4, 5})
	mismatched, _, err := other.Summary(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"truncated": good[:len(good)-1],
		"garbage":   []byte("not a summary"),
		"mismatch":  mismatched.Encode(),
	} {
		bad := serveSummary(data)
		agg := NewAggregator(5, urlA, bad)
		srv := httptest.NewServer(agg.Handler())
		resp, err := http.Get(srv.URL + "/sample")
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		status := resp.StatusCode
		if err := decodeErr(resp, &e); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if status != http.StatusUnprocessableEntity || e.Node != bad || !strings.Contains(e.Error, bad) {
			t.Errorf("%s summary: %d %+v, want 422 naming %s", name, status, e, bad)
		}
	}
}

// TestAggregatorConcurrentSummaryQueries drives the summary path from
// many goroutines at once: aggregator queries asking different k (so
// callers join fetches that ask fewer groups than they need) and
// Merge, against a node that keeps ingesting and answering local
// queries. Every answer must lie in the ingested support and cover its
// k; run under -race this is the proof for the summary cache on both
// tiers.
func TestAggregatorConcurrentSummaryQueries(t *testing.T) {
	mk := func(seed uint64) func() *shard.Coordinator {
		return func() *shard.Coordinator {
			return shard.NewLp(2, 64, 1<<16, 0.2, seed, shard.Config{Shards: 2, Queries: 8})
		}
	}
	urlA, clA := startNode(t, mk(1))
	urlB, clB := startNode(t, mk(2))
	gen := stream.NewGenerator(rng.New(4))
	items := gen.Zipf(64, 4000, 1.2)
	var parts [2][]int64
	for _, it := range items {
		parts[it%2] = append(parts[it%2], it)
	}
	ctx := context.Background()
	if _, err := clB.Ingest(ctx, parts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := clA.Ingest(ctx, parts[0][:100]); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(6, urlA, urlB)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	done := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		for i := 100; i+50 <= len(parts[0]); i += 50 {
			select {
			case <-done:
				return
			default:
			}
			if _, err := clA.Ingest(ctx, parts[0][i:i+50]); err != nil {
				t.Error(err)
				return
			}
			if _, err := clA.SampleK(ctx, 1+i%8); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for q := 0; q < 20; q++ {
				k := 1 + (g+q)%8
				if g == 0 {
					if _, _, err := agg.Merge(ctx); err != nil {
						errs <- err
						return
					}
					continue
				}
				resp, err := cl.SampleK(ctx, k)
				if err != nil {
					errs <- err
					return
				}
				if resp.Count > k || len(resp.Outcomes) != resp.Count {
					errs <- fmt.Errorf("k=%d answered %d outcomes, count %d", k, len(resp.Outcomes), resp.Count)
					return
				}
				for _, o := range resp.Outcomes {
					if o.Item < 0 || o.Item >= 64 {
						errs <- fmt.Errorf("item %d outside the universe", o.Item)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(done)
	<-churned
}
