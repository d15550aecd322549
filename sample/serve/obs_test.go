package serve

// Tests for the serving layer's observability surfaces (DESIGN.md §7):
// the Prometheus expositions both tiers serve, request-ID propagation
// through the aggregator fan-out, node/requestId attribution in error
// bodies, the health endpoints, and the draining guard that answers
// 503 the instant Close starts (the mid-drain race regression).

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/sample/shard"
)

// expositionValue extracts one sample's value from a Prometheus text
// exposition; ok is false when the series is absent.
func expositionValue(t *testing.T, text, series string) (string, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, found := strings.CutPrefix(line, series+" "); found {
			return v, true
		}
	}
	return "", false
}

// TestNodeMetricsExposition: a node that ingested, checkpointed and
// served snapshots exposes the whole §7 inventory on GET /metrics,
// with values matching what actually happened.
func TestNodeMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, _, cl := newTestNode(t, NodeConfig{Store: st})
	if _, err := cl.Ingest(context.Background(), []int64{1, 2, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.SnapshotSince(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SnapshotSince(context.Background(), res.Name); err != nil { // a 304
		t.Fatal(err)
	}

	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]string{
		"tp_ingest_requests_total":                        "1",
		"tp_ingest_items_total":                           "5",
		"tp_ingest_rejected_total":                        "0",
		"tp_stream_len":                                   "5",
		`tp_checkpoints_total{kind="full"}`:               "1",
		`tp_checkpoints_total{kind="delta"}`:              "0",
		"tp_checkpoint_errors_total":                      "0",
		`tp_snapshot_serves_total{result="full"}`:         "1",
		`tp_snapshot_serves_total{result="not_modified"}`: "1",
		"tp_ingest_read_seconds_count":                    "1",
		"tp_ingest_process_seconds_count":                 "1",
		"tp_checkpoint_encode_seconds_count":              "1",
		`tp_snapshot_cut_cache_total{result="miss"}`:      "1",
		`tp_snapshot_cut_cache_total{result="hit"}`:       "2",
		`tp_store_op_seconds_count{op="put"}`:             "1",
	} {
		got, ok := expositionValue(t, text, series)
		if !ok {
			t.Errorf("exposition is missing %s", series)
		} else if got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
	// Histograms must carry the cumulative +Inf bucket the format
	// requires.
	if !strings.Contains(text, `tp_ingest_read_seconds_bucket{le="+Inf"} 1`) {
		t.Error("tp_ingest_read_seconds has no +Inf bucket")
	}
}

// TestIdleTickerHitsCutCache: an idle node's checkpoint ticker cuts
// nothing afresh. After the first cut following the last mutation,
// every tick answers from the cut cache, so an idle fleet pays an
// integer compare per tick instead of a drain, a full encode and a
// SHA-256.
func TestIdleTickerHitsCutCache(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, _, cl := newTestNode(t, NodeConfig{Store: st, CheckpointEvery: time.Millisecond})
	if _, err := cl.Ingest(context.Background(), []int64{1, 2, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	counter := func(result string) int {
		t.Helper()
		text, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		v, ok := expositionValue(t, text, `tp_snapshot_cut_cache_total{result="`+result+`"}`)
		if !ok {
			t.Fatalf("exposition is missing tp_snapshot_cut_cache_total{result=%q}", result)
		}
		c, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	misses, hits := counter("miss"), counter("hit")
	for deadline := time.Now().Add(10 * time.Second); counter("hit") < hits+5; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ticker recorded %d cut-cache hits in 10s, want ≥ 5", counter("hit")-hits)
		}
	}
	if got := counter("miss"); got != misses {
		t.Fatalf("idle ticker re-cut the state: %d cut-cache misses after the first cut, want 0", got-misses)
	}
}

// TestDisableObservability: the control arm for BenchmarkE25 — a node
// with DisableObservability serves an empty exposition but everything
// else works, and the health surfaces stay up.
func TestDisableObservability(t *testing.T) {
	_, srv, cl := newTestNode(t, NodeConfig{DisableObservability: true})
	if _, err := cl.Ingest(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "tp_ingest") {
		t.Fatalf("disabled node still exposes ingest metrics:\n%s", text)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}
}

// TestAggregatorMetricsExposition: the aggregator's registry covers
// queries, merge duration, per-node fetch latency and the cache
// counters, which Counters reads from the same instruments; the
// expvar-era GET /debug/vars is gone.
func TestAggregatorMetricsExposition(t *testing.T) {
	_, nodeSrv, ncl := newTestNode(t, NodeConfig{})
	if _, err := ncl.Ingest(context.Background(), []int64{5, 5, 6}); err != nil {
		t.Fatal(err)
	}
	agg := NewAggregator(3, nodeSrv.URL)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	acl := NewClient(srv.URL)
	if _, err := acl.SampleK(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := acl.SampleK(context.Background(), 1); err != nil { // second query: a cache hit
		t.Fatal(err)
	}

	text, err := acl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]string{
		"tp_agg_queries_total":         "2",
		"tp_agg_query_errors_total":    "0",
		"tp_agg_summary_fetches_total": "1",
		"tp_agg_full_fetches_total":    "0",
		"tp_agg_cache_hits_total":      "1",
		// The second query revalidates (304), keeps the same state
		// fingerprint, and reuses the cached merge plan — so only the
		// first query pays a plan build.
		"tp_agg_merge_seconds_count":                                    "1",
		"tp_agg_plan_rebuilds_total":                                    "1",
		"tp_agg_plan_hits_total":                                        "1",
		fmt.Sprintf(`tp_agg_fetch_seconds_count{node=%q}`, nodeSrv.URL): "2",
	} {
		got, ok := expositionValue(t, text, series)
		if !ok {
			t.Errorf("exposition is missing %s", series)
		} else if got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}

	// /metrics is the one wire surface for the cache counters, and
	// Counters reads the very same instruments.
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/vars = %d, want 404", resp.StatusCode)
	}
	c := agg.Counters()
	for series, want := range map[string]int64{
		"tp_agg_cache_hits_total":      c.CacheHits,
		"tp_agg_summary_fetches_total": c.SummaryFetches,
		"tp_agg_delta_fetches_total":   c.DeltaFetches,
		"tp_agg_full_fetches_total":    c.FullFetches,
		"tp_agg_bytes_fetched_total":   c.BytesFetched,
		"tp_agg_plan_hits_total":       c.PlanHits,
		"tp_agg_plan_rebuilds_total":   c.PlanRebuilds,
	} {
		if got, ok := expositionValue(t, text, series); !ok || got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %q (present %v), but Counters reports %d", series, got, ok, want)
		}
	}
	if c.CacheHits != 1 || c.SummaryFetches != 1 || c.FullFetches != 0 {
		t.Fatalf("counters = %+v, want 1 summary fetch + 1 cache hit", c)
	}
}

// TestRequestIDFanOut pins the tracing contract end to end: the ID a
// client stamps on an aggregator query is forwarded verbatim on the
// aggregator's node fetches and echoed on the aggregator's response.
func TestRequestIDFanOut(t *testing.T) {
	n, _, _ := newTestNode(t, NodeConfig{})
	var mu sync.Mutex
	var seen []string
	// A recording proxy in front of the node's handler captures what
	// the aggregator actually sent over the wire.
	inner := n.Handler()
	nodeSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(obs.RequestIDHeader))
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer nodeSrv.Close()

	agg := NewAggregator(11, nodeSrv.URL)
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()

	req, err := http.NewRequest(http.MethodGet, aggSrv.URL+"/sample", nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = "fanout-test-7"
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregator query failed: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("aggregator echoed %q, want %q", got, id)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("aggregator made no node fetches")
	}
	for _, got := range seen {
		if got != id {
			t.Fatalf("node fetch carried X-Request-ID %q, want %q", got, id)
		}
	}
}

// TestClientCarriesRequestID: every Client method forwards the tracing
// ID in its context as X-Request-ID.
func TestClientCarriesRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(obs.RequestIDHeader))
		mu.Unlock()
		if r.URL.Path != "/metrics" && r.URL.Path != "/snapshot" {
			w.Write([]byte("{}"))
		}
	}))
	defer srv.Close()

	const id = "client-trace-3"
	ctx := obs.ContextWithRequestID(context.Background(), id)
	cl := NewClient(srv.URL)
	for name, call := range map[string]func() error{
		"Ingest":          func() error { _, err := cl.Ingest(ctx, []int64{1}); return err },
		"IngestBinary":    func() error { _, err := cl.IngestBinary(ctx, []int64{1}); return err },
		"SampleK":         func() error { _, err := cl.SampleK(ctx, 1); return err },
		"Stats":           func() error { _, err := cl.Stats(ctx); return err },
		"AggregatorStats": func() error { _, err := cl.AggregatorStats(ctx); return err },
		"Metrics":         func() error { _, err := cl.Metrics(ctx); return err },
		"SnapshotSince":   func() error { _, err := cl.SnapshotSince(ctx, ""); return err },
	} {
		if err := call(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want := map[string]int{"/ingest": 2, "/sample": 1, "/stats": 2, "/metrics": 1, "/snapshot": 1}
	mu.Lock()
	defer mu.Unlock()
	for path, n := range want {
		if len(seen[path]) != n {
			t.Errorf("%s got %d requests, want %d", path, len(seen[path]), n)
		}
		for _, got := range seen[path] {
			if got != id {
				t.Errorf("%s carried X-Request-ID %q, want %q", path, got, id)
			}
		}
	}
}

// TestAggregatorErrorAttribution: a fan-out failure's JSON body names
// the failing node and echoes the query's request ID — satellite #1.
func TestAggregatorErrorAttribution(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // now unreachable
	agg := NewAggregator(1, dead.URL)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/sample", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "attrib-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		resp.Body.Close()
		t.Fatalf("dead node: status %d, want 502", resp.StatusCode)
	}
	var e errorBody
	if err := decodeErr(resp, &e); err != nil {
		t.Fatal(err)
	}
	if e.Node != dead.URL {
		t.Fatalf("error body names node %q, want %q", e.Node, dead.URL)
	}
	if e.RequestID != "attrib-1" {
		t.Fatalf("error body carries requestId %q, want attrib-1", e.RequestID)
	}
	if !strings.Contains(e.Error, "unreachable") {
		t.Fatalf("error message %q lost the classification", e.Error)
	}
}

// blockingStore is a SnapshotStore whose Put parks until released —
// the "slow disk mid-Close" the draining guard exists for. Clearing
// hang lets Puts through until it is set again.
type blockingStore struct {
	hang    atomic.Bool
	entered chan struct{} // closed when the first parked Put starts
	release chan struct{} // parked Puts return when this closes
	once    sync.Once
	mem     map[string][]byte
	mu      sync.Mutex
}

func newBlockingStore() *blockingStore {
	b := &blockingStore{
		entered: make(chan struct{}),
		release: make(chan struct{}),
		mem:     map[string][]byte{},
	}
	b.hang.Store(true)
	return b
}

func (b *blockingStore) Put(name string, data []byte) error {
	if b.hang.Load() {
		b.once.Do(func() { close(b.entered) })
		<-b.release
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mem[name] = append([]byte(nil), data...)
	return nil
}

func (b *blockingStore) Get(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.mem[name]
	if !ok {
		return nil, fmt.Errorf("missing %q", name)
	}
	return d, nil
}

func (b *blockingStore) Names() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for k := range b.mem {
		out = append(out, k)
	}
	return out, nil
}

func (b *blockingStore) Remove(string) error { return nil }

// TestDrainingNodeAnswers503 is the mid-drain regression (satellite
// #2): the moment Close starts — even while its final checkpoint is
// stuck in a slow store Put, long before the node lock is released —
// every data endpoint answers 503, /readyz reports draining, and the
// liveness/metrics surfaces stay up. Before the guard, these requests
// piled up on the node lock behind Close's pending writer and hung.
func TestDrainingNodeAnswers503(t *testing.T) {
	st := newBlockingStore()
	c := shard.NewL1(0.1, 7, shard.Config{Shards: 2})
	n := NewNode(c, NodeConfig{Store: st})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)
	if _, err := cl.Ingest(context.Background(), []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	select {
	case <-st.entered: // Close is now parked inside Put
	case <-time.After(10 * time.Second):
		t.Fatal("Close never reached the store")
	}

	probe := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s during drain: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := probe("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", got)
	}
	if got := probe("/sample"); got != http.StatusServiceUnavailable {
		t.Errorf("/sample during drain = %d, want 503", got)
	}
	if got := probe("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", got)
	}
	if got := probe("/metrics"); got != http.StatusOK {
		t.Errorf("/metrics during drain = %d, want 200", got)
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/json",
		bytes.NewReader([]byte(`{"items":[4]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/ingest during drain = %d, want 503", resp.StatusCode)
	}

	close(st.release)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the store unblocked")
	}
}

// TestNodeCSVRows: NodeConfig.CSV writes one flat row per ingest
// request, header first, with the request's tracing ID in column two.
func TestNodeCSVRows(t *testing.T) {
	var buf bytes.Buffer
	rec := obs.NewCSVRecorder(&buf, IngestCSVColumns...)
	_, srv, _ := newTestNode(t, NodeConfig{CSV: rec})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/ingest",
		bytes.NewReader([]byte(`{"items":[1,2]}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, "csv-row-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := rec.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.Join(IngestCSVColumns, ",") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	cells := strings.Split(lines[1], ",")
	if len(cells) != len(IngestCSVColumns) {
		t.Fatalf("CSV row has %d cells, want %d: %q", len(cells), len(IngestCSVColumns), lines[1])
	}
	if cells[1] != "csv-row-1" {
		t.Fatalf("CSV request_id = %q, want csv-row-1", cells[1])
	}
	if cells[2] != "200" {
		t.Fatalf("CSV status = %q, want 200", cells[2])
	}
}

// TestConcurrentIngestAndScrape hammers /metrics while batches ingest
// — the concurrent-registry claim, run under -race in CI.
func TestConcurrentIngestAndScrape(t *testing.T) {
	_, _, cl := newTestNode(t, NodeConfig{})
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := cl.Ingest(context.Background(), []int64{int64(w), int64(i)}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := cl.Metrics(context.Background()); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := expositionValue(t, text, "tp_ingest_items_total")
	if !ok || got != fmt.Sprint(workers*rounds*2) {
		t.Fatalf("tp_ingest_items_total = %q (ok=%v), want %d", got, ok, workers*rounds*2)
	}
}
