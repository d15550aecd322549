package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/sample/shard"
)

func newTestNode(t *testing.T, cfg NodeConfig) (*Node, *httptest.Server, *Client) {
	t.Helper()
	c := shard.NewL1(0.1, 7, shard.Config{Shards: 2})
	n := NewNode(c, cfg)
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return n, srv, NewClient(srv.URL)
}

func TestIngestAndSampleHTTP(t *testing.T) {
	_, _, cl := newTestNode(t, NodeConfig{})
	ack, err := cl.Ingest([]int64{4, 4, 4, 4, 9})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if ack.Accepted != 5 || ack.StreamLen != 5 {
		t.Fatalf("ack = %+v, want 5/5", ack)
	}
	resp, err := cl.Sample()
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if resp.Count != 1 || resp.StreamLen != 5 {
		t.Fatalf("sample = %+v", resp)
	}
	if it := resp.Outcomes[0].Item; it != 4 && it != 9 {
		t.Fatalf("sampled item %d outside the ingested support", it)
	}
}

func TestIngestMalformed(t *testing.T) {
	_, srv, _ := newTestNode(t, NodeConfig{})
	cases := []struct {
		name, ct, body string
	}{
		{"not json", "application/json", "item soup"},
		{"wrong shape", "application/json", `{"items": "nope"}`},
		{"trailing garbage", "application/json", `{"items":[1]} {"items":[2]}`},
		{"ndjson bad line", "application/x-ndjson", "[1,2]\n{\"x\":1}\n"},
		{"ndjson torn array", "application/x-ndjson", "[1,2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/ingest", tc.ct, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	// Malformed batches must not have ingested anything.
	cl := NewClient(srv.URL)
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.StreamLen != 0 {
		t.Fatalf("malformed batches ingested %d updates", st.StreamLen)
	}
}

func TestIngestOversizedBody(t *testing.T) {
	_, srv, _ := newTestNode(t, NodeConfig{MaxBodyBytes: 256})
	big := "{\"items\":[" + strings.Repeat("1234567,", 100) + "1]}"
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestMethodAndParamErrors(t *testing.T) {
	_, srv, _ := newTestNode(t, NodeConfig{})
	if resp, err := http.Get(srv.URL + "/ingest"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/sample?k=zero"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}
}

// TestSnapshotRoundTripHTTP: the bytes served by GET /snapshot are a
// full fleet checkpoint — fetched over the wire, they restore a
// coordinator that continues the node's stream bit-for-bit.
func TestSnapshotRoundTripHTTP(t *testing.T) {
	gen := stream.NewGenerator(rng.New(5))
	items := gen.Zipf(64, 2000, 1.2)

	n, _, cl := newTestNode(t, NodeConfig{})
	if _, err := cl.Ingest(items[:1000]); err != nil {
		t.Fatal(err)
	}
	data, name, err := cl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot fetch: %v", err)
	}
	if !strings.HasSuffix(name, ".tpsn") || !strings.HasPrefix(name, "coordinator-") {
		t.Fatalf("advertised name %q is not content-addressed", name)
	}
	restored, err := shard.RestoreCoordinator(data)
	if err != nil {
		t.Fatalf("RestoreCoordinator over HTTP bytes: %v", err)
	}
	defer restored.Close()

	// Identical suffix into the live node (over HTTP) and the restored
	// coordinator: identical merged answers.
	if _, err := cl.Ingest(items[1000:]); err != nil {
		t.Fatal(err)
	}
	restored.ProcessBatch(items[1000:])
	for i := 0; i < 4; i++ {
		want, wantOK := n.Coordinator().Sample()
		got, gotOK := restored.Sample()
		if wantOK != gotOK || want != got {
			t.Fatalf("restored answer %d diverges: %+v/%v vs %+v/%v", i, got, gotOK, want, wantOK)
		}
	}
}

// TestConcurrentIngestAndQuery hammers one node with parallel ingest,
// sample, stats and snapshot traffic; the race detector is the judge.
func TestConcurrentIngestAndQuery(t *testing.T) {
	_, srv, _ := newTestNode(t, NodeConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(srv.URL)
			for i := 0; i < 25; i++ {
				if _, err := cl.Ingest([]int64{int64(g), int64(i % 7)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(srv.URL)
			for i := 0; i < 15; i++ {
				if _, err := cl.Sample(); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Stats(); err != nil {
					errs <- err
					return
				}
				if _, _, err := cl.Snapshot(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseNoDeadlockWithStatsAndCheckpoint: /stats reads checkpoint
// stats outside the node lock and checkpoint cuts take ckptMu before
// the node lock; an inversion between the two wedges stats ↔
// checkpoint ↔ Close the moment Close's writer goes pending. This test
// drives all three concurrently and fails if Close cannot finish.
func TestCloseNoDeadlockWithStatsAndCheckpoint(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := shard.NewL1(0.1, 7, shard.Config{Shards: 2})
	n := NewNode(c, NodeConfig{Store: store})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			cl := NewClient(srv.URL)
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = cl.Stats() // 503 after Close is fine
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = n.Checkpoint() // refused after Close is fine
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- n.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked under stats/checkpoint contention")
	}
	close(stop)
	wg.Wait()
}

// TestClosedNodeAnswers503: after Close every endpoint refuses instead
// of touching the closed coordinator, and Close is idempotent.
func TestClosedNodeAnswers503(t *testing.T) {
	c := shard.NewL1(0.1, 7, shard.Config{Shards: 2})
	n := NewNode(c, NodeConfig{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader([]byte(`{"items":[1]}`)))
		},
		func() (*http.Response, error) { return http.Get(srv.URL + "/sample") },
		func() (*http.Response, error) { return http.Get(srv.URL + "/stats") },
		func() (*http.Response, error) { return http.Get(srv.URL + "/snapshot") },
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("closed node answered %d, want 503", resp.StatusCode)
		}
	}
	if _, err := n.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a closed node succeeded")
	}
}

func TestSeqOf(t *testing.T) {
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"0000000000000012-coordinator-abc.tpsn", 12},
		{"handplaced.tpsn", 0},
		{"x-y", 0},
	} {
		if got := seqOf(tc.name); got != tc.want {
			t.Errorf("seqOf(%q) = %d, want %d", tc.name, got, tc.want)
		}
	}
}
