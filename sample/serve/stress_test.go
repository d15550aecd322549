package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sample/shard"
	"repro/sample/snap"
)

// Query/ingest/checkpoint stress: concurrent HTTP sample queries,
// concurrent HTTP ingest batches, and explicit checkpoints all hammer
// one node. Run under -race this is the serving tier's data-race proof
// of the query fast path — the shared query snapshot is invalidated
// from both directions (ingestion bumps the version, a checkpoint cut
// drops it) while queries keep reading it; the law itself is pinned by
// the claims tests.
func TestNodeQueryIngestCheckpointStress(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(shard.NewL1(0.05, 23, shard.Config{Shards: 4, Queries: 4}),
		NodeConfig{Store: st})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	const (
		writers = 2
		batches = 25
		batchN  = 64
	)
	batch := make([]int64, batchN)
	for i := range batch {
		batch[i] = int64(i % 13)
	}

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			cl := NewClient(srv.URL)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cl.SampleK(context.Background(), 4)
				if err != nil {
					t.Errorf("SampleK: %v", err)
					return
				}
				for _, o := range resp.Outcomes {
					if !o.Bottom && (o.Item < 0 || o.Item >= 13) {
						t.Errorf("draw outside support: %+v", o)
						return
					}
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := node.Checkpoint(); err != nil {
				t.Errorf("Checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			cl := NewClient(srv.URL)
			for b := 0; b < batches; b++ {
				if _, err := cl.Ingest(context.Background(), batch); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
			}
		}()
	}
	ingest.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	if got, want := node.Coordinator().StreamLen(), int64(writers*batches*batchN); got != want {
		t.Fatalf("StreamLen = %d, want %d (every acknowledged batch must be in)", got, want)
	}
	// Quiesced, two back-to-back queries: the second answers from the
	// shared snapshot, visible on the node's metric.
	cl := NewClient(srv.URL)
	for i := 0; i < 2; i++ {
		if _, err := cl.SampleK(context.Background(), 4); err != nil {
			t.Fatal(err)
		}
	}
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sharedTotal := -1.0
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "tp_node_query_snapshot_shared_total "); ok {
			if sharedTotal, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if sharedTotal < 1 {
		t.Fatalf("tp_node_query_snapshot_shared_total = %v after a quiesced repeat query, want ≥ 1", sharedTotal)
	}
}

// Snapshot cut-cache stress: concurrent ingest, /sample, /snapshot
// revalidation and Checkpoint on one node. Under -race this is the
// data-race proof of the epoch-keyed cut cache; the assertions are the
// cache's two observable promises. Every full body hashes to the name
// it is advertised under (ETag and X-Snapshot-Name), so a cached cut is
// never paired with another cut's name. And once an ingest is
// acknowledged, no later revalidation against a name fetched before
// the ingest answers 304: the stream only grows, so that state is
// gone for good, and a 304 for it would be a stale cut.
func TestNodeSnapshotCutCacheStress(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(shard.NewL1(0.05, 29, shard.Config{Shards: 4, Queries: 2}),
		NodeConfig{Store: st})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	// get fetches /snapshot?since=since and checks any full body against
	// its advertised name; it returns the advertised name and whether
	// the node answered 304.
	get := func(since string) (string, bool, error) {
		u := srv.URL + "/snapshot"
		if since != "" {
			u += "?since=" + url.QueryEscape(since)
		}
		resp, err := http.Get(u)
		if err != nil {
			return "", false, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", false, err
		}
		name := resp.Header.Get("X-Snapshot-Name")
		if etag := resp.Header.Get("ETag"); etag != `"`+name+`"` {
			return "", false, fmt.Errorf("ETag %s does not quote X-Snapshot-Name %s", etag, name)
		}
		switch {
		case resp.StatusCode == http.StatusNotModified:
			return name, true, nil
		case resp.StatusCode != http.StatusOK:
			return "", false, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		case resp.Header.Get("X-Snapshot-Base") == "" && snap.Name(body) != name:
			return "", false, fmt.Errorf("full body hashes to %s, advertised as %s", snap.Name(body), name)
		}
		return name, false, nil
	}

	const writers, batches = 2, 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	loop := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cl := NewClient(srv.URL)
	loop(func() error { _, err := cl.SampleK(context.Background(), 2); return err })
	var last string
	loop(func() error {
		name, _, err := get(last) // revalidate like an aggregator
		last = name
		return err
	})
	loop(func() error {
		_, err := node.Checkpoint()
		time.Sleep(time.Millisecond)
		return err
	})

	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			wcl := NewClient(srv.URL)
			for b := 0; b < batches; b++ {
				pre, _, err := get("")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := wcl.Ingest(context.Background(), []int64{int64(w), int64(b), 5}); err != nil {
					t.Error(err)
					return
				}
				if _, notMod, err := get(pre); err != nil || notMod {
					t.Errorf("after an acked ingest, /snapshot?since=<pre-ingest name> answered 304=%v (err %v)", notMod, err)
					return
				}
			}
		}(w)
	}
	ingest.Wait()
	close(stop)
	wg.Wait()
	if got, want := node.Coordinator().StreamLen(), int64(writers*batches*3); got != want {
		t.Fatalf("StreamLen = %d, want %d", got, want)
	}
}
