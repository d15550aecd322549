package serve

// Tests for the binary ingest fast path (application/x-tp-items) and
// the group-commit ingest batcher: codec acceptance, hostile-body
// rejection before the shared buffer, the body-limit interaction,
// per-writer rejection and state equivalence inside one flush group,
// the Close-drain ack contract, and the HTTP-level fuzz target the CI
// fuzz-smoke job runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/sample"
	"repro/sample/shard"
)

func TestIngestBinaryHTTP(t *testing.T) {
	_, _, cl := newTestNode(t, NodeConfig{})
	ack, err := cl.IngestBinary([]int64{4, 4, 4, 4, 9})
	if err != nil {
		t.Fatalf("IngestBinary: %v", err)
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

// Hostile binary bodies answer 400 and leak nothing into the engine:
// a partial frame must never contribute items to a shared flush. The
// direct case posts them to an idle node, where each request would
// flush alone; the coalesced case posts them while a good writer holds
// the flush group open (the test holds ingestMu), so every hostile
// frame decodes into that group's shared buffer and must roll back.
func TestIngestBinaryMalformed(t *testing.T) {
	valid := wire.EncodeItems([]int64{1, 2, 3, 4, 5})
	hostile := map[string][]byte{
		"empty":           {},
		"snapshot magic":  bytes.Replace(valid, []byte("TPIB"), []byte("TPSN"), 1),
		"truncated items": valid[:len(valid)-2],
		"trailing byte":   append(bytes.Clone(valid), 7),
		"huge count":      append(bytes.Clone(valid[:5]), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
	}
	postHostile := func(t *testing.T, url string) {
		t.Helper()
		for tn, body := range hostile {
			resp, err := http.Post(url+"/ingest", ContentTypeBinary, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", tn, resp.StatusCode)
			}
		}
	}
	t.Run("direct", func(t *testing.T) {
		_, srv, cl := newTestNode(t, NodeConfig{})
		postHostile(t, srv.URL)
		// A good batch after the hostile ones: the stream must hold
		// exactly its items — a leaked partial frame would inflate it.
		ack, err := cl.IngestBinary([]int64{8, 9})
		if err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != 2 || ack.StreamLen != 2 {
			t.Fatalf("hostile frames leaked into the engine: ack %+v, want 2/2", ack)
		}
	})
	t.Run("coalesced", func(t *testing.T) {
		n, srv, cl := newTestNode(t, NodeConfig{})
		type result struct {
			ack IngestResponse
			err error
		}
		good := make(chan result, 1)
		n.ingestMu.Lock()
		go func() {
			ack, err := cl.IngestBinary([]int64{8, 9})
			good <- result{ack, err}
		}()
		waitPending(t, n, 1)
		postHostile(t, srv.URL)
		n.batch.mu.Lock()
		writers, buffered := len(n.batch.pending.ends), len(n.batch.pending.items)
		n.batch.mu.Unlock()
		n.ingestMu.Unlock()
		if writers != 1 || buffered != 2 {
			t.Fatalf("open group holds %d writers and %d items after the hostile frames, want 1 and 2", writers, buffered)
		}
		r := <-good
		if r.err != nil {
			t.Fatalf("good writer in the hostile frames' group failed: %v", r.err)
		}
		if r.ack.Accepted != 2 || r.ack.StreamLen != 2 {
			t.Fatalf("hostile frames leaked into the shared flush: ack %+v, want 2/2", r.ack)
		}
	})
}

// The body limit fires before any flush group is touched: an
// oversized binary request 413s without contributing anything to a
// shared flush (the regression test for the body-limit/batcher
// interaction).
func TestIngestBinaryOversizedCoalesced(t *testing.T) {
	_, srv, cl := newTestNode(t, NodeConfig{MaxBodyBytes: 64})
	big := make([]int64, 1024)
	for i := range big {
		big[i] = int64(i)
	}
	resp, err := http.Post(srv.URL+"/ingest", ContentTypeBinary, bytes.NewReader(wire.EncodeItems(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	ack, err := cl.IngestBinary([]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 || ack.StreamLen != 3 {
		t.Fatalf("oversized request leaked into the shared buffer: ack %+v, want 3/3", ack)
	}
}

// pendingWriters reports how many writers the node's open flush group
// holds (0 when none is open).
func pendingWriters(n *Node) int {
	n.batch.mu.Lock()
	defer n.batch.mu.Unlock()
	if n.batch.pending == nil {
		return 0
	}
	return len(n.batch.pending.ends)
}

// waitPending polls until the node's open flush group holds want
// writers. Tests hold n.ingestMu meanwhile, so the group's opening
// writer cannot detach it: every writer started lands in that group,
// in the order the test starts them.
func waitPending(t *testing.T, n *Node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pendingWriters(n) < want {
		if time.Now().After(deadline) {
			t.Fatalf("flush group never reached %d writers (holds %d)", want, pendingWriters(n))
		}
		time.Sleep(time.Millisecond)
	}
}

// One writer's bad items fail only that writer: on a bare-sampler
// node, a hostile writer and a good one forced into one flush group
// get a 400 and a 200, and the engine holds the good writer's items
// plus the hostile writer's prefix before its bad item.
func TestGroupRejectsOnlyTheBadWriter(t *testing.T) {
	n, cl := newSamplerTestNode(t, sample.NewMatrixRowsL2(4, 64, 0.25, 3).Stream())
	type result struct {
		ack IngestResponse
		err error
	}
	bad, good := make(chan result, 1), make(chan result, 1)
	n.ingestMu.Lock()
	go func() {
		ack, err := cl.Ingest([]int64{7, -1})
		bad <- result{ack, err}
	}()
	waitPending(t, n, 1)
	go func() {
		ack, err := cl.Ingest([]int64{5, 9, 2})
		good <- result{ack, err}
	}()
	waitPending(t, n, 2)
	n.ingestMu.Unlock()

	if r := <-bad; r.err == nil || !strings.Contains(r.err.Error(), "400") {
		t.Fatalf("hostile writer answered %+v / %v, want a 400", r.ack, r.err)
	}
	r := <-good
	if r.err != nil {
		t.Fatalf("good writer in the hostile writer's group failed: %v", r.err)
	}
	if r.ack.Accepted != 3 || r.ack.StreamLen != 4 {
		t.Fatalf("good writer's ack %+v, want 3 accepted of stream 4", r.ack)
	}
	if got := n.StreamLen(); got != 4 {
		t.Fatalf("stream length %d, want 4 (the good 3 plus the hostile prefix)", got)
	}
}

// Grouping changes no state: requests forced into one flush group
// leave the node's snapshot bit-for-bit equal to a twin fed the same
// requests one at a time — for a coordinator (one ProcessBatch over
// the concatenation, Misra–Gries normalizer included) and a bare
// sampler (one segment per writer).
func TestGroupedIngestMatchesSequential(t *testing.T) {
	items := stream.NewGenerator(rng.New(29)).Zipf(64, 900, 1.2)
	var reqs [][]int64
	for at := 0; at < len(items); at += 150 {
		reqs = append(reqs, items[at:min(at+150, len(items))])
	}
	kinds := []struct {
		name string
		mk   func() *Node
	}{
		{"lp2", func() *Node {
			return NewNode(shard.NewLp(2, 64, 2000, 0.1, 11, shard.Config{Shards: 2}), NodeConfig{})
		}},
		{"randorderl2", func() *Node {
			return NewSamplerNode(sample.NewRandomOrderL2(256, 8, 11), NodeConfig{})
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			grouped, twin := kind.mk(), kind.mk()
			srv := httptest.NewServer(grouped.Handler())
			t.Cleanup(func() {
				srv.Close()
				grouped.Close()
				twin.Close()
			})
			cl := NewClient(srv.URL)
			errs := make(chan error, len(reqs))
			grouped.ingestMu.Lock()
			for i, part := range reqs {
				go func() {
					// Mixed codecs: the group carries both.
					var err error
					if i%2 == 0 {
						_, err = cl.IngestBinary(part)
					} else {
						_, err = cl.Ingest(part)
					}
					errs <- err
				}()
				waitPending(t, grouped, i+1)
			}
			grouped.ingestMu.Unlock()
			for range reqs {
				if err := <-errs; err != nil {
					t.Fatalf("grouped ingest: %v", err)
				}
			}
			for _, part := range reqs {
				if errs := twin.eng.ProcessBatch(part, []int{len(part)}); errs != nil {
					t.Fatalf("twin ingest: %v", errs)
				}
			}
			text, err := cl.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(text, "tp_coalesce_batch_items_count 1\n") {
				t.Fatalf("want all %d requests in one flush; exposition:\n%s", len(reqs), text)
			}
			got, err := grouped.eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("one flush group left different state than the same requests fed one at a time")
			}
		})
	}
}

// Concurrent writers through the batcher: every request is
// individually acknowledged with its own count, nothing is lost or
// duplicated, and the flush and decode metrics record every request.
func TestCoalescedIngestConcurrent(t *testing.T) {
	n, _, cl := newTestNode(t, NodeConfig{})
	const writers, reqs, per = 16, 8, 10
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			items := make([]int64, per)
			for r := 0; r < reqs; r++ {
				for i := range items {
					items[i] = int64(w*1000 + r)
				}
				// Half the writers speak binary, half JSON: a flush group
				// carries both codecs.
				var ack IngestResponse
				var err error
				if w%2 == 0 {
					ack, err = cl.IngestBinary(items)
				} else {
					ack, err = cl.Ingest(items)
				}
				if err != nil {
					errs <- err
					return
				}
				if ack.Accepted != per {
					errs <- fmt.Errorf("writer %d req %d: accepted %d, want %d", w, r, ack.Accepted, per)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := n.StreamLen(), int64(writers*reqs*per); got != want {
		t.Fatalf("stream mass %d after concurrent coalesced ingest, want %d", got, want)
	}
	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"tp_coalesce_batch_items", "tp_coalesce_queue_wait_seconds"} {
		if !strings.Contains(text, series) {
			t.Fatalf("exposition is missing %s", series)
		}
	}
	// Binary frames decode inside the batcher but still count in the
	// decode stage: one observation per request, whatever its codec.
	if want := fmt.Sprintf("tp_ingest_decode_seconds_count %d\n", writers*reqs); !strings.Contains(text, want) {
		t.Fatalf("exposition lacks %q", want)
	}
}

// Close drains the pending flush group: a writer already in it gets
// its 200 and its items are in the final checkpoint — zero
// acknowledged items lost — while later writers are refused
// unacknowledged.
func TestCoalescedCloseDrain(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := shard.NewL1(0.1, 5, shard.Config{Shards: 2})
	n := NewNode(c, NodeConfig{Store: st})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	// Hold ingestMu so no flush can run, start Close (it drains the
	// batcher under ingestMu, so it queues on the lock), then let a
	// writer that passed the draining guard just before it flipped open
	// a group. Close usually reaches the lock first and flushes the
	// parked group itself; if the writer does, it flushes its own group
	// before the node lock closes. Either way the ack and the final
	// checkpoint below must hold.
	n.ingestMu.Lock()
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	for !n.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(wire.EncodeItems([]int64{1, 2, 3})))
		req.Header.Set("Content-Type", ContentTypeBinary)
		n.handleIngest(rec, req)
	}()
	waitPending(t, n, 1)
	n.ingestMu.Unlock()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-wrote
	var ack IngestResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("parked writer must be flushed and acknowledged by Close, got %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 || ack.StreamLen != 3 {
		t.Fatalf("drained ack %+v, want 3/3", ack)
	}
	if _, err := cl.IngestBinary([]int64{9}); err == nil {
		t.Fatal("ingest after Close was acknowledged")
	}

	restored, skipped, err := Restore(st, NodeConfig{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Close()
	if len(skipped) != 0 {
		t.Fatalf("Restore skipped %v", skipped)
	}
	if got := restored.StreamLen(); got != 3 {
		t.Fatalf("final checkpoint holds mass %d, want the drained 3", got)
	}
}

// FuzzBinaryIngest drives hostile bytes through the full HTTP handler
// of a default node: every body must answer 200 (and then agree
// with the codec's own count), 400, or 413 — never panic, never hang,
// never a partial ingest.
func FuzzBinaryIngest(f *testing.F) {
	f.Add(wire.EncodeItems(nil))
	f.Add(wire.EncodeItems([]int64{1, -1, 1 << 40}))
	f.Add(wire.EncodeItems(make([]int64, 300)))
	f.Add([]byte("TPIB"))
	f.Add([]byte("TPSN not a frame"))
	f.Add(wire.EncodeItems([]int64{5})[:4])

	const maxBody = 1 << 16
	c := shard.NewL1(0.2, 9, shard.Config{Shards: 2})
	n := NewNode(c, NodeConfig{MaxBodyBytes: maxBody})
	h := n.Handler()
	f.Cleanup(func() { n.Close() })

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeBinary)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		count, cErr := wire.ItemsFrameCount(body)
		switch rec.Code {
		case http.StatusOK:
			if cErr != nil {
				t.Fatalf("handler accepted a frame the codec rejects: %v", cErr)
			}
			var ack IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("unparseable ack: %v", err)
			}
			if ack.Accepted != count {
				t.Fatalf("accepted %d items of a %d-item frame", ack.Accepted, count)
			}
		case http.StatusBadRequest:
			if cErr == nil && len(body) <= maxBody {
				t.Fatal("handler rejected a frame the codec accepts")
			}
		case http.StatusRequestEntityTooLarge:
			if len(body) <= maxBody {
				t.Fatalf("413 for a %d-byte body under the %d limit", len(body), maxBody)
			}
		default:
			t.Fatalf("status %d for a binary ingest body", rec.Code)
		}
	})
}
