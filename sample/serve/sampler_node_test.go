package serve

// HTTP coverage for bare sampler nodes (NewSamplerNode): the dormant
// single-stream kinds served without a coordinator — ingest/sample/
// snapshot round trips, hostile packed items answering 400 without
// killing the node, and the aggregator's 422 refusal for random-order
// fleets.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/sample"
	"repro/sample/snap"
)

// newSamplerTestNode serves a bare sampler over HTTP with cleanup.
func newSamplerTestNode(t *testing.T, s sample.Sampler) (*Node, *Client) {
	t.Helper()
	n := NewSamplerNode(s, NodeConfig{})
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(func() {
		srv.Close()
		n.Close()
	})
	return n, NewClient(srv.URL)
}

func TestSamplerNodeIngestSampleSnapshot(t *testing.T) {
	_, cl := newSamplerTestNode(t, sample.NewTurnstileF0(32, 0.1, 9).Stream())

	// Inserts plus one deletion, packed: item 7 is inserted twice and
	// deleted once, item 3 three times.
	items := []int64{7, 3, 7, 3, 3, sample.PackTurnstileItem(sample.Update{Item: 7, Delta: -1})}
	ack, err := cl.Ingest(context.Background(), items)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if ack.Accepted != len(items) || ack.StreamLen != int64(len(items)) {
		t.Fatalf("ack = %+v, want %d/%d", ack, len(items), len(items))
	}

	resp, err := cl.SampleK(context.Background(), 1)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	if resp.Count != 1 || resp.StreamLen != int64(len(items)) {
		t.Fatalf("sample = %+v", resp)
	}
	out := resp.Outcomes[0]
	wantFreq := map[int64]int64{3: 3, 7: 1}
	if f, ok := wantFreq[out.Item]; !ok || out.Freq != f {
		t.Fatalf("served outcome %+v outside the exact support/frequency table %v", out, wantFreq)
	}

	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.StreamLen != int64(len(items)) || st.Shards != 1 {
		t.Fatalf("stats = %+v, want streamLen %d over 1 shard", st, len(items))
	}
	if !strings.Contains(st.Sampler, "turnstilef0") {
		t.Fatalf("stats sampler %q does not name the kind", st.Sampler)
	}

	// GET /snapshot must hand back bytes snap.Restore accepts, carrying
	// the full ingested state.
	res, err := cl.SnapshotSince(context.Background(), "")
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, name := res.Data, res.Name
	if name == "" {
		t.Fatal("snapshot answered with an empty content-addressed name")
	}
	restored, err := snap.Restore(data)
	if err != nil {
		t.Fatalf("Restore of served snapshot: %v", err)
	}
	if restored.StreamLen() != int64(len(items)) {
		t.Fatalf("restored stream length %d, want %d", restored.StreamLen(), len(items))
	}
}

// TestSamplerNodeHostileItem400: a batch carrying an item the kind
// rejects (a negative packed matrix item, a deletion below zero)
// answers 400 and leaves the node serving.
func TestSamplerNodeHostileItem400(t *testing.T) {
	cases := []struct {
		name    string
		s       sample.Sampler
		good    []int64
		hostile []int64
	}{
		{
			name:    "matrix-negative-item",
			s:       sample.NewMatrixRowsL2(4, 64, 0.25, 3).Stream(),
			good:    []int64{5, 9, 2},
			hostile: []int64{-1},
		},
		{
			name:    "multipass-deletion-below-zero",
			s:       sample.NewMultipassLp(2, 0.5, 0.25, 4).Stream(16),
			good:    []int64{5, 9, 2},
			hostile: []int64{sample.PackTurnstileItem(sample.Update{Item: 11, Delta: -1})},
		},
		{
			name:    "multipass-outside-universe",
			s:       sample.NewMultipassLp(2, 0.5, 0.25, 5).Stream(16),
			good:    []int64{5, 9, 2},
			hostile: []int64{16},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cl := newSamplerTestNode(t, tc.s)
			if _, err := cl.Ingest(context.Background(), tc.good); err != nil {
				t.Fatalf("good batch: %v", err)
			}
			_, err := cl.Ingest(context.Background(), tc.hostile)
			if err == nil {
				t.Fatal("hostile batch accepted")
			}
			if !strings.Contains(err.Error(), "400") {
				t.Fatalf("hostile batch answered %v, want a 400", err)
			}
			// The node survives and keeps answering.
			resp, err := cl.SampleK(context.Background(), 1)
			if err != nil {
				t.Fatalf("Sample after hostile batch: %v", err)
			}
			if resp.StreamLen != int64(len(tc.good)) {
				t.Fatalf("stream length %d after rejected batch, want the good %d",
					resp.StreamLen, len(tc.good))
			}
		})
	}
}

// TestAggregatorRandOrderRefusal: a fleet of random-order sampler
// nodes answers 422 through the aggregator — the snapshots are
// healthy, they just don't compose (the uniform-order guarantee is
// local to one stream's arrival clock) — and the body carries
// snap.ErrRandOrderMergeUnsupported's sentinel text.
func TestAggregatorRandOrderRefusal(t *testing.T) {
	var urls []string
	for seed := uint64(1); seed <= 2; seed++ {
		n := NewSamplerNode(sample.NewRandomOrderL2(64, 8, seed), NodeConfig{})
		srv := httptest.NewServer(n.Handler())
		t.Cleanup(func() {
			srv.Close()
			n.Close()
		})
		if _, err := NewClient(srv.URL).Ingest(context.Background(), []int64{3, 3, 5, 9}); err != nil {
			t.Fatal(err)
		}
		urls = append(urls, srv.URL)
	}
	agg := NewAggregator(5, urls...)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/sample")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		resp.Body.Close()
		t.Fatalf("random-order fleet: status %d, want 422", resp.StatusCode)
	}
	var e errorBody
	if err := decodeErr(resp, &e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "random-order snapshots do not merge") {
		t.Fatalf("refusal message %q does not carry the sentinel text", e.Error)
	}
}
