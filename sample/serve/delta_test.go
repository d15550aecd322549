package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

func newTestCoordinator(seed uint64) *shard.Coordinator {
	return shard.NewL1(0.1, seed, shard.Config{Shards: 2})
}

// TestDeltaCheckpointChain: on the FullEvery cadence a node writes one
// full checkpoint, then deltas, then a full again; deltas are smaller;
// Restore folds the whole chain back with nothing skipped.
func TestDeltaCheckpointChain(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(newTestCoordinator(3), NodeConfig{Store: store, FullEvery: 4, KeepCheckpoints: -1})
	var total int64
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 5; j++ {
			n.Coordinator().Process(i*5 + j)
			total++
		}
		if _, err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	names, err := store.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("store holds %d checkpoints, want 6: %v", len(names), names)
	}
	var fullSize, deltaSize int
	for i, nm := range names {
		data, err := store.Get(nm)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := i%4 != 0 // FullEvery 4: seq 0 and 4 full, rest deltas
		if isDeltaName(nm) != wantDelta || snap.IsDelta(data) != wantDelta {
			t.Fatalf("checkpoint %d (%s): delta=%v, want %v", i, nm, snap.IsDelta(data), wantDelta)
		}
		if wantDelta {
			deltaSize = len(data)
		} else {
			fullSize = len(data)
		}
	}
	if deltaSize >= fullSize {
		t.Fatalf("delta checkpoint (%d bytes) not smaller than full (%d bytes)", deltaSize, fullSize)
	}
	if st := n.stats.Load(); st.count != 6 || st.deltas != 4 {
		t.Fatalf("stats report %d/%d checkpoints, want 6 total / 4 deltas", st.count, st.deltas)
	}
	n.Coordinator().Close() // crash
	restored, skipped, err := Restore(store, NodeConfig{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Close()
	if len(skipped) != 0 {
		t.Fatalf("Restore skipped %v on a clean chain", skipped)
	}
	if got := restored.Coordinator().StreamLen(); got != total {
		t.Fatalf("restored mass %d, want %d", got, total)
	}
}

// TestRestoreFoldsPastTornMidChainDelta: a torn delta in the middle of
// a chain loses only the tail — Restore folds the intact prefix and
// reports exactly which files it skipped and why, distinguishing the
// torn file (a decode error) from the ones orphaned behind it (base
// mismatches).
func TestRestoreFoldsPastTornMidChainDelta(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(newTestCoordinator(5), NodeConfig{Store: store, FullEvery: 8, KeepCheckpoints: -1})
	var names []string
	for i := int64(0); i < 4; i++ { // full + 3 deltas
		n.Coordinator().ProcessBatch([]int64{i * 3, i*3 + 1, i*3 + 2})
		nm, err := n.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, nm)
	}
	n.Coordinator().Close() // crash
	// Tear the second delta mid-chain the way a power loss would.
	torn := names[2]
	data, err := store.Get(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), torn), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	restored, skipped, err := Restore(store, NodeConfig{})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer restored.Close()
	// full + first delta survive: 2 checkpoints × 3 updates.
	if got := restored.Coordinator().StreamLen(); got != 6 {
		t.Fatalf("restored mass %d, want the pre-tear 6", got)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %v, want the torn delta and its orphan", skipped)
	}
	if skipped[0].Name != names[2] || skipped[1].Name != names[3] {
		t.Fatalf("skipped the wrong files: %v (wrote %v)", skipped, names)
	}
	if errors.Is(skipped[0].Err, snap.ErrDeltaBaseMismatch) {
		t.Fatalf("torn file reported as a base mismatch: %v", skipped[0].Err)
	}
	if !errors.Is(skipped[1].Err, snap.ErrDeltaBaseMismatch) {
		t.Fatalf("orphaned delta not reported as a base mismatch: %v", skipped[1].Err)
	}
}

// TestRetentionKeepsChainAnchor: pruning never orphans a delta — the
// cut slides back to the full checkpoint anchoring the oldest kept
// file, and the store stays restorable to the newest state throughout.
func TestRetentionKeepsChainAnchor(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(newTestCoordinator(7), NodeConfig{Store: store, FullEvery: 3, KeepCheckpoints: 2})
	var total int64
	for i := int64(0); i < 7; i++ {
		n.Coordinator().Process(i)
		total++
		if _, err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		names, err := store.Names()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) == 0 || isDeltaName(names[0]) {
			t.Fatalf("after write %d the oldest kept file %q is an orphaned delta: %v",
				i, names[0], names)
		}
	}
	n.Coordinator().Close() // crash
	restored, skipped, err := Restore(store, NodeConfig{})
	if err != nil {
		t.Fatalf("Restore after pruning: %v", err)
	}
	defer restored.Close()
	if len(skipped) != 0 {
		t.Fatalf("Restore skipped %v on a pruned-but-intact chain", skipped)
	}
	if got := restored.Coordinator().StreamLen(); got != total {
		t.Fatalf("restored mass %d, want %d", got, total)
	}
}

// TestSnapshotConditionalFetch: the /snapshot endpoint's three answer
// shapes — 304 on a matching validator (ETag/If-None-Match or ?since=),
// a v2 delta for a recent known base, a full otherwise — through the
// typed client.
func TestSnapshotConditionalFetch(t *testing.T) {
	n := NewNode(newTestCoordinator(9), NodeConfig{})
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	n.Coordinator().ProcessBatch([]int64{1, 2, 3})
	first, err := cl.SnapshotSince(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified || first.Base != "" || first.Name == "" {
		t.Fatalf("unconditional fetch came back %+v", first)
	}
	if snap.Name(first.Data) != first.Name {
		t.Fatalf("advertised name %q does not address the bytes (%q)", first.Name, snap.Name(first.Data))
	}

	// Unchanged: one header round-trip.
	same, err := cl.SnapshotSince(context.Background(), first.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !same.NotModified || same.Name != first.Name {
		t.Fatalf("revalidation came back %+v", same)
	}

	// Changed, known base: a delta.
	n.Coordinator().ProcessBatch([]int64{4, 5})
	d, err := cl.SnapshotSince(context.Background(), first.Name)
	if err != nil {
		t.Fatal(err)
	}
	if d.NotModified || d.Base != first.Name {
		t.Fatalf("delta fetch came back %+v", d)
	}
	full, err := applyAnyDelta(first.Data, d.Data)
	if err != nil {
		t.Fatalf("applying the served delta: %v", err)
	}
	if snap.Name(full) != d.Name {
		t.Fatalf("folded delta yields %q, node advertised %q", snap.Name(full), d.Name)
	}
	if len(d.Data) >= len(full) {
		t.Fatalf("served delta (%d bytes) not smaller than the full snapshot (%d bytes)", len(d.Data), len(full))
	}

	// Changed, unknown base: degrades to a full snapshot.
	n.Coordinator().Process(6)
	f, err := cl.SnapshotSince(context.Background(), "coordinator-00000000deadbeef.tpsn")
	if err != nil {
		t.Fatal(err)
	}
	if f.NotModified || f.Base != "" || !shard.IsCoordinatorSnapshot(f.Data) {
		t.Fatalf("unknown-base fetch came back %+v", f)
	}
}

// TestAggregatorSnapshotCache: for nodes that do not summarize (sampler
// nodes, fetched through /snapshot), per node and query exactly one of
// hit/delta/full advances; unchanged nodes cost no snapshot bodies, a
// changed node costs only its delta, and the merged answers stay
// available throughout.
func TestAggregatorSnapshotCache(t *testing.T) {
	var urls []string
	for j := 0; j < 2; j++ {
		n := NewSamplerNode(sample.NewLp(2, 64, 1000, 0.1, uint64(j)+1), NodeConfig{})
		defer n.Close()
		srv := httptest.NewServer(n.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
		if _, err := NewClient(srv.URL).Ingest(context.Background(), []int64{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	agg := NewAggregator(42, urls...)

	query := func() {
		t.Helper()
		merged, pools, err := agg.Merge(context.Background())
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		if pools != 2 || merged.StreamLen() == 0 {
			t.Fatalf("merged %d pools, mass %d", pools, merged.StreamLen())
		}
	}
	query() // cold: every node a full fetch
	c := agg.Counters()
	if c.FullFetches != 2 || c.CacheHits != 0 || c.DeltaFetches != 0 {
		t.Fatalf("cold query counters: %+v", c)
	}
	bytesAfterCold := c.BytesFetched

	query() // warm, unchanged: zero bodies, zero full fetches
	c = agg.Counters()
	if c.CacheHits != 2 || c.FullFetches != 2 || c.DeltaFetches != 0 {
		t.Fatalf("warm query counters: %+v", c)
	}
	if c.BytesFetched != bytesAfterCold {
		t.Fatalf("revalidation transferred %d bytes", c.BytesFetched-bytesAfterCold)
	}

	if _, err := NewClient(urls[0]).Ingest(context.Background(), []int64{5, 6}); err != nil {
		t.Fatal(err)
	}
	query() // one node moved: its delta, the other a hit
	c = agg.Counters()
	if c.DeltaFetches != 1 || c.CacheHits != 3 || c.FullFetches != 2 {
		t.Fatalf("post-ingest query counters: %+v", c)
	}
	if c.BytesFetched <= bytesAfterCold || c.BytesFetched-bytesAfterCold >= bytesAfterCold/2 {
		t.Fatalf("delta fetch transferred %d bytes against %d cold", c.BytesFetched-bytesAfterCold, bytesAfterCold)
	}
}

// TestSnapshotSinceOldestBase: a ?since= request naming the oldest
// state in a full base ring still gets a delta. The node looks the base
// up before it remembers the new cut; remembering first would evict
// the very base the caller named and answer with the full snapshot.
// The decoded base the node keeps is dropped by the newer cuts, so the
// diff also runs from bytes.
func TestSnapshotSinceOldestBase(t *testing.T) {
	n := NewNode(newTestCoordinator(21), NodeConfig{})
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)

	n.Coordinator().ProcessBatch([]int64{1, 2, 3, 4})
	oldest, err := cl.SnapshotSince(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	prev := oldest.Name
	// Fill the ring: each ?since= fetch remembers a newer cut, the last
	// with its decoded form.
	for i := 1; i < snapshotBaseHistory; i++ {
		n.Coordinator().Process(int64(10 + i))
		res, err := cl.SnapshotSince(context.Background(), prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = res.Name
	}
	n.basesMu.Lock()
	ring, decoded := len(n.bases), 0
	for _, b := range n.bases {
		if b.state != nil {
			decoded++
		}
	}
	head := n.bases[0].name
	n.basesMu.Unlock()
	if ring != snapshotBaseHistory || head != oldest.Name || decoded != 1 {
		t.Fatalf("ring holds %d entries (%d decoded), oldest %q; want %d (1 decoded), oldest %q",
			ring, decoded, head, snapshotBaseHistory, oldest.Name)
	}

	n.Coordinator().Process(99)
	d, err := cl.SnapshotSince(context.Background(), oldest.Name)
	if err != nil {
		t.Fatal(err)
	}
	if d.NotModified || d.Base != oldest.Name {
		t.Fatalf("since=oldest ring base came back full: base %q, %d bytes", d.Base, len(d.Data))
	}
	full, err := applyAnyDelta(oldest.Data, d.Data)
	if err != nil {
		t.Fatalf("applying the served delta: %v", err)
	}
	if snap.Name(full) != d.Name {
		t.Fatalf("folded delta yields %q, node advertised %q", snap.Name(full), d.Name)
	}
}
