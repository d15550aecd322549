package repro

// Headline claims for the query fast path (DESIGN.md §9): the
// aggregator's cached merge plan answers with exactly the same law as
// a fresh merge — and as one single-machine sampler on the union
// stream — because the plan cache only skips re-decoding work whose
// random content is frozen inside the fingerprinted snapshot bytes.
// Invalidation is exact (a post-ingest query never answers from a
// stale plan), and a hung node cannot pin a query past
// AggregatorConfig.QueryTimeout.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
	"repro/sample/snap"
)

// Claim (plan-cache law): on an unchanged 2-node fleet, the first
// aggregator query (which builds the merge plan) and the second (which
// reuses it) are both chi-square-indistinguishable from the exact
// single-sampler law on the concatenated stream. The two histograms
// are correlated with each other — a cached plan replays the frozen
// trial realizations, as documented on snap.BuildMergePlan — but each
// is tested against the exact marginal law on its own, which is the
// property the cache must not break. Counters pin the cache behavior:
// exactly one rebuild and one hit per fleet.
func TestClaimQueryPlanLaw(t *testing.T) {
	const (
		n      = int64(32)
		m      = 2400
		delta  = 0.2
		k      = 256
		fleets = 12
	)
	gen := stream.NewGenerator(rng.New(73))
	items := gen.Zipf(n, m, 1.3)
	freq := stream.Frequencies(items)
	target := stats.GDistribution(freq, func(f int64) float64 { return float64(f) })
	// Item-disjoint halves, as a front-door hash router would produce.
	var parts [2][]int64
	for _, it := range items {
		parts[int(it)%2] = append(parts[int(it)%2], it)
	}

	rebuilt := stats.Histogram{}
	cached := stats.Histogram{}
	singleRun := stats.Histogram{}
	for fleet := 0; fleet < fleets; fleet++ {
		base := uint64(fleet)*16 + 1
		var urls []string
		for j := 0; j < 2; j++ {
			node := serve.NewNode(
				shard.NewL1(delta, base+uint64(j), shard.Config{Shards: 2, Queries: k}),
				serve.NodeConfig{})
			srv := httptest.NewServer(node.Handler())
			defer srv.Close()
			defer node.Close()
			urls = append(urls, srv.URL)
			if _, err := serve.NewClient(srv.URL).Ingest(parts[j]); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		agg := serve.NewAggregator(base+11, urls...)
		aggSrv := httptest.NewServer(agg.Handler())
		cl := serve.NewClient(aggSrv.URL)
		for q, h := range []stats.Histogram{rebuilt, cached} {
			resp, err := cl.SampleK(k)
			if err != nil {
				aggSrv.Close()
				t.Fatalf("fleet %d query %d: %v", fleet, q, err)
			}
			for _, o := range resp.Outcomes {
				if !o.Bottom {
					h.Add(o.Item)
				}
			}
		}
		aggSrv.Close()
		if c := agg.Counters(); c.PlanRebuilds != 1 || c.PlanHits != 1 {
			t.Fatalf("fleet %d: two queries on an unchanged fleet gave %d plan rebuilds / %d hits, want 1/1",
				fleet, c.PlanRebuilds, c.PlanHits)
		}

		ref := sample.NewL1(delta, base+7, sample.Queries(k))
		ref.ProcessBatch(items)
		outs, _ := ref.SampleK(k)
		for _, o := range outs {
			if !o.Bottom {
				singleRun.Add(o.Item)
			}
		}
	}
	for _, h := range []struct {
		name string
		h    stats.Histogram
	}{{"plan-rebuild", rebuilt}, {"plan-cached", cached}, {"single-run", singleRun}} {
		chi, dof, p := stats.ChiSquare(h.h, target, 5)
		t.Logf("%s: N=%d chi2=%.2f dof=%d p=%.4f", h.name, h.h.Total(), chi, dof, p)
		if p < 1e-3 {
			t.Fatalf("%s law deviates from the exact distribution: chi2=%.2f dof=%d p=%.5f",
				h.name, chi, dof, p)
		}
		if h.h.Total() < fleets*k*8/10 {
			t.Fatalf("%s queries failed too often: %d/%d", h.name, h.h.Total(), fleets*k)
		}
	}
}

// Claim (plan invalidation): a query after new ingest never answers
// from the stale plan — the content-addressed fingerprint moves with
// any node's state, forcing a rebuild whose answer reflects the new
// mass. And a rebuilt plan is byte-identical to a cached one built
// from the same states: an aggregator whose plan was invalidated and
// one whose plan stayed cached answer the same query seed with
// exactly the same outcomes.
func TestClaimQueryPlanInvalidation(t *testing.T) {
	const k = 8
	node := serve.NewNode(shard.NewL1(0.1, 5, shard.Config{Shards: 2, Queries: k}),
		serve.NodeConfig{})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	if _, err := serve.NewClient(srv.URL).Ingest([]int64{1, 2, 3, 3, 3, 4}); err != nil {
		t.Fatal(err)
	}

	// aggA queries before and after the extra ingest: its second query
	// must rebuild. aggB (same seed) only ever sees the final state: its
	// second query is a plan hit at the same query counter.
	aggA := serve.NewAggregator(77, srv.URL)
	srvA := httptest.NewServer(aggA.Handler())
	defer srvA.Close()
	if _, err := serve.NewClient(srvA.URL).SampleK(k); err != nil {
		t.Fatal(err)
	}

	if _, err := serve.NewClient(srv.URL).Ingest([]int64{9, 9, 9, 9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	respA, err := serve.NewClient(srvA.URL).SampleK(k)
	if err != nil {
		t.Fatal(err)
	}
	if respA.StreamLen != 14 {
		t.Fatalf("post-ingest query answered stale mass %d, want 14", respA.StreamLen)
	}
	if c := aggA.Counters(); c.PlanRebuilds != 2 || c.PlanHits != 0 {
		t.Fatalf("ingest between queries gave %d rebuilds / %d hits, want 2/0", c.PlanRebuilds, c.PlanHits)
	}

	aggB := serve.NewAggregator(77, srv.URL)
	srvB := httptest.NewServer(aggB.Handler())
	defer srvB.Close()
	if _, err := serve.NewClient(srvB.URL).SampleK(k); err != nil {
		t.Fatal(err)
	}
	respB, err := serve.NewClient(srvB.URL).SampleK(k)
	if err != nil {
		t.Fatal(err)
	}
	if c := aggB.Counters(); c.PlanRebuilds != 1 || c.PlanHits != 1 {
		t.Fatalf("unchanged fleet gave %d rebuilds / %d hits, want 1/1", c.PlanRebuilds, c.PlanHits)
	}
	// Same node state, same seed, same query counter: the rebuilt plan
	// (aggA, invalidated) and the cached plan (aggB) must agree draw for
	// draw.
	if len(respA.Outcomes) != len(respB.Outcomes) || respA.Count != respB.Count {
		t.Fatalf("rebuilt vs cached plan shapes differ: %d/%d draws vs %d/%d",
			len(respA.Outcomes), respA.Count, len(respB.Outcomes), respB.Count)
	}
	for i := range respA.Outcomes {
		if respA.Outcomes[i] != respB.Outcomes[i] {
			t.Fatalf("draw %d diverges between rebuilt and cached plan: %+v vs %+v",
				i, respA.Outcomes[i], respB.Outcomes[i])
		}
	}
}

// Claim (query timeout): a node that accepts the connection and never
// responds cannot pin an aggregator query — with
// AggregatorConfig.QueryTimeout set, the query answers 502 within the
// deadline instead of hanging for the HTTP client's (or forever's)
// worth of wait.
func TestClaimQueryTimeoutHungNode(t *testing.T) {
	hang := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer func() {
		close(hang)
		hung.Close()
	}()

	agg := serve.NewAggregatorConfig(3, serve.AggregatorConfig{QueryTimeout: 200 * time.Millisecond}, hung.URL)
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()

	t0 := time.Now()
	_, err := serve.NewClient(srv.URL).SampleK(1)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("query against a hung node succeeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("query took %v against a hung node, QueryTimeout is 200ms", elapsed)
	}
	t.Logf("hung-node query failed in %v: %v", elapsed, err)
}

// cutCacheTwin is the in-process reference a served node is checked
// against: the same engine, built with the same seed, driven through
// the same calls directly.
type cutCacheTwin struct {
	ingest   func([]int64)
	sampleK  func(k int) []sample.Outcome
	snapshot func() ([]byte, error)
}

// Claim (snapshot cut cache): a node answers GET /snapshot and its
// checkpoints from the last cut while its state epoch is unchanged,
// and that cache is invisible. Driven through ingest, /sample,
// /snapshot twice, Checkpoint and /snapshot again, every 200 body is
// byte-identical to a twin engine's fresh Snapshot, every ETag is the
// body's snap.Name, a query or an acknowledged ingest between two
// fetches moves the ETag (an old If-None-Match gets the new bytes, not
// a 304), and a node restored from checkpoints cut through the cache
// continues SampleK bit-for-bit with the live node and the twin. Both
// engine shapes are covered: a coordinator node, and a bare
// random-order sampler node whose queries consume its RNG.
func TestClaimQuerySnapshotCutCache(t *testing.T) {
	gen := stream.NewGenerator(rng.New(41))
	batches := [][]int64{gen.Zipf(256, 3000, 1.2), gen.Zipf(256, 500, 1.2), gen.Zipf(256, 200, 1.2)}
	t.Run("coordinator", func(t *testing.T) {
		mk := func() *shard.Coordinator {
			return shard.NewLp(2, 256, 1<<14, 0.2, 19, shard.Config{Shards: 2, Queries: 4})
		}
		twin := mk()
		defer twin.Close()
		checkCutCache(t, func(cfg serve.NodeConfig) *serve.Node { return serve.NewNode(mk(), cfg) },
			cutCacheTwin{
				ingest:   twin.ProcessBatch,
				sampleK:  func(k int) []sample.Outcome { outs, _ := twin.SampleK(k); return outs },
				snapshot: twin.Snapshot,
			}, 4, batches)
	})
	t.Run("random-order", func(t *testing.T) {
		mk := func() sample.Sampler { return sample.NewRandomOrderL2(1<<14, 64, 23) }
		twin := mk()
		checkCutCache(t, func(cfg serve.NodeConfig) *serve.Node { return serve.NewSamplerNode(mk(), cfg) },
			cutCacheTwin{
				ingest:   twin.ProcessBatch,
				sampleK:  func(k int) []sample.Outcome { outs, _ := twin.SampleK(k); return outs },
				snapshot: func() ([]byte, error) { return snap.Snapshot(twin) },
			}, 1, batches)
	})
}

func checkCutCache(t *testing.T, mkNode func(serve.NodeConfig) *serve.Node, twin cutCacheTwin, k int, batches [][]int64) {
	t.Helper()
	st, err := serve.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := mkNode(serve.NodeConfig{Store: st})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	cl := serve.NewClient(srv.URL)

	ingest := func(c *serve.Client, items []int64) {
		t.Helper()
		if _, err := c.Ingest(items); err != nil {
			t.Fatal(err)
		}
	}
	// draws has the node behind c draw k and checks it drew want.
	draws := func(step string, c *serve.Client, want []sample.Outcome) {
		t.Helper()
		resp, err := c.SampleK(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Outcomes) != len(want) {
			t.Fatalf("%s: node answered %d draws, twin %d", step, len(resp.Outcomes), len(want))
		}
		for i, o := range want {
			if g := resp.Outcomes[i]; g.Item != o.Item || g.Freq != o.Freq || g.Bottom != o.Bottom {
				t.Fatalf("%s: draw %d is %+v, twin drew %+v", step, i, g, o)
			}
		}
	}
	twinCut := func() []byte {
		t.Helper()
		data, err := twin.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// fetch revalidates against prev (If-None-Match; "" fetches
	// unconditionally) and checks the answer against the twin's fresh
	// cut. It returns the served state name and whether it was a 304.
	fetch := func(step, prev string) (string, bool) {
		t.Helper()
		want := twinCut()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/snapshot", nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != "" {
			req.Header.Set("If-None-Match", `"`+prev+`"`)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusNotModified:
			if prev != snap.Name(want) {
				t.Fatalf("%s: 304 for %s, but the state is now %s", step, prev, snap.Name(want))
			}
			return prev, true
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", step, resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: served %d bytes differ from the twin's fresh %d-byte Snapshot", step, len(body), len(want))
		}
		name := snap.Name(body)
		if resp.Header.Get("ETag") != `"`+name+`"` || resp.Header.Get("X-Snapshot-Name") != name {
			t.Fatalf("%s: ETag %s / X-Snapshot-Name %s, want the body's name %s",
				step, resp.Header.Get("ETag"), resp.Header.Get("X-Snapshot-Name"), name)
		}
		return name, false
	}
	// checkpoint cuts on both sides: the twin's cut keeps it in step
	// with a node cut that misses (a cut drops the coordinator's shared
	// query snapshot).
	checkpoint := func(step string) {
		t.Helper()
		if _, err := node.Checkpoint(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		twinCut()
	}

	ingest(cl, batches[0])
	twin.ingest(batches[0])
	draws("first query", cl, twin.sampleK(k))
	first, _ := fetch("first fetch", "")
	if name, notMod := fetch("repeat fetch", first); !notMod || name != first {
		t.Fatalf("repeat fetch of an untouched node: name %s (304=%v), want a 304 for %s", name, notMod, first)
	}
	checkpoint("checkpoint after fetch")
	if _, notMod := fetch("fetch after checkpoint", first); !notMod {
		t.Fatal("a checkpoint moved the state name")
	}
	draws("query between fetches", cl, twin.sampleK(k))
	afterQuery, notMod := fetch("fetch after query", first)
	if notMod || afterQuery == first {
		t.Fatalf("a /sample between fetches left the ETag at %s (304=%v)", first, notMod)
	}
	ingest(cl, batches[1])
	twin.ingest(batches[1])
	afterIngest, notMod := fetch("fetch after ingest", afterQuery)
	if notMod || afterIngest == afterQuery {
		t.Fatalf("an acknowledged ingest left the ETag at %s (304=%v)", afterQuery, notMod)
	}
	checkpoint("checkpoint after ingest")
	if _, notMod := fetch("final fetch", afterIngest); !notMod {
		t.Fatal("an untouched node did not answer 304 after its checkpoint")
	}
	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// Both checkpoints and all three 304s followed a cut of the same
	// epoch.
	if hits := parseExposition(t, text)[`tp_snapshot_cut_cache_total{result="hit"}`]; hits != 5 {
		t.Fatalf(`tp_snapshot_cut_cache_total{result="hit"} = %v, want 5`, hits)
	}

	// Restore from a copy of the store (the live node keeps writing to
	// its own) and step live, restored and twin side by side.
	copyStore, err := serve.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := st.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := copyStore.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	restored, skipped, err := serve.Restore(copyStore, serve.NodeConfig{})
	if err != nil || len(skipped) != 0 {
		t.Fatalf("restore: %v (skipped %v)", err, skipped)
	}
	defer restored.Close()
	rsrv := httptest.NewServer(restored.Handler())
	defer rsrv.Close()
	rcl := serve.NewClient(rsrv.URL)
	for round := 0; round < 3; round++ {
		want := twin.sampleK(k)
		draws(fmt.Sprintf("round %d live", round), cl, want)
		draws(fmt.Sprintf("round %d restored", round), rcl, want)
		ingest(cl, batches[2])
		ingest(rcl, batches[2])
		twin.ingest(batches[2])
		state := twinCut()
		for _, c := range []*serve.Client{cl, rcl} {
			data, _, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, state) {
				t.Fatalf("round %d: node %s diverges from the twin", round, c.Base)
			}
		}
	}
}

// Claim (answer-stream golden): the query path's coin consumption is
// pinned bit-for-bit. A fixed script — an empty-stream query, ingest
// rounds, SampleK(1..4) against both a rebuilt and a shared query
// snapshot, Snapshot cuts, a restored twin, and the cross-process
// merge (a cached MergePlan and a seeded Merged over the coordinator's
// per-shard states) — runs on L1 (round-robin routing), Lp p=2 (hash
// routing, Misra–Gries ζ) and Lp p=0.5 coordinators, and every answer,
// shared flag, stream mass and snapshot byte is hashed. The golden
// digest was recorded before the coordinator's query path moved onto
// snap.MergePlan; any change to which coins a query flips, or in which
// order, moves it. The snapshot goldens pin state bytes only — this
// pins the answers too.
func TestClaimQueryAnswerGolden(t *testing.T) {
	const golden = "db7254102a1ff388051e1df4497527b507607290e65aba14f8aeaccb2afeb8f4"
	gen := stream.NewGenerator(rng.New(97))
	rounds := [][]int64{gen.Zipf(64, 900, 1.2), gen.Zipf(64, 300, 1.2), gen.Zipf(64, 40, 1.2)}
	cfg := shard.Config{Shards: 3, BatchSize: 64, Queries: 4}
	rr := cfg
	rr.Route = shard.RouteRoundRobin
	ctors := []struct {
		name string
		mk   func() *shard.Coordinator
	}{
		{"l1-roundrobin", func() *shard.Coordinator { return shard.NewL1(0.2, 11, rr) }},
		{"lp2-hash", func() *shard.Coordinator { return shard.NewLp(2, 64, 2000, 0.2, 12, cfg) }},
		{"lp0.5-hash", func() *shard.Coordinator { return shard.NewLp(0.5, 64, 2000, 0.2, 13, cfg) }},
	}
	h := sha256.New()
	for _, ct := range ctors {
		fmt.Fprintf(h, "== %s\n", ct.name)
		c := ct.mk()
		query := func(c *shard.Coordinator, k int) {
			outs, n, total, shared := c.SampleKLenShared(k)
			fmt.Fprintf(h, "k=%d n=%d total=%d shared=%v %+v\n", k, n, total, shared, outs)
		}
		cut := func(c *shard.Coordinator) []byte {
			data, err := c.Snapshot()
			if err != nil {
				t.Fatalf("%s: %v", ct.name, err)
			}
			fmt.Fprintf(h, "snapshot %x\n", sha256.Sum256(data))
			return data
		}
		// An empty stream answers ⊥ without splitting the mixture RNG.
		query(c, 2)
		query(c, 2)
		for r, items := range rounds {
			if r == 1 {
				for _, it := range items[:5] {
					c.Process(it)
				}
				items = items[5:]
			}
			c.ProcessBatch(items)
			// Rebuilt, then shared with extension; the cut drops the
			// shared query snapshot, so k=4 rebuilds at full width and
			// the narrower queries share its prefixes.
			for k := 1; k <= 4; k++ {
				query(c, k)
			}
			cut(c)
			for k := 4; k >= 1; k-- {
				query(c, k)
			}
		}
		data := cut(c)
		twin, err := shard.RestoreCoordinator(data)
		if err != nil {
			t.Fatalf("%s: restore: %v", ct.name, err)
		}
		for _, k := range []int{3, 1, 4} {
			query(twin, k)
			query(c, k)
		}
		twin.Close()
		c.Close()

		states, err := shard.SamplerStates(data)
		if err != nil {
			t.Fatalf("%s: %v", ct.name, err)
		}
		plan, err := snap.BuildMergePlan(states...)
		if err != nil {
			t.Fatalf("%s: %v", ct.name, err)
		}
		for _, qs := range []struct {
			seed uint64
			k    int
		}{{1, 1}, {2, 4}, {1, 2}, {99, 3}} {
			outs, n := plan.SampleK(qs.seed, qs.k)
			fmt.Fprintf(h, "plan qseed=%d k=%d n=%d %+v\n", qs.seed, qs.k, n, outs)
		}
		merged, err := snap.MergeStates(7, states...)
		if err != nil {
			t.Fatalf("%s: %v", ct.name, err)
		}
		for _, k := range []int{2, 4, 1} {
			outs, n := merged.SampleK(k)
			fmt.Fprintf(h, "merged k=%d n=%d %+v\n", k, n, outs)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != golden {
		t.Fatalf("answer-stream digest %s, want %s", got, golden)
	}
}
