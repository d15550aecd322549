package repro

// Headline claims for the observability layer (internal/obs + its
// serve-layer instrumentation, DESIGN.md §7): both tiers serve a
// parseable Prometheus text exposition covering the §7 inventory, and
// instrumenting the ingest hot path costs under 10% (BENCH_E25.json
// records ~1.6%; the live bar is looser because a CI runner's HTTP
// round-trip noise dwarfs the tens of nanoseconds the counters cost).

import (
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/sample/serve"
	"repro/sample/shard"
)

// parseExposition validates the Prometheus text format line by line
// (comments, `name[{labels}] value`) and returns the set of series
// names (with labels) it carries.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for lineNo, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("exposition line %d has no value: %q", lineNo+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("exposition line %d value %q: %v", lineNo+1, val, err)
		}
		if strings.ContainsAny(name, " \t") {
			t.Fatalf("exposition line %d name %q has spaces", lineNo+1, name)
		}
		series[name] = v
	}
	return series
}

// Claim (observability surfaces): a working node and aggregator both
// answer GET /metrics with parseable Prometheus text, and the
// exposition covers the §7 inventory — ingest-stage histograms and
// checkpoint full/delta counters on the node, merge and per-node
// fetch latencies on the aggregator.
func TestClaimObsExposition(t *testing.T) {
	dir := t.TempDir()
	st, err := serve.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	node := serve.NewNode(shard.NewL1(0.1, 3, shard.Config{Shards: 2}),
		serve.NodeConfig{Store: st})
	defer node.Close()
	nodeSrv := httptest.NewServer(node.Handler())
	defer nodeSrv.Close()
	if _, err := serve.NewClient(nodeSrv.URL).Ingest([]int64{7, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	agg := serve.NewAggregator(9, nodeSrv.URL)
	aggSrv := httptest.NewServer(agg.Handler())
	defer aggSrv.Close()
	if _, err := serve.NewClient(aggSrv.URL).SampleK(1); err != nil {
		t.Fatal(err)
	}

	nodeText, err := serve.NewClient(nodeSrv.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	nodeSeries := parseExposition(t, nodeText)
	for _, want := range []string{
		`tp_ingest_read_seconds_bucket{le="+Inf"}`,
		`tp_ingest_decode_seconds_bucket{le="+Inf"}`,
		`tp_ingest_process_seconds_bucket{le="+Inf"}`,
		"tp_ingest_requests_total",
		`tp_checkpoints_total{kind="full"}`,
		`tp_checkpoints_total{kind="delta"}`,
		`tp_store_op_seconds_count{op="put"}`,
		"tp_node_query_snapshot_shared_total",
		`tp_snapshot_cut_cache_total{result="hit"}`,
		`tp_snapshot_cut_cache_total{result="miss"}`,
	} {
		if _, ok := nodeSeries[want]; !ok {
			t.Errorf("node exposition is missing %s", want)
		}
	}
	// The aggregator's fetch came after the checkpoint's cut with no
	// mutation between: it must have been answered from the cut cache.
	if hit, miss := nodeSeries[`tp_snapshot_cut_cache_total{result="hit"}`],
		nodeSeries[`tp_snapshot_cut_cache_total{result="miss"}`]; hit != 1 || miss != 1 {
		t.Errorf("cut cache after checkpoint + fetch: %v hits / %v misses, want 1/1", hit, miss)
	}

	aggText, err := serve.NewClient(aggSrv.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	aggSeries := parseExposition(t, aggText)
	for _, want := range []string{
		`tp_agg_merge_seconds_bucket{le="+Inf"}`,
		"tp_agg_queries_total",
		"tp_agg_full_fetches_total",
		"tp_agg_plan_hits_total",
		"tp_agg_plan_rebuilds_total",
		`tp_agg_fetch_seconds_count{node="` + nodeSrv.URL + `"}`,
	} {
		if _, ok := aggSeries[want]; !ok {
			t.Errorf("aggregator exposition is missing %s", want)
		}
	}
}

// Claim (observability overhead): the instrumented ingest path is
// within 10% of the uninstrumented one. Each trial serves both arms at
// once and alternates them request by request (which arm goes first
// alternates too), so a stretch of host load lands on both arms rather
// than on one. A trial's figure for an arm is its median request time:
// a request the host preempts for milliseconds is an outlier on one
// arm only, and a few of them swing a sum by ±20% on a loaded 2-vCPU
// host, while the cost of instrumentation is paid by every request and
// moves the median. Min-of-trials on both arms then suppresses the
// trials a longer stretch of load hit. Still a wall-clock claim, so
// -short skips it (CI's race job) and the serve job runs it headlong.
func TestClaimObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock claim; skipped with -short")
	}
	const (
		trials  = 5
		batches = 200
	)
	items := make([]int64, 2048)
	for i := range items {
		items[i] = int64(i % 97)
	}
	serveArm := func(disable bool) (*serve.Client, func()) {
		node := serve.NewNode(shard.NewLp(2, 1<<14, int64(len(items)*batches)+1, 0.2, 1,
			shard.Config{Shards: 2}),
			serve.NodeConfig{DisableObservability: disable})
		srv := httptest.NewServer(node.Handler())
		return serve.NewClient(srv.URL), func() {
			srv.Close()
			node.Close()
		}
	}
	on, off := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for trial := 0; trial < trials; trial++ {
		// arms[0] is instrumented, arms[1] is not.
		var arms [2]*serve.Client
		var stops [2]func()
		arms[0], stops[0] = serveArm(false)
		arms[1], stops[1] = serveArm(true)
		var spent [2][]time.Duration
		for i := 0; i < batches; i++ {
			for _, a := range [2]int{i % 2, 1 - i%2} {
				t0 := time.Now()
				if _, err := arms[a].Ingest(items); err != nil {
					t.Fatal(err)
				}
				spent[a] = append(spent[a], time.Since(t0))
			}
		}
		stops[0]()
		stops[1]()
		on, off = min(on, median(spent[0])), min(off, median(spent[1]))
	}
	overhead := float64(on)/float64(off) - 1
	t.Logf("instrumented %v vs uninstrumented %v per request: %+.2f%% (BENCH_E25.json recorded +1.63%%)",
		on, off, overhead*100)
	if overhead > 0.10 {
		t.Fatalf("instrumented ingest is %.1f%% slower than uninstrumented, claim bar is 10%%", overhead*100)
	}
}

// median returns the middle of ds (the upper middle for an even
// count); it sorts ds in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}
