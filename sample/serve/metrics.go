package serve

// The serving layer's metric inventory (DESIGN.md §7). Every node and
// aggregator owns one obs.Registry, served on GET /metrics in the
// Prometheus text format; the bundles below are the typed handles the
// hot paths observe into. All observe methods tolerate a nil receiver
// — NodeConfig.DisableObservability leaves the bundle nil and the hot
// paths pay nothing but the branch (BenchmarkE25Ingest* quantifies
// the instrumented-vs-not difference; BENCH_E25.json records it).

import (
	"time"

	"repro/internal/obs"
)

// nodeMetrics is the per-node bundle.
type nodeMetrics struct {
	// Ingest stages: body read, JSON or binary-frame decode, hand-off
	// into the engine.
	ingestRead    *obs.Histogram
	ingestDecode  *obs.Histogram
	ingestProcess *obs.Histogram
	ingestReqs    *obs.Counter
	ingestRejects *obs.Counter
	ingestItems   *obs.Counter
	ingestBytes   *obs.Counter
	streamLen     *obs.Gauge

	// Ingest batcher: how large each flush group ran, and how long its
	// opening writer queued before the flush.
	coalesceItems *obs.Histogram
	coalesceWait  *obs.Histogram

	// Checkpoint path: snapshot encode (the cut), delta diff, and the
	// full-vs-delta split; write duration is the store bundle's
	// tp_store_op_seconds{op="put"}.
	ckptEncode *obs.Histogram
	ckptDiff   *obs.Histogram
	ckptFull   *obs.Counter
	ckptDelta  *obs.Counter
	ckptErrors *obs.Counter
	pruneTime  *obs.Histogram

	// Snapshot serving: how GET /snapshot answered.
	snapFull   *obs.Counter
	snapDelta  *obs.Counter
	snapNotMod *obs.Counter
	snapBytes  *obs.Counter

	// Cut cache: snapshot cuts (GET /snapshot, checkpoints) answered
	// from the epoch-keyed last cut versus re-encoded.
	cutHits   *obs.Counter
	cutMisses *obs.Counter

	// Restore: one-shot facts about how this incarnation booted.
	restoreSeconds *obs.Gauge
	restoreSkipped *obs.Counter

	// Query fast path: /sample answers that reused the coordinator's
	// shared query snapshot instead of paying their own
	// drain-and-materialize (DESIGN.md §9).
	querySnapShared *obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		ingestRead:    reg.Histogram("tp_ingest_read_seconds", "Ingest stage: request body read.", nil),
		ingestDecode:  reg.Histogram("tp_ingest_decode_seconds", "Ingest stage: JSON or binary-frame batch decode.", nil),
		ingestProcess: reg.Histogram("tp_ingest_process_seconds", "Ingest stage: ProcessBatch hand-off into the engine.", nil),
		ingestReqs:    reg.Counter("tp_ingest_requests_total", "POST /ingest requests handled."),
		ingestRejects: reg.Counter("tp_ingest_rejected_total", "POST /ingest requests refused (4xx/5xx)."),
		ingestItems:   reg.Counter("tp_ingest_items_total", "Items accepted into the engine."),
		ingestBytes:   reg.Counter("tp_ingest_bytes_total", "Request body bytes read on /ingest."),
		streamLen:     reg.Gauge("tp_stream_len", "Engine stream mass after the last acknowledged batch."),
		coalesceItems: reg.Histogram("tp_coalesce_batch_items", "Items per batcher flush into the engine.",
			[]float64{16, 64, 256, 1024, 4096, 16384, 65536}),
		coalesceWait: reg.Histogram("tp_coalesce_queue_wait_seconds",
			"Queue wait of each flush group's opening writer (join to flush start).", nil),
		ckptEncode: reg.Histogram("tp_checkpoint_encode_seconds", "Checkpoint stage: snapshot cut (engine encode).", nil),
		ckptDiff:   reg.Histogram("tp_checkpoint_diff_seconds", "Checkpoint stage: wire-v2 delta diff against the previous state.", nil),
		ckptFull:   reg.Counter("tp_checkpoints_total", "Checkpoints written, by kind.", obs.Label{Key: "kind", Value: "full"}),
		ckptDelta:  reg.Counter("tp_checkpoints_total", "Checkpoints written, by kind.", obs.Label{Key: "kind", Value: "delta"}),
		ckptErrors: reg.Counter("tp_checkpoint_errors_total", "Checkpoint attempts that failed (cut or store write)."),
		pruneTime:  reg.Histogram("tp_checkpoint_prune_seconds", "Retention pruning pass after a successful checkpoint.", nil),
		snapFull:   reg.Counter("tp_snapshot_serves_total", "GET /snapshot responses, by result.", obs.Label{Key: "result", Value: "full"}),
		snapDelta:  reg.Counter("tp_snapshot_serves_total", "GET /snapshot responses, by result.", obs.Label{Key: "result", Value: "delta"}),
		snapNotMod: reg.Counter("tp_snapshot_serves_total", "GET /snapshot responses, by result.", obs.Label{Key: "result", Value: "not_modified"}),
		snapBytes:  reg.Counter("tp_snapshot_bytes_total", "Body bytes served on GET /snapshot."),
		cutHits: reg.Counter("tp_snapshot_cut_cache_total", "Snapshot cuts, by whether the epoch-keyed last cut answered.",
			obs.Label{Key: "result", Value: "hit"}),
		cutMisses: reg.Counter("tp_snapshot_cut_cache_total", "Snapshot cuts, by whether the epoch-keyed last cut answered.",
			obs.Label{Key: "result", Value: "miss"}),
		restoreSeconds: reg.Gauge("tp_restore_seconds",
			"Wall-clock duration of the boot-time Restore that built this node (0 for a fresh start)."),
		restoreSkipped: reg.Counter("tp_restore_skipped_checkpoints_total",
			"Stored checkpoint files Restore could not fold and skipped."),
		querySnapShared: reg.Counter("tp_node_query_snapshot_shared_total",
			"Sample queries answered from the shared drained query snapshot."),
	}
}

// sharedQuerySnapshot records one /sample answer served from the
// coordinator's shared query snapshot.
func (m *nodeMetrics) sharedQuerySnapshot() {
	if m != nil {
		m.querySnapShared.Inc()
	}
}

// ingest records one /ingest request's stage timings and sizes.
// status is the HTTP answer; items/stream count only what the engine
// acknowledged.
func (m *nodeMetrics) ingest(read, decode, process time.Duration, bodyBytes, items int, stream int64, status int) {
	if m == nil {
		return
	}
	m.ingestReqs.Inc()
	m.ingestBytes.Add(int64(bodyBytes))
	m.ingestRead.Observe(read.Seconds())
	if decode > 0 {
		m.ingestDecode.Observe(decode.Seconds())
	}
	if status != 200 {
		m.ingestRejects.Inc()
		return
	}
	m.ingestProcess.Observe(process.Seconds())
	m.ingestItems.Add(int64(items))
	m.streamLen.Set(float64(stream))
}

// coalesceFlush records one batcher flush: the group's size and how
// long its opening writer queued.
func (m *nodeMetrics) coalesceFlush(items int, wait time.Duration) {
	if m == nil {
		return
	}
	m.coalesceItems.Observe(float64(items))
	m.coalesceWait.Observe(wait.Seconds())
}

// checkpointCut records the snapshot-encode stage.
func (m *nodeMetrics) checkpointCut(d time.Duration) {
	if m != nil {
		m.ckptEncode.Observe(d.Seconds())
	}
}

// checkpointDiff records the delta-diff stage.
func (m *nodeMetrics) checkpointDiff(d time.Duration) {
	if m != nil {
		m.ckptDiff.Observe(d.Seconds())
	}
}

// checkpointDone records one finished checkpoint attempt.
func (m *nodeMetrics) checkpointDone(isDelta bool, err error) {
	if m == nil {
		return
	}
	switch {
	case err != nil:
		m.ckptErrors.Inc()
	case isDelta:
		m.ckptDelta.Inc()
	default:
		m.ckptFull.Inc()
	}
}

// pruned records one retention-pruning pass.
func (m *nodeMetrics) pruned(d time.Duration) {
	if m != nil {
		m.pruneTime.Observe(d.Seconds())
	}
}

// snapshotServed records how one GET /snapshot answered: "full",
// "delta", or "not_modified" (result), plus body bytes.
func (m *nodeMetrics) snapshotServed(result string, bytes int) {
	if m == nil {
		return
	}
	switch result {
	case "delta":
		m.snapDelta.Inc()
	case "not_modified":
		m.snapNotMod.Inc()
	default:
		m.snapFull.Inc()
	}
	m.snapBytes.Add(int64(bytes))
}

// snapshotCut records one snapshot cut: answered from the cut cache
// (hit) or drained, encoded and named afresh (miss).
func (m *nodeMetrics) snapshotCut(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cutHits.Inc()
	} else {
		m.cutMisses.Inc()
	}
}

// restored records the boot-time restore facts.
func (m *nodeMetrics) restored(d time.Duration, skipped int) {
	if m == nil {
		return
	}
	m.restoreSeconds.Set(d.Seconds())
	m.restoreSkipped.Add(int64(skipped))
}

// aggMetrics is the per-aggregator bundle. The cache/transfer counters
// (hits, deltas, fulls, bytesFetched) migrated here from bare expvar
// vars; GET /debug/vars keeps rendering the same JSON shape from them
// (see Aggregator.handleVars).
type aggMetrics struct {
	reg          *obs.Registry
	queries      *obs.Counter
	queryErrs    *obs.Counter
	mergeTime    *obs.Histogram
	hits         *obs.Counter
	deltas       *obs.Counter
	fulls        *obs.Counter
	bytesFetch   *obs.Counter
	planHits     *obs.Counter
	planRebuilds *obs.Counter
}

func newAggMetrics(reg *obs.Registry) *aggMetrics {
	return &aggMetrics{
		reg:        reg,
		queries:    reg.Counter("tp_agg_queries_total", "Global sample queries answered."),
		queryErrs:  reg.Counter("tp_agg_query_errors_total", "Global sample queries that failed (fetch or merge)."),
		mergeTime:  reg.Histogram("tp_agg_merge_seconds", "snap.BuildMergePlan over the fleet's exploded states (plan rebuilds only).", nil),
		hits:       reg.Counter("tp_agg_cache_hits_total", "Node revalidations answered 304 from the snapshot cache."),
		deltas:     reg.Counter("tp_agg_delta_fetches_total", "Node fetches served as a v2 delta folded onto the cache."),
		fulls:      reg.Counter("tp_agg_full_fetches_total", "Node fetches that transferred a full snapshot."),
		bytesFetch: reg.Counter("tp_agg_bytes_fetched_total", "Snapshot response-body bytes fetched from nodes."),
		planHits: reg.Counter("tp_agg_plan_hits_total",
			"Queries answered from the cached merge plan (every node's state name unchanged)."),
		planRebuilds: reg.Counter("tp_agg_plan_rebuilds_total",
			"Merge-plan rebuilds (first query, or some node's state name moved)."),
	}
}

// fetchLatency returns the per-node fetch-latency histogram — one
// series per node URL under a single family, so a dashboard can
// attribute fan-out latency to the node that caused it.
func (m *aggMetrics) fetchLatency(url string) *obs.Histogram {
	return m.reg.Histogram("tp_agg_fetch_seconds", "Per-node snapshot fetch (revalidate, delta, or full).", nil,
		obs.Label{Key: "node", Value: url})
}

// fetchErrors returns the per-node fetch-error counter.
func (m *aggMetrics) fetchErrors(url string) *obs.Counter {
	return m.reg.Counter("tp_agg_fetch_errors_total", "Per-node snapshot fetch failures.",
		obs.Label{Key: "node", Value: url})
}
