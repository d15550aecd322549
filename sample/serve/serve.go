// Package serve is the network serving layer of the truly perfect
// sampling library: a zero-dependency net/http node/aggregator pair
// that turns the in-process exactness story — sharded ingestion
// (sample/shard) and cross-process snapshot merging (sample/snap) —
// into a cluster that ingests over HTTP, checkpoints itself, survives
// crashes, and answers *global* sampling queries whose law is exactly
// the law one sampler would have had on the union of every node's
// stream.
//
// # Topology
//
// A Node wraps one shard.Coordinator: POST /ingest feeds it (JSON or
// binary-frame batches), GET /sample answers node-local merged
// queries, GET /snapshot cuts a fleet checkpoint (Coordinator.Snapshot,
// reused while the coordinator's state epoch is unchanged, DESIGN.md §5) —
// served conditionally: the content-addressed state name is the ETag,
// a matching If-None-Match or ?since= answers 304, and a ?since= naming
// a recent state the node still holds gets a wire-v2 delta instead of
// the full bytes. A ticker checkpoints into a pluggable SnapshotStore
// on the same economy (full snapshots on the FullEvery cadence, deltas
// between; Restore folds the chain back). GET /summary serves what a
// global query needs from the node: the acceptance summary of the
// query plan its local queries share (snap.Summary: ζ_j, the per-pool
// masses and every accepted trial per query group), with an ETag that
// names the plan instance. An Aggregator holds no sampler state — only
// a per-node cache of those summaries: per query it revalidates every
// node (a 304 for a node whose plan has not moved; counted by the
// tp_agg_* series on GET /metrics) and draws from a merge plan that
// mixes the summaries under one ζ = max_j ζ_j, thinning each node's
// acceptances to it (snap.PlanSummaries) — the m_j/m mixture of
// Theorem 3.1's composition argument, now spanning machines. Nodes that
// do not summarize (sampler nodes) are fetched through GET /snapshot
// instead (304s, folded deltas, or full refetches) and summarized on
// the aggregator. See DESIGN.md §5 and §9 for the full architecture,
// the cache contracts, and the staleness contract.
//
// # Why the aggregator's answer is exact
//
// Because every per-shard pool is truly perfect (ε = γ = 0, §1 of
// arXiv:2108.12017), the mixture that draws a pool with probability
// m_j/m and consumes one of its instances has exactly the
// single-machine per-trial law G(f_i)/(ζm) — the same telescoping
// argument sample/shard makes for goroutines and sample/snap makes for
// processes, applied here to every (node, shard) pool in the fleet at
// once. Thinning a node's acceptances from its own bound ζ_j to the
// fleet's ζ with Bernoulli(ζ_j/ζ) coins multiplies the per-trial
// acceptance to Inc(c)/ζ, the law every trial needs. The aggregator
// pays zero distributional cost for distribution; its only
// approximation is temporal: an answer reflects each node's state at
// fetch time, not at response-write time.
//
// The usual caveats ride along unchanged from snap.Merge: nodes must
// use distinct coordinator seeds (pool independence is part of the
// mixture argument), and for nonlinear measures the fleet must
// partition items across nodes — hash-route at the front door exactly
// as the coordinator hash-routes across shards. L1 is exact under any
// split. Sliding-window samplers refuse to merge
// (snap.ErrWindowMergeUnsupported): window state is indexed by each
// node's local clock, and no cross-machine mixture is exact without a
// shared clock contract.
//
// # Checkpoints and crash recovery
//
// A node with a SnapshotStore checkpoints on a fixed interval and —
// because Coordinator.Snapshot drains the workers first — every
// checkpoint reflects every update acknowledged before it was cut.
// Close drains and writes one final checkpoint, so a graceful
// shutdown loses nothing: an update the node accepted (200 on
// /ingest) is either in the final checkpoint or was ingested after
// restore. After a crash, Restore rebuilds the node from the latest
// stored checkpoint and continues bit-for-bit (the snapshot carries
// the raw RNG states); at most the updates accepted after the last
// checkpoint are lost — the interval is the durability knob.
//
// Handlers are safe for concurrent use: ingestion is serialized
// node-side (the coordinator's single-producer contract), queries run
// on the coordinator's any-goroutine read path, and a closed node
// answers 503 rather than touching a closed coordinator.
package serve

import (
	"encoding/json"
	"net/http"

	"repro/internal/obs"
)

// Wire DTOs shared by the node handlers, the aggregator handlers and
// the Client. All responses are JSON except GET /snapshot, which
// returns the raw snapshot bytes (application/octet-stream) with the
// content-addressed snap.Name in the X-Snapshot-Name header, and
// GET /summary, which returns an encoded snap.Summary.

// The ingest content-types POST /ingest negotiates by the request's
// Content-Type header. JSON is the default for any unrecognized value
// — the forgiving path; the binary frame is the fast path
// (wire.EncodeItems / Client.IngestBinary), decoded with zero
// intermediate allocations straight into the engine's batch.
const (
	// ContentTypeJSON is a single {"items":[…]} object (IngestRequest).
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the length-prefixed binary item frame
	// (internal/wire: "TPIB" magic, version, count, zig-zag varints).
	// Bodies that fail to parse as exactly one frame answer 400.
	ContentTypeBinary = "application/x-tp-items"
)

// IngestRequest is the body of POST /ingest with
// Content-Type application/json.
type IngestRequest struct {
	Items []int64 `json:"items"`
}

// IngestResponse acknowledges an ingest batch. An acknowledged update
// is durable to the next checkpoint (see the package comment's
// staleness contract), and StreamLen is the node's routed total after
// the batch — the m_j the merge will weight this node by.
type IngestResponse struct {
	Accepted  int   `json:"accepted"`
	StreamLen int64 `json:"streamLen"`
}

// OutcomeJSON is one sampler answer on the wire (sample.Outcome).
type OutcomeJSON struct {
	Item   int64 `json:"item"`
	Freq   int64 `json:"freq"`
	Bottom bool  `json:"bottom,omitempty"`
}

// SampleResponse answers GET /sample and /samplek on both node and
// aggregator. Count is the number of draws that succeeded (a FAIL is a
// legal sampler answer, probability ≤ δ per provisioned group);
// StreamLen is the stream mass the answer is exact with respect to.
// Nodes and Pools are set by the aggregator: how many nodes
// contributed snapshots and how many per-shard pools the mixture ran
// over.
type SampleResponse struct {
	Outcomes  []OutcomeJSON `json:"outcomes"`
	Count     int           `json:"count"`
	StreamLen int64         `json:"streamLen"`
	Nodes     int           `json:"nodes,omitempty"`
	Pools     int           `json:"pools,omitempty"`
}

// NodeStats answers GET /stats on a node.
type NodeStats struct {
	// Sampler is the coordinator's constructor in human-readable form
	// (shard.Coordinator.Describe).
	Sampler   string `json:"sampler"`
	Shards    int    `json:"shards"`
	Trials    int    `json:"trials"`
	Queries   int    `json:"queries"`
	StreamLen int64  `json:"streamLen"`
	// Bits is the live memory footprint. Measuring it requires draining
	// the workers — it touches the ingest hot path — so it is reported
	// only when the stats request asks with ?drain=1 and omitted
	// otherwise; monitoring pollers get lock-cheap counters by default.
	Bits int64 `json:"bits,omitempty"`
	// Checkpoints counts successful checkpoint writes (ticker, explicit
	// and final); DeltaCheckpoints counts how many of them were v2
	// deltas (NodeConfig.FullEvery); LastCheckpoint is the stored name
	// of the newest one.
	Checkpoints      int64  `json:"checkpoints"`
	DeltaCheckpoints int64  `json:"deltaCheckpoints,omitempty"`
	LastCheckpoint   string `json:"lastCheckpoint,omitempty"`
	// LastCheckpointError reports the most recent checkpoint failure;
	// empty once a later checkpoint succeeds.
	LastCheckpointError string `json:"lastCheckpointError,omitempty"`
}

// NodeStatus is one node's row in an aggregator's stats: its URL and
// either its stats or the error that made it unreachable.
type NodeStatus struct {
	URL   string     `json:"url"`
	Stats *NodeStats `json:"stats,omitempty"`
	Error string     `json:"error,omitempty"`
}

// AggregatorStats answers GET /stats on an aggregator. StreamLen sums
// the reachable nodes' masses — the m the next merged query will
// normalize by (up to staleness).
type AggregatorStats struct {
	Nodes     []NodeStatus `json:"nodes"`
	StreamLen int64        `json:"streamLen"`
}

// AggregatorCounters is a point-in-time copy of an aggregator's
// node-cache and transfer counters (Aggregator.Counters), read from the
// same counters GET /metrics serves as
// tp_agg_{cache_hits,summary_fetches,delta_fetches,full_fetches,
// bytes_fetched,plan_hits,plan_rebuilds}_total. Per queried node and
// query, exactly one of CacheHits / SummaryFetches / DeltaFetches /
// FullFetches advances: a 304 revalidation, a fetched acceptance
// summary, a v2 delta folded onto the cached snapshot of a node that
// does not summarize, or a full v1 snapshot fetch. BytesFetched counts
// response-body bytes — the cluster bandwidth the cache exists to
// save. Per successful query, exactly one of PlanHits / PlanRebuilds
// advances: the merge plan was reused (no node's cache entry moved) or
// rebuilt (DESIGN.md §9).
type AggregatorCounters struct {
	CacheHits      int64 `json:"cacheHits"`
	SummaryFetches int64 `json:"summaryFetches"`
	DeltaFetches   int64 `json:"deltaFetches"`
	FullFetches    int64 `json:"fullFetches"`
	BytesFetched   int64 `json:"bytesFetched"`
	PlanHits       int64 `json:"planHits"`
	PlanRebuilds   int64 `json:"planRebuilds"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
// RequestID is the tracing ID the failing request rode in on (also on
// the X-Request-ID response header), so a client error is greppable in
// the server's structured logs; Node, set by the aggregator, is the
// base URL of the node whose fetch failed — without it a multi-node
// 502 is unattributable from the caller's side.
type errorBody struct {
	Error     string `json:"error"`
	Node      string `json:"node,omitempty"`
	RequestID string `json:"requestId,omitempty"`
}

// writeJSON writes v with the given status. Encoding errors at this
// point can only be connection failures; they are ignored because the
// response line has already been committed.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the JSON error envelope, stamped with the
// request's tracing ID (r may be nil for contexts with no request).
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	writeErrorNode(w, r, status, msg, "")
}

// writeErrorNode is writeError plus node attribution (the aggregator's
// fan-out failures).
func writeErrorNode(w http.ResponseWriter, r *http.Request, status int, msg, node string) {
	body := errorBody{Error: msg, Node: node}
	if r != nil {
		body.RequestID = obs.RequestIDFromContext(r.Context())
	}
	writeJSON(w, status, body)
}
