package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// Aggregator answers global sampling queries over a fleet of nodes
// without holding any *sampler* state of its own. Per query it brings
// every node's snapshot up to date (a changed node's checkpoint is
// split into per-shard sampler states and their pools restored, once
// per state name) and answers from a snap.MergePlan over the union of
// those pools — so the answer's law is exactly the
// law of one truly perfect sampler on the concatenation of every
// node's stream, as of each node's snapshot instant.
//
// What the aggregator does hold is caching at two levels:
//
//   - A per-node *snapshot cache*, keyed by the content-addressed
//     snap.Name each node advertises: a query revalidates with
//     ?since=/If-None-Match instead of refetching, so an unchanged node
//     costs one header round-trip (304, a cache hit), a changed
//     delta-capable node costs only its v2 delta, and only a node the
//     cache cannot cover costs a full fetch. A coordinator node's
//     entry is its decoded cut: a delta folds onto a copy of it,
//     passes the decoder's structural checks and is verified against
//     the advertised name. Each entry also holds the node's pools,
//     restored once per state name (snap.RestorePools) when the fetch
//     installs it.
//   - A *merge-plan cache* (DESIGN.md §9), keyed by the fingerprint of
//     every node's advertised state name: while no node's state moves,
//     queries reuse the prepared snap.MergePlan — pools, mixture
//     masses, the global ζ — and pay only their own mixture draws
//     instead of re-running the full merge. The plan cache is exactly
//     lawful because the trial coins are frozen in the snapshot bytes
//     the fingerprint covers: a rebuilt plan from the same names
//     replays the same trials, so reuse changes nothing but CPU time
//     (see snap.MergePlan). Any node whose state name moves
//     invalidates the plan on the next query, and the rebuild wires
//     the mixture over every node's cached pools (snap.PlanPools),
//     each plan flipping coins from its own copies of the pools' PCG
//     states, so the unchanged nodes' pools are shared, not restored
//     again.
//
// GET /metrics serves the hit and transfer counters that quantify both
// trades (the tp_agg_* series, also read in-process through Counters)
// beside the rest of the registry — per-node fetch latency, plan
// rebuild duration — in the Prometheus text format.
//
// Freshness: every query still revalidates every node. Concurrent
// queries needing the same node share one in-flight fetch
// (singleflight), so a query may answer from state fetched
// microseconds before its own arrival — bounded by one fetch
// round-trip, never by a cache TTL. Sequential queries always
// revalidate fresh, and the plan cache can serve a reused plan only
// when every node's advertised state is unchanged, where stale and
// fresh coincide.
//
// The fetch is all-or-nothing: a node that fails to answer fails the
// query (HTTP 502) rather than being silently dropped, because a
// merge over a subset is an exact answer to a different question —
// the subset's union — and quietly substituting it would bias what
// the caller believes is the global law. The 502/422 error body names
// the node whose fetch failed and echoes the request's tracing ID, so
// one fleet-wide failure is attributable from the caller's side alone.
// Merge refusals (window kinds, parameter mismatches across nodes)
// answer 422 with snap's error text, window refusals via
// ErrWindowMergeUnsupported.
type Aggregator struct {
	urls    []string
	clients []*Client
	caches  []*nodeCache
	seed    uint64
	ctr     atomic.Uint64
	cfg     AggregatorConfig

	// The merge-plan cache: plan answers queries while planKey (the
	// \x00-joined node state names) matches the current fan-out's
	// fingerprint. planMu serializes rebuild-vs-reuse decisions;
	// MergePlan itself is safe for concurrent draws.
	planMu    sync.Mutex
	planKey   string
	plan      *snap.MergePlan
	planPools int

	reg    *obs.Registry
	met    *aggMetrics
	health *obs.Health
	logger *slog.Logger
}

// AggregatorConfig tunes an aggregator beyond its node list. The zero
// value reproduces NewAggregator's behavior.
type AggregatorConfig struct {
	// QueryTimeout bounds each query's whole node fan-out — every
	// snapshot revalidation, delta fold, or full fetch, including time
	// spent waiting on another query's shared in-flight fetch — so one
	// hung node fails queries with 502 after the deadline instead of
	// stalling them forever. 0 (the default) imposes no deadline beyond
	// the HTTP client's own.
	QueryTimeout time.Duration
}

// nodeCache is one node's cached snapshot: the advertised state name
// and the nodeCut installed under it. mu guards the fields and the
// singleflight slot only — never a network round-trip; the fetch
// itself runs in refreshNode with the lock released, so a slow node
// serializes nothing but its own refresh.
type nodeCache struct {
	mu       sync.Mutex
	name     string
	cut      *nodeCut
	inflight *refreshCall
}

// nodeCut is one node state as the aggregator keeps it, immutable once
// installed. The base the next delta folds onto is the decoded cut for
// a coordinator node (coord) and the full v1 bytes for a bare-sampler
// node (raw). states are the per-shard sampler states the merge reads,
// sharing coord's memory; pools are those states restored once, with
// sample.FromState's validation, and shared by every plan built while
// the node's state name holds (nil for kinds that merge only through
// snap.BuildMergePlan).
type nodeCut struct {
	coord  *shard.CoordinatorState
	raw    []byte
	states []sample.State
	pools  []*snap.Pool
}

// refreshCall is one in-flight node refresh, shared by every query
// that needs the node while it runs (singleflight). The fields are
// written once, before done is closed; waiters read them only after
// <-done, which is the happens-before edge.
type refreshCall struct {
	done chan struct{}
	cut  *nodeCut
	name string
	err  error
}

// NewAggregator builds an aggregator over the given node base URLs.
// seed feeds the mixture randomness; each query derives a fresh merge
// seed from it. Note the library-wide query contract still applies
// across the network: the per-pool acceptance coins are frozen in the
// fetched snapshot bytes, so repeated queries against *unchanged*
// nodes replay correlated trials rather than being independent draws
// (the cached merge plan makes that reuse explicit and cheap). For k
// mutually independent samples, ask for them in one query (?k=,
// served by disjoint query groups); across queries, independence
// returns as nodes ingest and their snapshots move.
func NewAggregator(seed uint64, nodeURLs ...string) *Aggregator {
	return NewAggregatorConfig(seed, AggregatorConfig{}, nodeURLs...)
}

// NewAggregatorConfig is NewAggregator with explicit tuning.
func NewAggregatorConfig(seed uint64, cfg AggregatorConfig, nodeURLs ...string) *Aggregator {
	a := &Aggregator{urls: nodeURLs, seed: seed, cfg: cfg}
	for _, u := range nodeURLs {
		a.clients = append(a.clients, NewClient(u))
		a.caches = append(a.caches, &nodeCache{})
	}
	a.reg = obs.NewRegistry()
	a.met = newAggMetrics(a.reg)
	a.health = obs.NewHealth()
	a.health.SetReady()
	return a
}

// SetHTTPClient points every per-node client at hc (timeouts,
// transport reuse). Call before serving.
func (a *Aggregator) SetHTTPClient(hc *http.Client) {
	for _, c := range a.clients {
		c.HTTP = hc
	}
}

// SetLogger sets the structured logger Handler's tracing middleware
// writes request lines to (nil, the default, logs nothing). Call
// before Handler.
func (a *Aggregator) SetLogger(l *slog.Logger) { a.logger = l }

// Nodes returns the configured node URLs.
func (a *Aggregator) Nodes() []string { return append([]string(nil), a.urls...) }

// Metrics returns the aggregator's metric registry — what GET /metrics
// serves. Embedding applications can register their own series on it.
func (a *Aggregator) Metrics() *obs.Registry { return a.reg }

// Counters returns a point-in-time copy of the cache/transfer/plan
// counters: the same counters GET /metrics serves as tp_agg_*_total.
func (a *Aggregator) Counters() AggregatorCounters {
	return AggregatorCounters{
		CacheHits:    a.met.hits.Value(),
		DeltaFetches: a.met.deltas.Value(),
		FullFetches:  a.met.fulls.Value(),
		BytesFetched: a.met.bytesFetch.Value(),
		PlanHits:     a.met.planHits.Value(),
		PlanRebuilds: a.met.planRebuilds.Value(),
	}
}

// Handler returns the aggregator's HTTP handler:
//
//	GET /sample      global merged query; ?k= for k independent draws
//	GET /samplek     alias of /sample that requires ?k=
//	GET /stats       per-node reachability and stats, global stream mass
//	GET /metrics     Prometheus text exposition of the registry
//	GET /healthz     liveness (always 200)
//	GET /readyz      readiness (200, or 503 with a reason)
//
// Every request is wrapped by the tracing middleware: an incoming
// X-Request-ID is adopted (else one is generated), echoed on the
// response, carried in the request context — from where the fan-out
// forwards it to every node — and stamped into the request log line
// and any JSON error body.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sample", a.handleSample)
	mux.HandleFunc("GET /samplek", a.handleSampleK)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.Handle("GET /metrics", a.reg.Handler())
	mux.HandleFunc("GET /healthz", a.health.Liveness)
	mux.HandleFunc("GET /readyz", a.health.Readiness)
	return obs.Trace("aggregator", a.logger, mux)
}

func (a *Aggregator) handleSample(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	a.answer(w, r, k)
}

func (a *Aggregator) handleSampleK(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("k") == "" {
		writeError(w, r, http.StatusBadRequest, "samplek requires ?k=")
		return
	}
	a.handleSample(w, r)
}

func (a *Aggregator) answer(w http.ResponseWriter, r *http.Request, k int) {
	a.met.queries.Inc()
	plan, pools, err := a.queryPlan(r.Context())
	if err != nil {
		a.met.queryErrs.Inc()
		status := http.StatusBadGateway
		var refused *mergeRefusedError
		if errors.As(err, &refused) {
			// The fleet answered; its snapshots don't compose. 422 keeps
			// that distinct from node unreachability.
			status = http.StatusUnprocessableEntity
		}
		node := ""
		var fe *nodeFetchError
		if errors.As(err, &fe) {
			node = fe.URL
		}
		writeErrorNode(w, r, status, err.Error(), node)
		return
	}
	// A fresh seed per query randomizes the mixture draws; the trial
	// coins inside the plan stay whatever the nodes froze (see
	// NewAggregator's independence note).
	qseed := a.seed + a.ctr.Add(1)*0x9e3779b97f4a7c15
	outs, count := plan.SampleK(qseed, k)
	writeJSON(w, http.StatusOK, SampleResponse{
		Outcomes:  toWire(outs),
		Count:     count,
		StreamLen: plan.StreamLen(),
		Nodes:     len(a.urls),
		Pools:     pools,
	})
}

// transientStatus reports statuses a retry can fix: a draining node
// (503) or a flaky intermediary, as opposed to a permanent refusal.
func transientStatus(status int) bool {
	switch status {
	case http.StatusServiceUnavailable, http.StatusTooManyRequests,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// mergeRefusedError marks errors where every node answered but the
// snapshots refuse to merge (window kinds, mismatched constructors).
type mergeRefusedError struct{ err error }

func (e *mergeRefusedError) Error() string { return e.err.Error() }
func (e *mergeRefusedError) Unwrap() error { return e.err }

// nodeFetchError attributes one node-fetch failure to the node that
// caused it, so the aggregator's error body can name the URL without
// parsing its own message text. what is the classification phrase
// ("unreachable", "refused its snapshot", "snapshot"); the rendered
// message matches the pre-typed fmt.Errorf texts byte for byte.
type nodeFetchError struct {
	URL  string
	what string
	err  error
}

func (e *nodeFetchError) Error() string {
	return fmt.Sprintf("serve: node %s %s: %v", e.URL, e.what, e.err)
}
func (e *nodeFetchError) Unwrap() error { return e.err }

// Merge brings every node's cached snapshot up to date (revalidate,
// fold a delta, or refetch) and wires the global merged sampler; pools
// is the number of per-shard states the mixture spans. It is exported
// for in-process callers (benchmarks, embedding applications) that
// want the merged sampler itself rather than one HTTP answer from it.
// Cancellation of ctx applies to every node fetch, and a tracing ID in
// ctx (obs.ContextWithRequestID) rides the fan-out as X-Request-ID on
// each node fetch. The merged sampler is a seeded view over the same
// cached merge plan the HTTP answer path draws from.
func (a *Aggregator) Merge(ctx context.Context) (*snap.Merged, int, error) {
	plan, pools, err := a.queryPlan(ctx)
	if err != nil {
		return nil, 0, err
	}
	qseed := a.seed + a.ctr.Add(1)*0x9e3779b97f4a7c15
	merged, err := plan.Merged(qseed)
	if err != nil {
		return nil, 0, &mergeRefusedError{err}
	}
	return merged, pools, nil
}

// queryPlan runs the node fan-out (each node through its singleflight
// refresh), fingerprints the advertised state names, and returns the
// cached merge plan on a fingerprint match — else builds, caches, and
// returns a fresh one. pools is the number of per-shard states the
// plan's mixture spans.
func (a *Aggregator) queryPlan(ctx context.Context) (*snap.MergePlan, int, error) {
	if len(a.clients) == 0 {
		return nil, 0, &mergeRefusedError{errors.New("serve: aggregator has no nodes")}
	}
	if a.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.QueryTimeout)
		defer cancel()
	}
	type fetched struct {
		cut  *nodeCut
		name string
		err  error
	}
	results := make([]fetched, len(a.clients))
	var wg sync.WaitGroup
	for i := range a.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cut, name, err := a.nodeStates(ctx, i)
			results[i] = fetched{cut: cut, name: name, err: err}
		}()
	}
	wg.Wait()
	var states []sample.State
	var pools []*snap.Pool
	restored := true
	var key strings.Builder
	for _, res := range results {
		if res.err != nil {
			return nil, 0, res.err
		}
		states = append(states, res.cut.states...)
		pools = append(pools, res.cut.pools...)
		restored = restored && res.cut.pools != nil
		// State names are hex (content-addressed snap.Name), so \x00 is
		// an unambiguous joiner.
		key.WriteString(res.name)
		key.WriteByte(0)
	}
	fp := key.String()
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.plan != nil && a.planKey == fp {
		a.met.planHits.Inc()
		return a.plan, a.planPools, nil
	}
	tMerge := time.Now()
	var plan *snap.MergePlan
	var err error
	if restored {
		// Every node's pools were restored when its state was
		// installed: the plan only wires the mixture over them.
		plan, err = snap.PlanPools(pools...)
	} else {
		plan, err = snap.BuildMergePlan(states...)
	}
	a.met.mergeTime.ObserveSince(tMerge)
	if err != nil {
		return nil, 0, &mergeRefusedError{err}
	}
	a.met.planRebuilds.Inc()
	a.plan, a.planKey, a.planPools = plan, fp, len(states)
	return plan, len(states), nil
}

// nodeStates returns node i's current cut and advertised state name,
// serving from and refreshing its cache.
// Concurrent callers share one in-flight refresh per node; the lock is
// never held across the network. Errors come back pre-classified:
// composition problems (refusals, undecodable or unfoldable snapshots)
// wrapped in mergeRefusedError, everything else as unreachability —
// including this caller's own context expiring while the shared fetch
// is still out.
func (a *Aggregator) nodeStates(ctx context.Context, i int) (*nodeCut, string, error) {
	c := a.caches[i]
	c.mu.Lock()
	call := c.inflight
	if call == nil {
		call = &refreshCall{done: make(chan struct{})}
		c.inflight = call
		// The fetch runs detached from any single query's context — other
		// queries may be waiting on it — but keeps ctx's values, so the
		// first query's X-Request-ID rides the node fetch. The
		// QueryTimeout (already applied to ctx by queryPlan) is re-applied
		// to the detached context so an abandoned fetch still dies.
		fctx := context.WithoutCancel(ctx)
		var cancel context.CancelFunc
		if a.cfg.QueryTimeout > 0 {
			fctx, cancel = context.WithTimeout(fctx, a.cfg.QueryTimeout)
		}
		go a.refreshNode(fctx, cancel, i, c, call)
	}
	c.mu.Unlock()
	select {
	case <-call.done:
		return call.cut, call.name, call.err
	case <-ctx.Done():
		return nil, "", &nodeFetchError{URL: a.urls[i], what: "unreachable", err: ctx.Err()}
	}
}

// refreshNode runs one node refresh and publishes the result to every
// waiter. The singleflight slot is cleared before done is closed, so a
// query arriving after completion always starts a fresh revalidation —
// the cache never answers staler than one in-flight fetch.
func (a *Aggregator) refreshNode(ctx context.Context, cancel context.CancelFunc, i int, c *nodeCache, call *refreshCall) {
	if cancel != nil {
		defer cancel()
	}
	t0 := time.Now()
	cut, name, err := a.refresh(ctx, i, c)
	a.met.fetchLatency(a.urls[i]).ObserveSince(t0)
	if err != nil {
		a.met.fetchErrors(a.urls[i]).Inc()
	}
	call.cut, call.name, call.err = cut, name, err
	c.mu.Lock()
	c.inflight = nil
	c.mu.Unlock()
	close(call.done)
}

// refresh revalidates node i's cache: 304 serves the cached cut, a
// delta folds onto the cached base (verified against the advertised
// name — any mismatch degrades to one full fetch, never to wrong
// state), anything else installs a full snapshot. Exactly one refresh
// per node runs at a time (the singleflight slot), so the brief
// c.mu sections only fence the fields against concurrent readers.
func (a *Aggregator) refresh(ctx context.Context, i int, c *nodeCache) (*nodeCut, string, error) {
	c.mu.Lock()
	since, cached := c.name, c.cut
	c.mu.Unlock()
	res, err := a.clients[i].SnapshotSince(ctx, since)
	if err != nil {
		return nil, "", a.classify(i, err)
	}
	if res.NotModified {
		if cached == nil {
			// A 304 against an empty cache (e.g. the peer echoing a
			// stale validator) cannot be served; refetch whole.
			return a.fetchFull(ctx, i, c)
		}
		a.met.hits.Inc()
		return cached, since, nil
	}
	a.met.bytesFetch.Add(int64(len(res.Data)))
	if res.Base == "" {
		a.met.fulls.Inc()
		return a.installFull(i, c, res.Data, res.Name)
	}
	if res.Base != since || cached == nil {
		return a.fetchFull(ctx, i, c)
	}
	next, name, err := fold(cached, since, res.Data)
	if err != nil || (res.Name != "" && name != res.Name) {
		return a.fetchFull(ctx, i, c)
	}
	a.met.deltas.Inc()
	return a.install(i, c, next, name)
}

// fold applies a fetched v2 delta to the cached cut named since and
// returns the successor with the state name of its v1 bytes. A
// coordinator's delta folds onto a copy of the decoded base, which
// stays intact whatever the delta holds, and the result passes the
// decoder's structural checks before it is encoded and named.
func fold(cached *nodeCut, since string, delta []byte) (nodeCut, string, error) {
	if cached.coord == nil {
		full, err := applyAnyDelta(cached.raw, delta)
		if err != nil {
			return nodeCut{}, "", err
		}
		return nodeCut{raw: full}, snap.Name(full), nil
	}
	coord, err := cached.coord.Apply(delta, since)
	if err != nil {
		return nodeCut{}, "", err
	}
	return nodeCut{coord: coord}, snap.Name(coord.Encode()), nil
}

// fetchFull unconditionally fetches node i's full snapshot and
// installs it in the cache.
func (a *Aggregator) fetchFull(ctx context.Context, i int, c *nodeCache) (*nodeCut, string, error) {
	res, err := a.clients[i].SnapshotSince(ctx, "")
	if err != nil {
		return nil, "", a.classify(i, err)
	}
	a.met.bytesFetch.Add(int64(len(res.Data)))
	a.met.fulls.Inc()
	return a.installFull(i, c, res.Data, res.Name)
}

// installFull decodes a full snapshot of either flavor and installs it:
// a coordinator's as its decoded cut, a bare sampler's as its bytes.
func (a *Aggregator) installFull(i int, c *nodeCache, full []byte, name string) (*nodeCut, string, error) {
	if name == "" {
		name = snap.Name(full)
	}
	var cut nodeCut
	if shard.IsCoordinatorSnapshot(full) {
		var err error
		if cut.coord, err = shard.DecodeCoordinator(full); err != nil {
			return nil, "", a.refused(i, err)
		}
	} else {
		cut.raw = full
	}
	return a.install(i, c, cut, name)
}

// install explodes a node state into its per-shard states, restores
// their pools, and commits the cut to node i's cache. The restore runs
// here, once per state name, so a plan rebuild for another node's move
// reuses this node's pools.
func (a *Aggregator) install(i int, c *nodeCache, cut nodeCut, name string) (*nodeCut, string, error) {
	var err error
	if cut.coord != nil {
		cut.states, err = cut.coord.SamplerStates()
	} else {
		// A bare sampler snapshot (a node serving sample/snap bytes
		// without a coordinator) joins the mixture as a single pool.
		var st sample.State
		st, err = snap.Decode(cut.raw)
		cut.states = []sample.State{st}
	}
	if err == nil {
		cut.pools, err = snap.RestorePools(cut.states)
	}
	if err != nil {
		return nil, "", a.refused(i, err)
	}
	c.mu.Lock()
	c.name, c.cut = name, &cut
	c.mu.Unlock()
	return &cut, name, nil
}

// refused classifies a snapshot node i served that does not decode or
// restore as a composition refusal naming the node.
func (a *Aggregator) refused(i int, err error) error {
	return &mergeRefusedError{&nodeFetchError{URL: a.urls[i], what: "snapshot", err: err}}
}

// classify maps a fetch error for node i onto the aggregator's
// refusal/unreachable split: a node that answered with a non-transient
// error status (e.g. 500 from a custom-measure coordinator that
// cannot snapshot) is a composition refusal. Transport failures and
// transient statuses — 503 from a node mid-Close, 429/502/504 from
// intermediaries — stay on the unreachable path so clients keep
// retrying through a rolling restart.
func (a *Aggregator) classify(i int, err error) error {
	var status *StatusError
	if errors.As(err, &status) && !transientStatus(status.Status) {
		return &mergeRefusedError{&nodeFetchError{URL: a.urls[i], what: "refused its snapshot", err: err}}
	}
	return &nodeFetchError{URL: a.urls[i], what: "unreachable", err: err}
}

func (a *Aggregator) handleStats(w http.ResponseWriter, r *http.Request) {
	rows := make([]NodeStatus, len(a.clients))
	var wg sync.WaitGroup
	for i, c := range a.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = NodeStatus{URL: a.urls[i]}
			st, err := c.Stats(r.Context())
			if err != nil {
				rows[i].Error = err.Error()
				return
			}
			rows[i].Stats = &st
		}()
	}
	wg.Wait()
	var total int64
	for _, row := range rows {
		if row.Stats != nil {
			total += row.Stats.StreamLen
		}
	}
	writeJSON(w, http.StatusOK, AggregatorStats{Nodes: rows, StreamLen: total})
}
