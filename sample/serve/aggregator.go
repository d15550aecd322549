package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
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
// every node's acceptance summary up to date (snap.Summary: the node's
// spec, ζ_j, per-pool masses and every accepted trial of each query
// group, read from the plan the node's local queries share) and draws
// from a snap.MergePlan that mixes the summaries under one ζ =
// max_j ζ_j (snap.PlanSummaries) — so the answer's law is exactly the
// law of one truly perfect sampler on the concatenation of every
// node's stream, as of each node's fetch.
//
// What the aggregator does hold is caching at two levels:
//
//   - A per-node *summary cache*, keyed by the ETag that names the
//     node's plan instance: a query revalidates with If-None-Match, so
//     a node whose plan has not changed costs one header round-trip
//     (304, a cache hit) and only a changed node ships its summary. A
//     node that does not summarize (a sampler node, which answers 501,
//     or a peer without the endpoint) is fetched through its snapshot
//     instead, keyed by the content-addressed snap.Name it advertises:
//     304 on a match, a v2 delta folded onto the cached bytes and
//     verified against the advertised name, or a full fetch. A
//     framework-kind snapshot is summarized on arrival (snap.Summarize,
//     over the restored pool and a copy of its PCG), so every
//     framework-kind plan is one mixture over summaries; other kinds
//     keep their decoded states for snap.BuildMergePlan.
//   - A *merge-plan cache* (DESIGN.md §9): while no node's cache entry
//     moves, queries reuse the prepared snap.MergePlan and pay only
//     their own mixture draws. The plan's thinning coins come from the
//     aggregator's seed, so equal summaries and an equal seed rebuild
//     an equal plan: reuse changes nothing but CPU time.
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
// revalidate fresh.
//
// The fetch is all-or-nothing: a node that fails to answer fails the
// query (HTTP 502) rather than being silently dropped, because a
// merge over a subset is an exact answer to a different question —
// the subset's union — and quietly substituting it would bias what
// the caller believes is the global law. The 502/422 error body names
// the node whose fetch failed and echoes the request's tracing ID, so
// one fleet-wide failure is attributable from the caller's side alone.
// Merge refusals (window kinds, parameter mismatches across nodes,
// summaries or snapshots that do not decode) answer 422 with snap's
// error text, window refusals via ErrWindowMergeUnsupported.
type Aggregator struct {
	urls     []string
	clients  []*Client
	caches   []*nodeCache
	seed     uint64
	ctr      atomic.Uint64
	installs atomic.Uint64
	cfg      AggregatorConfig

	// The merge-plan cache: plan answers queries while planKey (every
	// node's cache-entry sequence number) matches the current fan-out.
	// planMu serializes rebuild-vs-reuse decisions; MergePlan itself is
	// safe for concurrent draws.
	planMu    sync.Mutex
	planKey   []uint64
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
	// summary or snapshot revalidation, delta fold, or full fetch,
	// including time spent waiting on another query's shared in-flight
	// fetch — so one hung node fails queries with 502 after the
	// deadline instead of stalling them forever. 0 (the default)
	// imposes no deadline beyond the HTTP client's own.
	QueryTimeout time.Duration
}

// nodeCache is one node's cache entry plus how to refresh it. mu
// guards the fields and the singleflight slot only — never a network
// round-trip; the fetch itself runs in refreshNode with the lock
// released, so a slow node serializes nothing but its own refresh.
// snapshots records that the node does not summarize; want is the
// widest group count any query has asked of the node, which every
// summary fetch requests.
type nodeCache struct {
	mu        sync.Mutex
	entry     *nodeEntry
	snapshots bool
	want      int
	inflight  *refreshCall
}

// nodeEntry is one node state as the aggregator keeps it, immutable
// once installed. name is what the next fetch revalidates with: the
// summary's ETag, or the state name of a snapshot. sums are the
// node's summaries (framework kinds: the node's own, or one per pool of
// a fetched snapshot); states are the decoded states of any other kind,
// which merge through snap.BuildMergePlan. raw is a fetched snapshot's
// full v1 bytes, the base its next delta folds onto. seq is unique per
// install; the plan cache keys on it.
type nodeEntry struct {
	name   string
	seq    uint64
	sums   []*snap.Summary
	states []sample.State
	raw    []byte
}

// covers reports whether the entry answers a k-sample query.
func (e *nodeEntry) covers(k int) bool {
	for _, s := range e.sums {
		if !s.Covers(k) {
			return false
		}
	}
	return true
}

// specs lists the specs the entry's pools were built with.
func (e *nodeEntry) specs() []sample.Spec {
	var specs []sample.Spec
	for _, s := range e.sums {
		specs = append(specs, s.Spec)
	}
	for _, st := range e.states {
		specs = append(specs, st.Spec)
	}
	return specs
}

// refreshCall is one in-flight node refresh, shared by every query
// that needs the node while it runs (singleflight). k is the group
// count it fetches. The result fields are written once, before done is
// closed; waiters read them only after <-done, which is the
// happens-before edge.
type refreshCall struct {
	done  chan struct{}
	k     int
	entry *nodeEntry
	err   error
}

// NewAggregator builds an aggregator over the given node base URLs.
// seed feeds the plan's thinning coins and the mixture randomness; each
// query derives a fresh mixture seed from it. Note the library-wide
// query contract still applies across the network: the per-pool
// acceptance coins are flipped once per node plan, so repeated queries
// against *unchanged* nodes replay correlated trials rather than being
// independent draws (the cached merge plan makes that reuse explicit
// and cheap). For k mutually independent samples, ask for them in one
// query (?k=, served by disjoint query groups); across queries,
// independence returns as nodes ingest and their plans move.
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
		CacheHits:      a.met.hits.Value(),
		SummaryFetches: a.met.summaries.Value(),
		DeltaFetches:   a.met.deltas.Value(),
		FullFetches:    a.met.fulls.Value(),
		BytesFetched:   a.met.bytesFetch.Value(),
		PlanHits:       a.met.planHits.Value(),
		PlanRebuilds:   a.met.planRebuilds.Value(),
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
	plan, pools, err := a.queryPlan(r.Context(), k)
	if err != nil {
		a.met.queryErrs.Inc()
		status := http.StatusBadGateway
		var refused *mergeRefusedError
		if errors.As(err, &refused) {
			// The fleet answered; its states don't compose. 422 keeps
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
	// coins inside the plan stay whatever the nodes flipped (see
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
// states refuse to merge (window kinds, mismatched constructors).
type mergeRefusedError struct{ err error }

func (e *mergeRefusedError) Error() string { return e.err.Error() }
func (e *mergeRefusedError) Unwrap() error { return e.err }

// nodeFetchError attributes one node-fetch failure to the node that
// caused it, so the aggregator's error body can name the URL without
// parsing its own message text. what is the classification phrase
// ("unreachable", "refused its snapshot", "snapshot", "summary",
// "does not merge").
type nodeFetchError struct {
	URL  string
	what string
	err  error
}

func (e *nodeFetchError) Error() string {
	return fmt.Sprintf("serve: node %s %s: %v", e.URL, e.what, e.err)
}
func (e *nodeFetchError) Unwrap() error { return e.err }

// allGroups asks a node for every group it provisions: nodes clamp k.
const allGroups = 1<<31 - 1

// Merge brings every node's cached summary or snapshot up to date and
// wires the global merged sampler over every provisioned group; pools
// is the number of per-shard pools the mixture spans. It is exported
// for in-process callers (benchmarks, embedding applications) that
// want the merged sampler itself rather than one HTTP answer from it.
// Cancellation of ctx applies to every node fetch, and a tracing ID in
// ctx (obs.ContextWithRequestID) rides the fan-out as X-Request-ID on
// each node fetch. The merged sampler is a seeded view over the same
// cached merge plan the HTTP answer path draws from.
func (a *Aggregator) Merge(ctx context.Context) (*snap.Merged, int, error) {
	plan, pools, err := a.queryPlan(ctx, allGroups)
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
// refresh, covering k groups) and returns the cached merge plan when no
// node's cache entry moved — else builds, caches, and returns a fresh
// one. pools is the number of per-shard pools the plan's mixture spans.
func (a *Aggregator) queryPlan(ctx context.Context, k int) (*snap.MergePlan, int, error) {
	if len(a.clients) == 0 {
		return nil, 0, &mergeRefusedError{errors.New("serve: aggregator has no nodes")}
	}
	if a.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.cfg.QueryTimeout)
		defer cancel()
	}
	type fetched struct {
		entry *nodeEntry
		err   error
	}
	results := make([]fetched, len(a.clients))
	var wg sync.WaitGroup
	for i := range a.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entry, err := a.nodeEntry(ctx, i, k)
			results[i] = fetched{entry: entry, err: err}
		}()
	}
	wg.Wait()
	key := make([]uint64, len(results))
	entries := make([]*nodeEntry, len(results))
	for i, res := range results {
		if res.err != nil {
			return nil, 0, res.err
		}
		key[i], entries[i] = res.entry.seq, res.entry
	}
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if a.plan != nil && slices.Equal(a.planKey, key) {
		a.met.planHits.Inc()
		return a.plan, a.planPools, nil
	}
	tMerge := time.Now()
	plan, pools, err := a.buildPlan(entries)
	a.met.mergeTime.ObserveSince(tMerge)
	if err != nil {
		return nil, 0, err
	}
	a.met.planRebuilds.Inc()
	a.plan, a.planKey, a.planPools = plan, key, pools
	return plan, pools, nil
}

// buildPlan checks that every node's pools merge with node 0's, naming
// the first node whose do not, and wires the mixture: over summaries
// for the framework kinds (snap.PlanSummaries, thinning coins seeded by
// the aggregator's seed), over decoded states for every other kind
// (snap.BuildMergePlan). pools is the number of pools the mixture
// spans.
func (a *Aggregator) buildPlan(entries []*nodeEntry) (*snap.MergePlan, int, error) {
	ref := entries[0].specs()[0]
	var sums []*snap.Summary
	var states []sample.State
	for i, e := range entries {
		for _, spec := range e.specs() {
			if err := snap.CompatibleSpecs(ref, spec); err != nil {
				return nil, 0, &mergeRefusedError{&nodeFetchError{URL: a.urls[i], what: "does not merge", err: err}}
			}
		}
		sums = append(sums, e.sums...)
		states = append(states, e.states...)
	}
	var plan *snap.MergePlan
	var err error
	if sums != nil {
		plan, err = snap.PlanSummaries(a.seed, sums...)
	} else {
		plan, err = snap.BuildMergePlan(states...)
	}
	if err != nil {
		return nil, 0, &mergeRefusedError{err}
	}
	pools := len(states)
	for _, s := range sums {
		pools += len(s.Lens)
	}
	return plan, pools, nil
}

// nodeEntry returns node i's current cache entry, covering k groups,
// serving from and refreshing its cache. Concurrent callers share one
// in-flight refresh per node; the lock is never held across the
// network. A caller that joined a refresh asking fewer groups than it
// needs waits for it and starts the next one: every refresh asks the
// widest count any caller has registered, so the second one covers.
// Errors come back pre-classified: composition problems (refusals,
// undecodable summaries or snapshots) wrapped in mergeRefusedError,
// everything else as unreachability — including this caller's own
// context expiring while the shared fetch is still out.
func (a *Aggregator) nodeEntry(ctx context.Context, i, k int) (*nodeEntry, error) {
	c := a.caches[i]
	for {
		c.mu.Lock()
		c.want = max(c.want, k)
		call := c.inflight
		if call == nil {
			call = &refreshCall{done: make(chan struct{}), k: c.want}
			c.inflight = call
			// The fetch runs detached from any single query's context —
			// other queries may be waiting on it — but keeps ctx's
			// values, so the first query's X-Request-ID rides the node
			// fetch. The QueryTimeout (already applied to ctx by
			// queryPlan) is re-applied to the detached context so an
			// abandoned fetch still dies.
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
		case <-ctx.Done():
			return nil, &nodeFetchError{URL: a.urls[i], what: "unreachable", err: ctx.Err()}
		}
		if call.err != nil || call.entry.covers(k) {
			return call.entry, call.err
		}
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
	entry, err := a.refresh(ctx, i, c, call.k)
	a.met.fetchLatency(a.urls[i]).ObserveSince(t0)
	if err != nil {
		a.met.fetchErrors(a.urls[i]).Inc()
	}
	call.entry, call.err = entry, err
	c.mu.Lock()
	c.inflight = nil
	c.mu.Unlock()
	close(call.done)
}

// refresh revalidates node i's cache for k groups: through the node's
// summary, or through its snapshot once the node has answered /summary
// with a non-transient error status (a sampler node's 501, a 404 from a
// peer without the endpoint). Exactly one refresh per node runs at a
// time (the singleflight slot), so the brief c.mu sections only fence
// the fields against concurrent readers.
func (a *Aggregator) refresh(ctx context.Context, i int, c *nodeCache, k int) (*nodeEntry, error) {
	c.mu.Lock()
	cached, snapshots := c.entry, c.snapshots
	c.mu.Unlock()
	if !snapshots {
		entry, err := a.fetchSummary(ctx, i, c, cached, k)
		if !errors.Is(err, errNoSummary) {
			return entry, err
		}
		c.mu.Lock()
		c.snapshots = true
		c.mu.Unlock()
	}
	return a.fetchSnapshot(ctx, i, c, cached)
}

// fetchSummary revalidates a summarizing node: 304 serves the cached
// summary when it covers k groups, anything else installs the fetched
// summary. It returns errNoSummary when the node does not summarize.
func (a *Aggregator) fetchSummary(ctx context.Context, i int, c *nodeCache, cached *nodeEntry, k int) (*nodeEntry, error) {
	etag := ""
	if cached != nil && cached.raw == nil && cached.covers(k) {
		etag = cached.name
	}
	res, err := a.clients[i].Summary(ctx, k, etag)
	var status *StatusError
	if errors.As(err, &status) && !transientStatus(status.Status) {
		return nil, errNoSummary
	}
	if err != nil {
		return nil, a.classify(i, err)
	}
	if res.NotModified {
		if etag == "" {
			return nil, a.refused(i, "summary", errors.New("304 to an unconditional request"))
		}
		a.met.hits.Inc()
		return cached, nil
	}
	a.met.bytesFetch.Add(int64(len(res.Data)))
	a.met.summaries.Inc()
	sum, err := snap.DecodeSummary(res.Data)
	if err == nil && !sum.Covers(k) {
		err = fmt.Errorf("summary covers %d groups, asked %d", len(sum.Groups), k)
	}
	if err != nil {
		return nil, a.refused(i, "summary", err)
	}
	return a.install(c, &nodeEntry{name: res.ETag, sums: []*snap.Summary{sum}}), nil
}

// fetchSnapshot revalidates a node that does not summarize: 304 serves
// the cached entry, a delta folds onto the cached bytes (verified
// against the advertised name — any mismatch degrades to one full
// fetch, never to wrong state), anything else installs a full snapshot.
func (a *Aggregator) fetchSnapshot(ctx context.Context, i int, c *nodeCache, cached *nodeEntry) (*nodeEntry, error) {
	since := ""
	if cached != nil && cached.raw != nil {
		since = cached.name
	}
	res, err := a.clients[i].SnapshotSince(ctx, since)
	if err != nil {
		return nil, a.classify(i, err)
	}
	if res.NotModified {
		if since == "" {
			// A 304 against an empty cache (e.g. the peer echoing a
			// stale validator) cannot be served; refetch whole.
			return a.fetchFull(ctx, i, c)
		}
		a.met.hits.Inc()
		return cached, nil
	}
	a.met.bytesFetch.Add(int64(len(res.Data)))
	if res.Base == "" {
		a.met.fulls.Inc()
		return a.installSnapshot(i, c, res.Data, res.Name)
	}
	if res.Base != since {
		return a.fetchFull(ctx, i, c)
	}
	full, err := applyAnyDelta(cached.raw, res.Data)
	if err != nil {
		return a.fetchFull(ctx, i, c)
	}
	name := snap.Name(full)
	if res.Name != "" && name != res.Name {
		return a.fetchFull(ctx, i, c)
	}
	a.met.deltas.Inc()
	return a.installSnapshot(i, c, full, name)
}

// fetchFull unconditionally fetches node i's full snapshot and
// installs it in the cache.
func (a *Aggregator) fetchFull(ctx context.Context, i int, c *nodeCache) (*nodeEntry, error) {
	res, err := a.clients[i].SnapshotSince(ctx, "")
	if err != nil {
		return nil, a.classify(i, err)
	}
	a.met.bytesFetch.Add(int64(len(res.Data)))
	a.met.fulls.Inc()
	return a.installSnapshot(i, c, res.Data, res.Name)
}

// installSnapshot decodes a full snapshot of either flavor into its
// per-pool states — a coordinator's one per shard, a bare sampler's
// one — and installs it: summarized, for the framework kinds, so the
// node joins the fleet's one mixture over summaries; as decoded states
// for every other kind.
func (a *Aggregator) installSnapshot(i int, c *nodeCache, full []byte, name string) (*nodeEntry, error) {
	if name == "" {
		name = snap.Name(full)
	}
	var states []sample.State
	var err error
	if shard.IsCoordinatorSnapshot(full) {
		states, err = shard.SamplerStates(full)
	} else {
		var st sample.State
		st, err = snap.Decode(full)
		states = []sample.State{st}
	}
	if err != nil {
		return nil, a.refused(i, "snapshot", err)
	}
	entry := &nodeEntry{name: name, raw: full}
	for _, st := range states {
		sum, err := snap.Summarize(st)
		if err != nil {
			return nil, a.refused(i, "snapshot", err)
		}
		if sum == nil {
			entry.sums, entry.states = nil, states
			break
		}
		entry.sums = append(entry.sums, sum)
	}
	return a.install(c, entry), nil
}

// install stamps an entry with a fresh sequence number and commits it
// to the node's cache.
func (a *Aggregator) install(c *nodeCache, entry *nodeEntry) *nodeEntry {
	entry.seq = a.installs.Add(1)
	c.mu.Lock()
	c.entry = entry
	c.mu.Unlock()
	return entry
}

// refused classifies a summary or snapshot node i served that does not
// decode or restore as a composition refusal naming the node.
func (a *Aggregator) refused(i int, what string, err error) error {
	return &mergeRefusedError{&nodeFetchError{URL: a.urls[i], what: what, err: err}}
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
