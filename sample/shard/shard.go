// Package shard provides partitioned parallel ingestion for the truly
// perfect sampling framework: a Coordinator fans an insertion-only
// stream out across P worker goroutines, each owning an independent
// pool of framework instances, and merges the per-shard pools at query
// time so that the merged output law is *exactly* the law a single
// sampler would have produced on the undivided stream.
//
// # Why exact merging is possible
//
// This is the paper's composition property at work (§1 of
// arXiv:2108.12017): because each framework instance is truly perfect —
// zero relative error, zero additive error — samples from different
// machines can be combined without compounding approximation error.
// Concretely, an instance that reservoir-sampled a uniform position of
// shard j's local stream (length m_j) accepts item i at query time with
// probability exactly
//
//	P[accept ∧ item = i] = G(f_i⁽ʲ⁾) / (ζ·m_j),
//
// where f⁽ʲ⁾ is shard j's local frequency vector (Theorem 3.1's
// telescoping argument, applied to the local stream). A single-machine
// instance over the whole stream (length m = Σ m_j) would accept i with
// probability G(f_i)/(ζ·m). The coordinator therefore simulates one
// single-machine instance per query trial by *mixing shards by local
// stream mass*: draw shard j with probability m_j/m, then consume one
// unused instance of shard j. Under hash routing every occurrence of an
// item lands in one shard, so f_i⁽ʲ⁾ = f_i for the owning shard and the
// trial accepts i with probability
//
//	Σ_j (m_j/m) · G(f_i·1[i owned by j]) / (ζ·m_j) = G(f_i)/(ζ·m),
//
// exactly the single-machine per-trial law. Trials are i.i.d. (distinct
// instances, independent shard draws), so "first accepting trial out of
// T" has exactly the single-machine pool law, and FAIL probability
// (1 − F_G/(ζm))^T — identical to the single-machine pool's whenever ζ
// is a data-independent constant, and no worse for Lp with p > 1, where
// the per-shard Misra–Gries bounds are computed on shorter local
// streams and therefore yield a ζ at least as tight as the
// single-machine sketch's. No (1±ε), no 1/poly(n) — the merged sampler
// is itself truly perfect.
//
// Two details make this watertight rather than approximately right:
//
//   - ζ must be a single global bound shared by every shard (the
//     coordinator computes it at query time — for Lp with p > 1, from
//     the per-shard Misra–Gries bounds), otherwise trials from
//     different shards would be normalized inconsistently and the
//     mixture law would be distorted.
//   - every shard provisions the full trial budget T. If shards held
//     only T/P instances, the multinomial shard-draw sequence could
//     exhaust a shard mid-query, and any exhaustion handling (abort,
//     skip, redraw) conditions the output law on the draw sequence and
//     introduces exactly the kind of additive bias the paper rules out.
//     Full provisioning costs P× the single-machine pool memory in
//     total — but per shard (per machine, in a real deployment) it is
//     the same memory a single-machine sampler would need, and update
//     time is unaffected because the framework's update cost is
//     independent of pool size.
//
// # Routing
//
// RouteHash partitions the universe by a keyed hash of the item, which
// is what makes the merged law exact for every measure G. RouteRoundRobin
// partitions by arrival position instead, splitting an item's
// occurrences across shards; the merged law is then exactly
// Σ_j G(f_i⁽ʲ⁾) / Σ_i Σ_j G(f_i⁽ʲ⁾), which coincides with the global
// G-law precisely when G is linear — i.e. round-robin is exact for L1
// and biased for nonlinear measures. It is provided for load-balancing
// experiments and for the L1 case, where it removes hash skew entirely.
//
// # Concurrency contract
//
// Ingestion is single-producer: Process and ProcessBatch must be called
// from one goroutine (the parallelism lives inside). Queries are not so
// restricted: Sample, SampleK, Drain and BitsUsed may be called from
// any goroutine, concurrently with the producer and with each other.
// A query takes the coordinator mutex, drains in-flight batches, wires
// the m_j/m mixture over the drained worker pools as a snap.MergePlan
// (snap.PoolPlan: per-shard stream masses plus one global ζ) and
// materializes the plan's group tables — every pool instance the
// query may consume flips its rejection coin while the workers are
// provably idle, and each pool keeps only its first acceptance per
// group, the one trial a draw can stop at. Then it releases the mutex,
// takes a per-request split of the coordinator's mixture RNG, and runs
// the draw (MergePlan.DrawK) on the frozen tables — the same code the
// cross-machine merge (sample/snap, sample/serve's aggregator) runs.
// Query traffic therefore does not serialize behind ingestion: the
// producer contends only for the bounded drain-and-materialize window,
// not for the draw itself, and the worker goroutines keep applying
// batches throughout. Every query still answers with respect to every
// update processed before it drained.
//
// The plan is additionally *shared* across queries: the coordinator
// versions its routed stream (every Process/ProcessBatch bumps the
// version) and caches the last plan it built, so queries arriving
// while the version is unchanged skip both the drain barrier and the
// O(k·P·T) coin flips of materialization — a wider query than any
// before it only materializes the missing groups, still under the
// mutex — and pay only their own mixture draws. Each request still
// gets an independent split of the mixture RNG, so every answer
// carries the exact merged marginal law; queries against an unchanged
// coordinator reuse the same frozen trial coins and are therefore
// correlated with each other — the same contract the cross-machine
// merge layer has always documented for repeated queries against
// unchanged nodes. Any ingest invalidates the cache, and k mutually
// independent samples within one request come from SampleK's disjoint
// groups.
//
// Ingesting into or querying a coordinator after Close (Process,
// ProcessBatch, Sample, SampleK, Drain, BitsUsed) panics with a clear
// message; the read-only accessors (StreamLen, Shards, Trials,
// Queries) stay usable and Close itself is idempotent.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/misragries"
	"repro/internal/rng"
	"repro/sample"
	"repro/sample/snap"
)

// Route selects how the coordinator partitions the stream.
type Route int

const (
	// RouteHash routes by keyed item hash: each item's occurrences all
	// land in one shard, and the merged law is exact for every measure.
	RouteHash Route = iota
	// RouteRoundRobin routes by arrival position. Exact for linear G
	// (L1); for nonlinear measures the merged law is the per-shard
	// mixture Σ_j G(f⁽ʲ⁾) — see the package comment.
	RouteRoundRobin
)

// Config tunes the coordinator. The zero value picks hash routing,
// one shard per available CPU (capped at 8), a 2048-item batch, and a
// single query group. Values are clamped into the snapshot-portable
// ranges noted per field, so every coordinator a constructor accepts
// can round-trip through Snapshot/RestoreCoordinator.
type Config struct {
	// Shards is the worker count P. Defaults to min(GOMAXPROCS, 8);
	// clamped to ≤ 4096.
	Shards int
	// Route is the partitioning policy. Defaults to RouteHash.
	Route Route
	// BatchSize is the per-shard routing buffer: updates are handed to
	// workers in slices of this length. Defaults to 2048; clamped to
	// ≤ 2²⁰.
	BatchSize int
	// QueueDepth is the per-worker channel capacity in batches.
	// Defaults to 8; clamped to ≤ 2¹².
	QueueDepth int
	// Queries provisions k disjoint query groups in every shard pool so
	// SampleK(k) answers k mutually independent merged samples per
	// query. Memory scales by the factor k (each group is a full trial
	// budget T per shard); update time is unchanged. Defaults to 1;
	// clamped to < 2²⁰.
	Queries int
}

// Config ranges shared with the snapshot decoder
// (validateCoordinatorHead): what a constructor accepts, a restore
// accepts.
const (
	maxShards     = 1 << 12
	maxBatchSize  = 1 << 20
	maxQueueDepth = 1 << 12
	maxQueries    = 1<<20 - 1 // strictly inside the decoder's 20-bit field mask
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Shards > maxShards {
		c.Shards = maxShards
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 2048
	}
	if c.BatchSize > maxBatchSize {
		c.BatchSize = maxBatchSize
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.QueueDepth > maxQueueDepth {
		c.QueueDepth = maxQueueDepth
	}
	if c.Queries <= 0 {
		c.Queries = 1
	}
	if c.Queries > maxQueries {
		c.Queries = maxQueries
	}
	return c
}

// Coordinator fans a stream across per-shard sampler pools and answers
// merged queries with the exact single-machine law. It implements
// sample.Sampler.
//
// mu guards all coordinator state (routing buffers, counters, worker
// channels, pool reads) — see the package comment's concurrency
// contract. The worker goroutines themselves never take mu: they are
// synchronized through the drain acknowledgement channel, after which
// they are provably idle until the next (mu-guarded) send.
type Coordinator struct {
	mu      sync.Mutex
	cfg     Config
	workers []*worker
	bufs    [][]int64
	// free recycles routing buffers: a worker done applying a batch
	// hands the slice back (non-blocking, see worker.loop) and the next
	// flush reuses it, so steady-state routing allocates nothing. Every
	// buffer in it has capacity cfg.BatchSize — the flush trigger
	// compares len against cap.
	free    chan []int64
	src     *rng.PCG // shard draws at query time
	hashKey uint64
	rr      int   // round-robin cursor
	total   int64 // updates routed so far
	trials  int   // per-group per-shard pool size T = the full trial budget
	queries int   // disjoint query groups per shard pool
	zeta    func(*Coordinator) float64
	spec    coordSpec
	closed  bool

	// Query plan sharing: version counts routed-ingest calls and plan
	// is the m_j/m mixture over the drained pools (snap.PoolPlan) built
	// at planVersion. A checkpoint (exportState) drops the plan so a
	// restored coordinator — which starts without one — continues
	// queries bit-for-bit with the original.
	version     uint64
	pools       []*core.GSampler // workers[j].pool, for snap.PoolPlan
	plan        *snap.MergePlan
	planVersion uint64

	// epoch counts every call that can change the bytes Snapshot
	// encodes: routed ingest, every query (each advances src and may
	// draw pool coins) and Close. Queries must not touch version — that
	// would defeat query-plan sharing — hence the second counter.
	epoch uint64
}

// coordSpec records the constructor call that built the coordinator,
// so Snapshot can encode it and RestoreCoordinator can re-run it.
type coordSpec struct {
	kind    uint8 // coordMeasure (New) or coordLp (NewLp)
	measure string
	tau     float64
	p       float64
	n       int64
	m       int64
	delta   float64
	seed    uint64
	known   bool // false for custom measures: Snapshot errors
}

const (
	coordMeasure uint8 = 1
	coordLp      uint8 = 2
)

type msg struct {
	items []int64
	ack   chan<- struct{}
}

type worker struct {
	pool *core.GSampler
	mg   *misragries.Sketch // nil unless the Lp (p>1) normalizer is needed
	in   chan msg
	done chan struct{}
	free chan<- []int64 // recycled routing buffers, back to the coordinator
}

func (w *worker) loop() {
	for m := range w.in {
		if len(m.items) > 0 {
			if w.mg != nil {
				for _, it := range m.items {
					w.mg.Process(it)
				}
			}
			w.pool.ProcessBatch(m.items)
			// The pool copied what it needed; recycle the buffer unless
			// the free list is full (then the GC takes it).
			select {
			case w.free <- m.items[:0]:
			default:
			}
		}
		if m.ack != nil {
			m.ack <- struct{}{}
		}
	}
	close(w.done)
}

// New returns a sharded truly perfect sampler for measure g over a
// stream of planned length ≤ m with failure probability ≤ delta —
// the parallel counterpart of sample.NewMEstimator. Every shard
// provisions the full Theorem-3.1 pool for (g, m, delta), so the merged
// FAIL probability matches the single-machine sampler's.
func New(g sample.Measure, m int64, delta float64, seed uint64, cfg Config) *Coordinator {
	trials := core.InstancesForMeasure(g, m, delta)
	name, tau, specErr := sample.MeasureSpec(g)
	c := build(cfg, seed, g, trials, 0, func(c *Coordinator) float64 {
		return g.Zeta(c.total)
	})
	c.spec = coordSpec{kind: coordMeasure, measure: name, tau: tau, m: m,
		delta: delta, seed: seed, known: specErr == nil}
	return c
}

// NewL1 returns the sharded truly perfect L1 sampler. With
// RouteRoundRobin it is still exact (L1's G is linear) and perfectly
// load-balanced regardless of item skew.
func NewL1(delta float64, seed uint64, cfg Config) *Coordinator {
	return New(measure.Lp{P: 1}, 1, delta, seed, cfg)
}

// NewLp returns the sharded truly perfect Lp sampler (p > 0) over
// universe [0, n) for a stream of planned length ≤ m — the parallel
// counterpart of sample.NewLp. For p > 1 each shard additionally runs a
// deterministic Misra–Gries sketch; at query time the coordinator
// combines the per-shard bounds into one global ζ (max over shards for
// hash routing, sum for round-robin) so every trial is normalized
// identically.
func NewLp(p float64, n, m int64, delta float64, seed uint64, cfg Config) *Coordinator {
	if p <= 0 {
		panic("shard: Lp sampler needs p > 0")
	}
	if delta <= 0 || delta >= 1 {
		panic("shard: delta must be in (0,1)")
	}
	trials := core.LpPoolSize(p, n, m, delta)
	spec := coordSpec{kind: coordLp, p: p, n: n, m: m, delta: delta,
		seed: seed, known: true}
	if p <= 1 {
		c := build(cfg, seed, measure.Lp{P: p}, trials, 0, func(*Coordinator) float64 { return 1 })
		c.spec = spec
		return c
	}
	zeta := func(c *Coordinator) float64 {
		var z int64
		for _, w := range c.workers {
			zb := w.mg.MaxUpperBound()
			if c.cfg.Route == RouteRoundRobin {
				z += zb // ‖f‖∞ ≤ Σ_j ‖f⁽ʲ⁾‖∞
			} else if zb > z {
				z = zb // ‖f‖∞ = max_j ‖f⁽ʲ⁾‖∞ under hash routing
			}
		}
		return measure.Lp{P: p}.Zeta(max(z, 1))
	}
	c := build(cfg, seed, measure.Lp{P: p}, trials, core.LpMGWidth(p, n), zeta)
	c.spec = spec
	return c
}

// build starts one worker per shard, each owning a pool of trials·Queries
// instances for g and, when mgWidth > 0, a Misra–Gries sketch of that
// width for the Lp (p > 1) normalizer. The pools carry no normalizer of
// their own: zeta is the one global ζ, evaluated when a query builds its
// plan and passed to every pool's trials.
func build(cfg Config, seed uint64, g measure.Func, trials, mgWidth int,
	zeta func(*Coordinator) float64) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		src:     rng.New(seed ^ 0xc001d00dcafef00d),
		hashKey: mix64(seed + 0x5bd1e9955bd1e995),
		trials:  trials,
		queries: cfg.Queries,
		zeta:    zeta,
	}
	c.workers = make([]*worker, cfg.Shards)
	c.pools = make([]*core.GSampler, cfg.Shards)
	c.bufs = make([][]int64, cfg.Shards)
	// Two spare buffers per shard keep the flush path allocation-free
	// even when every worker has one batch in flight and one queued.
	c.free = make(chan []int64, 2*cfg.Shards)
	for j := range c.workers {
		pool := core.NewGSamplerK(g, trials, cfg.Queries, mix64(seed+uint64(j)*0x9e3779b97f4a7c15), nil)
		var mg *misragries.Sketch
		if mgWidth > 0 {
			mg = misragries.New(mgWidth)
		}
		w := &worker{
			pool: pool,
			mg:   mg,
			in:   make(chan msg, cfg.QueueDepth),
			done: make(chan struct{}),
			free: c.free,
		}
		c.workers[j] = w
		c.pools[j] = pool
		c.bufs[j] = make([]int64, 0, cfg.BatchSize)
		go w.loop()
	}
	return c
}

// mix64 is a SplitMix64-style finalizer used for routing and seeding.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *Coordinator) route(item int64) int {
	if c.cfg.Route == RouteRoundRobin {
		j := c.rr
		c.rr++
		if c.rr == len(c.workers) {
			c.rr = 0
		}
		return j
	}
	return int(mix64(uint64(item)^c.hashKey) % uint64(len(c.workers)))
}

// ensureOpen panics if the coordinator has been closed. Callers hold mu.
func (c *Coordinator) ensureOpen() {
	if c.closed {
		panic("shard: coordinator used after Close")
	}
}

// Process routes one update to its shard.
func (c *Coordinator) Process(item int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	c.version++
	c.epoch++
	c.processLocked(item)
}

func (c *Coordinator) processLocked(item int64) {
	j := c.route(item)
	c.bufs[j] = append(c.bufs[j], item)
	if len(c.bufs[j]) == cap(c.bufs[j]) {
		c.flush(j)
	}
	c.total++
}

// ProcessBatch routes a slice of updates. The slice is copied into
// per-shard buffers; the caller may reuse it immediately. This is the
// preferred ingestion path: routing is the coordinator's only serial
// work, so its per-item cost bounds the achievable parallel speedup.
func (c *Coordinator) ProcessBatch(items []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	if len(items) == 0 {
		return
	}
	c.version++
	c.epoch++
	if c.cfg.Route == RouteRoundRobin {
		for _, it := range items {
			c.processLocked(it)
		}
		return
	}
	nw := uint64(len(c.workers))
	key := c.hashKey
	for _, it := range items {
		j := mix64(uint64(it)^key) % nw
		buf := append(c.bufs[j], it)
		c.bufs[j] = buf
		if len(buf) == cap(buf) {
			c.flush(int(j))
		}
	}
	c.total += int64(len(items))
}

func (c *Coordinator) flush(j int) {
	if len(c.bufs[j]) == 0 {
		return
	}
	c.workers[j].in <- msg{items: c.bufs[j]}
	select {
	case buf := <-c.free:
		c.bufs[j] = buf
	default:
		c.bufs[j] = make([]int64, 0, c.cfg.BatchSize)
	}
}

// Drain hands every buffered update to its worker and blocks until all
// workers have applied everything sent so far. After Drain, the shards'
// pools reflect the full routed stream. Safe from any goroutine.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	c.drainLocked()
}

// drainLocked flushes and waits for worker acknowledgements. After it
// returns every worker is blocked on its (empty) input channel, so pool
// state is stable until the next mu-guarded send: the ack receive is
// the happens-before edge that makes the subsequent snapshot race-free.
func (c *Coordinator) drainLocked() {
	ack := make(chan struct{}, len(c.workers))
	for j := range c.workers {
		c.flush(j)
		c.workers[j].in <- msg{ack: ack}
	}
	for range c.workers {
		<-ack
	}
}

// Sample merges the shard pools and returns an item with exactly the
// single-machine law G(f_i)/F_G over the full routed stream (see the
// package comment for the argument), ok=false on FAIL. An empty stream
// returns Outcome{Bottom: true} with ok=true. Safe from any goroutine.
func (c *Coordinator) Sample() (sample.Outcome, bool) {
	outs, n := c.SampleK(1)
	if n == 0 {
		return sample.Outcome{}, false
	}
	return outs[0], true
}

// SampleK returns up to k mutually independent merged samples — the
// m_j/m mixture run once per disjoint query group — each with exactly
// the single-machine law. k is clamped to the Queries count provisioned
// in Config; the returned slice holds the draws that succeeded, in
// group order, and the int is their count. An empty stream succeeds
// with k ⊥ outcomes. Safe from any goroutine (see the package
// comment's concurrency contract).
func (c *Coordinator) SampleK(k int) ([]sample.Outcome, int) {
	outs, n, _, _ := c.SampleKLenShared(k)
	return outs, n
}

// SampleKLenShared is SampleK plus the routed stream mass the answer is
// exact with respect to and a flag reporting whether the answer came
// from the shared query plan (true) or paid its own drain-and-
// materialize (false). The mass comes from the query's own drain:
// reading StreamLen separately races with a concurrent producer and
// can pair a sample with a mass it never saw. The flag is the signal
// sample/serve's node exposes as tp_node_query_snapshot_shared_total.
// Concurrent callers against an unchanged coordinator share one plan
// build; each still draws its own independent split of the mixture
// RNG, so every answer carries the exact merged law (see the package
// comment's concurrency contract for the cross-request correlation
// this implies).
func (c *Coordinator) SampleKLenShared(k int) ([]sample.Outcome, int, int64, bool) {
	if k < 1 {
		panic("shard: SampleK needs k ≥ 1")
	}
	if k > c.queries {
		k = c.queries
	}
	plan, src, shared := c.sharePlan(k)
	if plan == nil {
		outs := make([]sample.Outcome, k)
		for i := range outs {
			outs[i] = sample.Outcome{Bottom: true}
		}
		return outs, k, 0, shared
	}
	// The draw runs off-lock on trials sharePlan materialized:
	// ingestion proceeds and other queries share the same frozen
	// trials concurrently.
	outs, n := plan.DrawK(&src, k)
	return outs, n, plan.StreamLen(), shared
}

// sharePlan is the locked half of a query: reuse the cached plan when
// the stream version is unchanged, otherwise drain and build (and
// cache) a fresh one; then materialize its first k groups. The workers
// are idle throughout — post-drain, or no update routed since the
// plan's own drain — which is what lets the plan flip pool coins here
// and lets the draw read its group tables off-lock afterwards. src is
// the request's own split of the mixture RNG; a nil plan reports a
// zero-length stream (⊥ answer, mixture RNG untouched). The deferred
// unlock keeps the mutex releasable on the used-after-Close panic
// path.
func (c *Coordinator) sharePlan(k int) (plan *snap.MergePlan, src rng.PCG, shared bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	c.epoch++
	shared = c.plan != nil && c.planVersion == c.version
	if !shared {
		c.drainLocked()
		if c.total == 0 {
			return nil, rng.PCG{}, false
		}
		c.plan = snap.PoolPlan(c.pools, c.zeta(c), c.queries)
		c.planVersion = c.version
	}
	c.plan.Materialize(k)
	return c.plan, c.src.SplitPCG(), shared
}

// Summary answers an aggregator from the query plan local queries
// share (see snap.Summary): the per-shard spec, the coordinator's ζ,
// every shard's mass and every accepted trial of each materialized
// group — at least min(k, Queries) groups. When ingest has moved the
// stream since the cached plan was built it drains and builds a new
// one, and it materializes missing groups, exactly as a local query
// would; only then does it bump the state epoch. It never splits the
// mixture RNG, so a summary served from a current plan changes nothing
// Snapshot encodes. epoch is the state epoch after the call, read under
// the same mutex hold as the summary: equal epochs bracket an interval
// in which the summary stayed current. An empty stream builds no plan
// and summarizes to empty groups over zero masses. Custom measures
// have no wire spec and error, as Snapshot does. Safe from any
// goroutine.
func (c *Coordinator) Summary(k int) (sum *snap.Summary, epoch uint64, err error) {
	if k < 1 {
		panic("shard: Summary needs k ≥ 1")
	}
	k = min(k, c.queries)
	if !c.spec.known {
		return nil, 0, fmt.Errorf("shard: custom measures cannot be snapshotted")
	}
	spec, err := c.spec.samplerSpec(c.queries)
	if err != nil {
		return nil, 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	if c.plan == nil || c.planVersion != c.version {
		c.drainLocked()
		if c.total == 0 {
			groups := make([][][]core.Acceptance, k)
			for q := range groups {
				groups[q] = make([][]core.Acceptance, len(c.pools))
			}
			return &snap.Summary{Spec: spec, Zeta: c.zeta(c), Lens: make([]int64, len(c.pools)), Groups: groups}, c.epoch, nil
		}
		c.plan = snap.PoolPlan(c.pools, c.zeta(c), c.queries)
		c.planVersion = c.version
	}
	if sum = c.plan.Summary(spec); !sum.Covers(k) {
		c.epoch++
		c.plan.Materialize(k)
		sum = c.plan.Summary(spec)
	}
	return sum, c.epoch, nil
}

// Epoch reports the coordinator's state epoch, a counter bumped under
// the coordinator mutex by every call that can change the bytes
// Snapshot encodes: routed ingest (Process, and ProcessBatch with a
// non-empty batch), every query (Sample, SampleK and their variants —
// each advances the mixture RNG, and a plan build or materialization
// draws pool coins), a Summary that builds or extends the plan, and
// Close. Snapshot, SnapshotDelta, Drain, a Summary served from the
// current plan and the read-only accessors leave it alone. Equal readings therefore bracket
// an interval in which Snapshot's output could not change, which makes
// the epoch a cache key for cut bytes — provided it is read before the
// cut: a reading taken after could tag older bytes with a newer epoch.
// Unlike the query-plan version, queries bump it. Safe from any
// goroutine, including after Close.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Close shuts the workers down. Ingestion and query calls after Close
// panic (see the package comment); the read-only accessors stay
// usable. Close itself is idempotent and safe from any goroutine.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.epoch++ // no cut cached against the open coordinator outlives it
	for _, w := range c.workers {
		close(w.in)
	}
	for _, w := range c.workers {
		<-w.done
	}
}

// Shards returns the worker count P.
func (c *Coordinator) Shards() int { return len(c.workers) }

// StreamLen returns the number of updates routed so far.
func (c *Coordinator) StreamLen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Trials returns the per-query trial budget T (also each shard's
// per-group pool size — see the package comment on full provisioning).
func (c *Coordinator) Trials() int { return c.trials }

// Queries returns the provisioned query-group count.
func (c *Coordinator) Queries() int { return c.queries }

// BitsUsed reports the live size of every shard pool (and normalizer
// sketch) in bits. It drains first: workers may still be applying
// queued batches, and their pool state must not be read concurrently.
// Safe from any goroutine.
func (c *Coordinator) BitsUsed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	c.drainLocked()
	var b int64 = 512
	for _, w := range c.workers {
		b += w.pool.BitsUsed()
		if w.mg != nil {
			b += w.mg.BitsUsed()
		}
	}
	return b
}
