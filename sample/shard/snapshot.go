package shard

// Coordinator checkpoint/restore: the sharded counterpart of the
// sample/snap sampler codec, sharing its wire substrate and format
// version (internal/wire). A coordinator snapshot is the drained
// constructor spec + effective Config + routing state + every shard
// pool with its local stream mass m_j — everything the exact merged
// query law depends on — so a restored coordinator continues
// ingestion, routing, and merged queries bit-for-bit.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/misragries"
	"repro/internal/wire"
	"repro/sample"
)

// Snapshot drains the coordinator and encodes its complete state into
// the versioned snapshot wire format. The coordinator stays usable
// afterwards. It errors for coordinators built with a custom measure
// (only the predefined measures have stable wire names). Safe from any
// goroutine.
func (c *Coordinator) Snapshot() ([]byte, error) {
	d, err := c.exportState()
	if err != nil {
		return nil, err
	}
	return encodeCoordinator(d), nil
}

// exportState drains the coordinator and captures its complete state
// in decoded form — the shared substrate of Snapshot and SnapshotDelta.
func (c *Coordinator) exportState() (*decodedCoordinator, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureOpen()
	if !c.spec.known {
		return nil, fmt.Errorf("shard: custom measures cannot be snapshotted")
	}
	c.drainLocked()
	// Drop the shared query plan: a restored coordinator starts
	// without one, so the original must rebuild from the same
	// checkpointed pool state to keep post-checkpoint queries
	// bit-for-bit identical on both sides.
	c.plan = nil
	d := &decodedCoordinator{spec: c.spec, cfg: c.cfg, total: c.total, rr: c.rr}
	d.hi, d.lo = c.src.State()
	d.pools = make([]core.GSamplerState, len(c.workers))
	d.mgs = make([]*misragries.State, len(c.workers))
	// Per-shard pools (drained, so the exported states reflect every
	// routed update) with their normalizer sketches.
	for j, wk := range c.workers {
		d.pools[j] = wk.pool.ExportState()
		if wk.mg != nil {
			mg := wk.mg.ExportState()
			d.mgs[j] = &mg
		}
	}
	return d, nil
}

// encodeCoordinator is the single v1 encoder for coordinator state,
// shared by the live Snapshot path and the delta codec's re-encode
// (ApplyCoordinatorDelta): one state, one encoding, whichever path
// produced it.
func encodeCoordinator(d *decodedCoordinator) []byte {
	w := &wire.Writer{}
	wire.PutHeader(w, wire.KindCoordinator)
	// Constructor spec.
	w.U8(d.spec.kind)
	w.String(d.spec.measure)
	w.F64(d.spec.tau)
	w.F64(d.spec.p)
	w.Varint(d.spec.n)
	w.Varint(d.spec.m)
	w.F64(d.spec.delta)
	w.U64(d.spec.seed)
	// Effective config (withDefaults already applied at build).
	w.Uvarint(uint64(d.cfg.Shards))
	w.U8(uint8(d.cfg.Route))
	w.Uvarint(uint64(d.cfg.BatchSize))
	w.Uvarint(uint64(d.cfg.QueueDepth))
	w.Uvarint(uint64(d.cfg.Queries))
	// Routing and query state.
	w.Varint(d.total)
	w.Uvarint(uint64(d.rr))
	w.U64(d.hi)
	w.U64(d.lo)
	for j := range d.pools {
		wire.PutGSamplerState(w, d.pools[j])
		w.Bool(d.mgs[j] != nil)
		if d.mgs[j] != nil {
			wire.PutMGState(w, *d.mgs[j])
		}
	}
	return w.Bytes()
}

// decodedCoordinator is the parsed form of a coordinator snapshot,
// validated before any allocation happens.
type decodedCoordinator struct {
	spec  coordSpec
	cfg   Config
	total int64
	rr    int
	hi    uint64
	lo    uint64
	pools []core.GSamplerState
	mgs   []*misragries.State
}

// RestoreCoordinator rebuilds a working coordinator — workers, pools,
// routing state — from a snapshot taken with Coordinator.Snapshot.
// The restored coordinator continues ingestion and merged queries
// bit-for-bit from the captured point.
func RestoreCoordinator(data []byte) (*Coordinator, error) {
	d, err := decodeCoordinator(data)
	if err != nil {
		return nil, err
	}
	var c *Coordinator
	switch d.spec.kind {
	case coordMeasure:
		g, err := sample.MeasureFromSpec(d.spec.measure, d.spec.tau)
		if err != nil {
			return nil, err
		}
		c = New(g, d.spec.m, d.spec.delta, d.spec.seed, d.cfg)
	case coordLp:
		c = NewLp(d.spec.p, d.spec.n, d.spec.m, d.spec.delta, d.spec.seed, d.cfg)
	}
	c.total = d.total
	c.rr = d.rr
	c.src.SetState(d.hi, d.lo)
	for j, wk := range c.workers {
		if wk.mg != nil {
			if err := wk.mg.ImportState(*d.mgs[j]); err != nil {
				c.Close()
				return nil, fmt.Errorf("shard %d normalizer: %w", j, err)
			}
			// Same guard as core.LpSampler.ImportState: instance counts
			// must stay below the shard's own normalizer bound, or the
			// first query's rejection step would panic on acc > 1.
			if err := d.pools[j].ValidateNormalizerBound(wk.mg.MaxUpperBound()); err != nil {
				c.Close()
				return nil, fmt.Errorf("shard %d: %w", j, err)
			}
		}
		if err := wk.pool.ImportState(d.pools[j]); err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d: %w", j, err)
		}
	}
	return c, nil
}

// IsCoordinatorSnapshot reports whether data carries the coordinator
// wire kind (0xC0) rather than a single-sampler kind. It reads only
// the header — magic, version, kind — so it is a cheap sniff for
// callers (the sample/serve aggregator) that receive snapshot bytes of
// either flavor and must pick a decoder.
func IsCoordinatorSnapshot(data []byte) bool {
	r := wire.NewReader(data)
	kind := wire.Header(r)
	return r.Err() == nil && kind == wire.KindCoordinator
}

// SamplerStates decodes a coordinator snapshot into one sample.State
// per shard: the coordinator's constructor spec re-expressed as the
// equivalent single-sampler Spec (New → KindMEstimator, NewLp/NewL1 →
// KindLp/the lp measure) paired with that shard's drained pool — and,
// for Lp with p > 1, its Misra–Gries normalizer.
//
// This is the bridge between fleet checkpoints and the cross-process
// merge: snap.MergeStates over the union of several coordinators'
// SamplerStates runs the m_j/m mixture across every (machine, shard)
// pool at once, which is exactly the law argument of this package's
// comment with "worker goroutine" replaced by "pool wherever it
// lives". The per-shard m_j travel inside each pool state, so no extra
// bookkeeping crosses the wire. Two caveats carry over from
// snap.Merge: coordinators on different machines need distinct seeds
// (each pool's RNG state travels in its state, and the per-shard pools
// of one coordinator are already independently seeded — but two
// coordinators sharing a seed would ship identical reservoirs), and
// for nonlinear measures the machines must partition items just as
// hash routing partitions them across shards.
func SamplerStates(data []byte) ([]sample.State, error) {
	d, err := decodeCoordinator(data)
	if err != nil {
		return nil, err
	}
	states := make([]sample.State, d.cfg.Shards)
	switch d.spec.kind {
	case coordMeasure:
		spec := sample.Spec{Kind: sample.KindMEstimator, Measure: d.spec.measure,
			Tau: d.spec.tau, M: d.spec.m, Delta: d.spec.delta,
			Queries: d.cfg.Queries, Seed: d.spec.seed}
		if d.spec.measure == "lp" && d.spec.tau == 1 && d.spec.m == 1 {
			// Exactly what shard.NewL1 builds — surface it as KindL1 so
			// the states merge with bare sample.NewL1 snapshots (the two
			// constructors build identical pools; only the spec label
			// differs, and compatibleSpecs compares labels).
			spec = sample.Spec{Kind: sample.KindL1, Delta: d.spec.delta,
				Queries: d.cfg.Queries, Seed: d.spec.seed}
		}
		for j := range states {
			pool := d.pools[j]
			states[j] = sample.State{Spec: spec, G: &pool}
		}
	case coordLp:
		spec := sample.Spec{Kind: sample.KindLp, P: d.spec.p, N: d.spec.n,
			M: d.spec.m, Delta: d.spec.delta,
			Queries: d.cfg.Queries, Seed: d.spec.seed}
		for j := range states {
			lp := core.LpSamplerState{Pool: d.pools[j], MG: d.mgs[j]}
			states[j] = sample.State{Spec: spec, Lp: &lp}
		}
	default:
		return nil, fmt.Errorf("shard: unknown coordinator kind %d", d.spec.kind)
	}
	return states, nil
}

// Describe returns a short human-readable rendering of the constructor
// call that built the coordinator — "lp p=2 n=1024 m=65537 δ=0.1" or
// "measure=l1l2 m=50000 δ=0.1" — for logs and serving-layer stats
// endpoints. It is informational only; the machine-readable form is
// the Snapshot spec.
func (c *Coordinator) Describe() string {
	switch c.spec.kind {
	case coordLp:
		return fmt.Sprintf("lp p=%g n=%d m=%d δ=%g", c.spec.p, c.spec.n, c.spec.m, c.spec.delta)
	case coordMeasure:
		if c.spec.measure == "lp" && c.spec.tau == 1 && c.spec.m == 1 {
			return fmt.Sprintf("l1 δ=%g", c.spec.delta) // NewL1's fingerprint
		}
		name := c.spec.measure
		if !c.spec.known {
			name = "custom"
		}
		s := fmt.Sprintf("measure=%s", name)
		if c.spec.tau != 0 {
			s += fmt.Sprintf(" τ=%g", c.spec.tau)
		}
		return s + fmt.Sprintf(" m=%d δ=%g", c.spec.m, c.spec.delta)
	}
	return fmt.Sprintf("kind=%d", c.spec.kind)
}

func decodeCoordinator(data []byte) (decodedCoordinator, error) {
	var d decodedCoordinator
	r := wire.NewReader(data)
	if kind := wire.Header(r); r.Err() == nil && kind != wire.KindCoordinator {
		return d, fmt.Errorf("shard: not a coordinator snapshot (kind %d)", kind)
	}
	d.spec.kind = r.U8()
	d.spec.measure = r.String(32)
	d.spec.tau = r.F64()
	d.spec.p = r.F64()
	d.spec.n = r.Varint()
	d.spec.m = r.Varint()
	d.spec.delta = r.F64()
	d.spec.seed = r.U64()
	d.spec.known = true
	d.cfg = Config{
		Shards:     int(r.Uvarint() & 0xffff),
		Route:      Route(r.U8()),
		BatchSize:  int(r.Uvarint() & 0x3ffffff),
		QueueDepth: int(r.Uvarint() & 0xfffff),
		Queries:    int(r.Uvarint() & 0xfffff),
	}
	d.total = r.Varint()
	d.rr = int(r.Uvarint() & 0xffff)
	d.hi = r.U64()
	d.lo = r.U64()
	if r.Err() != nil {
		return d, fmt.Errorf("shard: %w", r.Err())
	}
	trials, err := validateCoordinatorHead(d)
	if err != nil {
		return d, err
	}
	d.pools = make([]core.GSamplerState, d.cfg.Shards)
	d.mgs = make([]*misragries.State, d.cfg.Shards)
	var sum int64
	for j := 0; j < d.cfg.Shards; j++ {
		d.pools[j] = wire.GSamplerStateR(r)
		if r.Bool() {
			mg := wire.MGStateR(r)
			d.mgs[j] = &mg
		}
		if r.Err() != nil {
			return d, fmt.Errorf("shard: %w", r.Err())
		}
		// Shape checks before the constructors allocate anything: the
		// decoded counts are input-bounded, the spec-derived sizes must
		// match them.
		if d.pools[j].GroupSize != trials || len(d.pools[j].Insts) != trials*d.cfg.Queries {
			return d, fmt.Errorf("shard %d: pool shape (%d×%d) does not match spec (%d×%d)",
				j, d.pools[j].GroupSize, len(d.pools[j].Insts), trials, trials*d.cfg.Queries)
		}
		needMG := d.spec.kind == coordLp && d.spec.p > 1
		if needMG != (d.mgs[j] != nil) {
			return d, fmt.Errorf("shard %d: normalizer presence mismatch", j)
		}
		if needMG {
			if want := core.LpMGWidth(d.spec.p, d.spec.n); d.mgs[j].K != want {
				return d, fmt.Errorf("shard %d: normalizer width %d, spec needs %d",
					j, d.mgs[j].K, want)
			}
		}
		sum += d.pools[j].T
	}
	if err := r.Done(); err != nil {
		return d, fmt.Errorf("shard: %w", err)
	}
	// Post-drain invariant: every routed update lives in some pool.
	if sum != d.total {
		return d, fmt.Errorf("shard: pool lengths sum to %d, coordinator total is %d", sum, d.total)
	}
	return d, nil
}

// validateCoordinatorHead sanity-checks the spec and config and
// returns the spec-derived per-shard trial budget.
func validateCoordinatorHead(d decodedCoordinator) (int, error) {
	s := d.spec
	if !(s.delta > 0 && s.delta < 1) {
		return 0, fmt.Errorf("shard: delta %v outside (0,1)", s.delta)
	}
	if d.cfg.Shards < 1 || d.cfg.Shards > maxShards {
		return 0, fmt.Errorf("shard: shard count %d out of range", d.cfg.Shards)
	}
	if d.cfg.Route != RouteHash && d.cfg.Route != RouteRoundRobin {
		return 0, fmt.Errorf("shard: unknown route %d", d.cfg.Route)
	}
	if d.cfg.BatchSize < 1 || d.cfg.QueueDepth < 1 || d.cfg.Queries < 1 {
		return 0, fmt.Errorf("shard: invalid config %+v", d.cfg)
	}
	// Allocation guard: build() sizes per-shard routing buffers and
	// channels from the Config, so a hostile snapshot must not be able
	// to command allocations unbounded by its own byte length.
	if d.cfg.BatchSize > maxBatchSize || d.cfg.QueueDepth > maxQueueDepth ||
		d.cfg.Queries > maxQueries {
		return 0, fmt.Errorf("shard: config batch size %d / queue depth %d / queries %d out of range",
			d.cfg.BatchSize, d.cfg.QueueDepth, d.cfg.Queries)
	}
	if int64(d.cfg.Shards)*int64(d.cfg.BatchSize) > 1<<24 {
		return 0, fmt.Errorf("shard: %d shards × batch size %d exceeds the restore allocation budget",
			d.cfg.Shards, d.cfg.BatchSize)
	}
	if d.rr >= d.cfg.Shards {
		return 0, fmt.Errorf("shard: round-robin cursor %d outside %d shards", d.rr, d.cfg.Shards)
	}
	if d.total < 0 {
		return 0, fmt.Errorf("shard: negative total %d", d.total)
	}
	switch s.kind {
	case coordMeasure:
		if s.m < 1 {
			return 0, fmt.Errorf("shard: planned length %d out of range", s.m)
		}
		g, err := sample.MeasureFromSpec(s.measure, s.tau)
		if err != nil {
			return 0, err
		}
		return core.InstancesForMeasure(g, s.m, s.delta), nil
	case coordLp:
		if !(s.p > 0) || math.IsInf(s.p, 0) {
			return 0, fmt.Errorf("shard: p %v not a finite positive value", s.p)
		}
		if s.n < 1 || s.m < 1 {
			return 0, fmt.Errorf("shard: universe %d / planned length %d out of range", s.n, s.m)
		}
		if s.p > 1 && s.n > math.MaxInt32 {
			return 0, fmt.Errorf("shard: universe %d too large for the p>1 normalizer", s.n)
		}
		return core.LpPoolSize(s.p, s.n, s.m, s.delta), nil
	}
	return 0, fmt.Errorf("shard: unknown coordinator kind %d", s.kind)
}
