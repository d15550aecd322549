package snap

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/matrixsampler"
	"repro/internal/rng"
	"repro/sample"
)

// mergeSeedMix folds the caller's seed into the mixture stream. One
// constant shared by every draw path so a MergePlan draw with qseed
// and a Merged built from the same seed consume identical mixture
// coins.
const mergeSeedMix = 0x5eed5eed5eed5eed

// MergePlan is the reusable half of a cross-snapshot merge: everything
// MergeStates computes that does not depend on the query seed —
// decoded pools, per-shard stream masses m_j, the global ζ, the
// state-level unions of the single-sampler kinds — frozen into one
// immutable-by-contract value. Build it once per fleet state with
// BuildMergePlan, then answer any number of queries with SampleK/Draw,
// each of which costs only fresh mixture draws (plus, for the
// framework kinds, a one-time lazy materialization of each query
// group's acceptance table).
//
// Why caching preserves the law: the per-instance acceptance coins are
// frozen inside the snapshotted pool states — a fresh MergeStates per
// query restores the same RNG states and therefore replays the same
// trials — so the only per-query randomness the old path ever had was
// the mixture draw sequence, which SampleK still takes fresh from
// qseed. Trials are independent of the draw sequence (each trial's
// acceptance law depends only on the instance it lands on), so a plan
// that flips every group's trial coins once and re-runs only the
// mixture has exactly the per-query marginal law of a fresh merge.
// Across queries the correlation contract is the library's usual one:
// repeated queries against one plan replay correlated trials; k
// mutually independent samples come from one SampleK(qseed, k) over
// disjoint groups.
//
// Concurrency: SampleK, Draw and DrawK (given a src of the caller's
// own) are safe from any goroutine. The framework kinds' group tables
// are materialized under an internal mutex and read-only afterwards;
// matrix trials never touch sampler state (matrixsampler.Trial's
// contract); the single-sampler kinds (F0, F0 oracle,
// strict-turnstile, multipass) restore a fresh sampler from the cached
// merged state per call, serialized by the same mutex.
type MergePlan struct {
	kind    sample.Kind
	total   int64
	queries int
	shards  int
	budget  int
	zeta    float64
	lens    []int64

	// Framework kinds: pools mixed by stream mass, the coin stream each
	// pool's trials flip from (the pool's own for PoolPlan, a plan-owned
	// copy for restored pools several plans share), plus the per-group
	// acceptance tables Materialize fills from them. A plan over
	// summaries (PlanSummaries) has no pools: its tables are complete
	// when it is built.
	pools []*core.GSampler
	coins []*rng.PCG
	mu    sync.Mutex
	// groups[q][j] lists pool j's accepted trials in group q in index
	// order, coins already flipped: every acceptance for a plan over
	// pools, the first survivor of thinning for a plan over summaries.
	// A draw reads only the first entry. Entries are append-only under
	// mu and immutable once built, so readers that obtained a prefix
	// under mu may index it lock-free.
	groups [][][]core.Acceptance

	// Matrix kinds: decoded per-shard samplers whose instances each
	// draw drives through Trial with its own coin stream.
	matrix []*matrixsampler.Sampler

	// Single-sampler kinds: the merged state (the expensive union /
	// min-hash composition / absorb / concatenation, computed once).
	// Draws restore from it under mu — exactly the fresh-restore-per-
	// query behavior an uncached MergeStates sequence had.
	single *sample.State
}

// BuildMergePlan is the expensive half of MergeStates: it validates
// compatibility, restores the snapshots, computes the mixture weights
// and the global ζ, and performs the per-kind state merges — returning
// a plan any number of queries can draw from. The per-kind rules and
// the refusal errors are exactly Merge's.
func BuildMergePlan(states ...sample.State) (*MergePlan, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("snap: nothing to merge")
	}
	specs := make([]sample.Spec, len(states))
	for i, st := range states {
		specs[i] = st.Spec
	}
	if err := compatibleSpecs(specs); err != nil {
		return nil, err
	}
	spec := states[0].Spec
	p := &MergePlan{
		kind:    spec.Kind,
		queries: spec.Queries,
		shards:  len(states),
	}
	switch spec.Kind {
	case sample.KindL1, sample.KindMEstimator, sample.KindLp:
		return buildFramework(states)
	case sample.KindF0:
		return p.buildF0(states)
	case sample.KindF0Oracle:
		return p.buildOracle(states)
	case sample.KindMatrixRowsL1, sample.KindMatrixRowsL2:
		return p.buildMatrix(states)
	case sample.KindTurnstileF0:
		return p.buildTurnstile(states)
	case sample.KindMultipassLp:
		return p.buildMultipass(states)
	case sample.KindWindowMEstimator, sample.KindWindowLp,
		sample.KindWindowF0, sample.KindWindowTukey:
		return nil, fmt.Errorf("snap: %v snapshots: %w", spec.Kind, ErrWindowMergeUnsupported)
	case sample.KindRandOrderL2, sample.KindRandOrderLp:
		return nil, fmt.Errorf("snap: %v snapshots: %w", spec.Kind, ErrRandOrderMergeUnsupported)
	case sample.KindTukey:
		return nil, fmt.Errorf("snap: %v snapshots do not merge (the Tukey rejection layer needs a per-shard split of its coin stream)", spec.Kind)
	}
	return nil, fmt.Errorf("snap: unsupported kind %v", spec.Kind)
}

// PoolPlan wires the m_j/m mixture over framework pools the caller
// already holds: the per-pool stream masses m_j are read now, every
// trial is normalized by the one global increment bound zeta, and
// queries is the provisioned group count. It is the framework half of
// BuildMergePlan without the decode — shard.Coordinator builds its
// cached query plan over its drained worker pools with it. The trials
// flip each pool's own coin stream, so the pools' PCGs advance as
// groups materialize, exactly as the pools' snapshots record. The plan
// reads the pools whenever it materializes groups (Materialize, or
// DrawK past the materialized prefix), so the caller must keep them
// idle across those calls; draws within the materialized prefix never
// touch them.
func PoolPlan(pools []*core.GSampler, zeta float64, queries int) *MergePlan {
	p := &MergePlan{
		queries: queries,
		shards:  len(pools),
		budget:  pools[0].GroupSize(),
		zeta:    zeta,
		pools:   pools,
		coins:   make([]*rng.PCG, len(pools)),
		lens:    make([]int64, len(pools)),
	}
	for j, pool := range pools {
		p.coins[j] = pool.Coins()
		p.lens[j] = pool.StreamLen()
		p.total += p.lens[j]
	}
	return p
}

// Kind returns the merged kind the plan answers for.
func (p *MergePlan) Kind() sample.Kind { return p.kind }

// Shards returns the number of merged snapshots.
func (p *MergePlan) Shards() int { return p.shards }

// StreamLen returns the total stream mass Σ m_j across snapshots.
func (p *MergePlan) StreamLen() int64 { return p.total }

// Queries returns the provisioned query-group count (1 for the matrix
// and single-sampler kinds; for a plan over summaries, the fewest
// groups any summary covers).
func (p *MergePlan) Queries() int {
	if p.single != nil || p.matrix != nil {
		return 1
	}
	return p.queries
}

// Merged wraps the plan in a sample.Sampler whose mixture stream
// starts at seed and advances across calls — the value MergeStates
// returns. Several Merged views may share one plan; the single-sampler
// kinds restore their own sampler here so successive calls on one
// Merged advance it exactly as the pre-plan implementation did.
func (p *MergePlan) Merged(seed uint64) (*Merged, error) {
	m := &Merged{plan: p, src: rng.New(seed ^ mergeSeedMix)}
	if p.single != nil {
		s, err := sample.FromState(*p.single)
		if err != nil {
			return nil, err
		}
		m.single = s
	}
	return m, nil
}

// SampleK answers one query from the plan: up to k mutually
// independent merged samples (clamped to the provisioned group count)
// whose mixture draws come from qseed alone. Equal qseeds replay equal
// answers against an unchanged plan — a fresh qseed per query is the
// caller's side of the contract (sample/serve's aggregator derives one
// from its query counter). The single-sampler kinds take their
// randomness from the restored sampler's own frozen stream, so qseed
// does not vary their answer; independence across their queries
// returns as the fleet's state moves, as before.
func (p *MergePlan) SampleK(qseed uint64, k int) ([]sample.Outcome, int) {
	return p.DrawK(rng.New(qseed^mergeSeedMix), k)
}

// Draw is SampleK for a single sample: the item and ok=false on FAIL.
func (p *MergePlan) Draw(qseed uint64) (sample.Outcome, bool) {
	outs, n := p.SampleK(qseed, 1)
	if n == 0 {
		return sample.Outcome{}, false
	}
	return outs[0], true
}

// DrawK is the one mixture draw every query path runs: SampleK with
// the mixture coins taken from src, which the caller owns for the
// duration of the call. SampleK seeds src from qseed, a Merged view
// passes its advancing stream, and shard.Coordinator passes the
// request's split of its own mixture RNG. The single-sampler kinds
// restore a fresh sampler from the merged state and ignore src.
//
// A plan over pools that keep ingesting (PoolPlan) must have been
// materialized to at least k groups while its pools were still idle:
// DrawK then only reads the frozen acceptance tables.
func (p *MergePlan) DrawK(src *rng.PCG, k int) ([]sample.Outcome, int) {
	if k < 1 {
		panic("snap: SampleK needs k ≥ 1")
	}
	switch {
	case p.single != nil:
		p.mu.Lock()
		defer p.mu.Unlock()
		s, err := sample.FromState(*p.single)
		if err != nil {
			// Unreachable: BuildMergePlan restored this exact state.
			return nil, 0
		}
		return s.SampleK(k)
	case p.matrix != nil:
		return p.sampleMatrix(src)
	}
	if k > p.queries {
		k = p.queries
	}
	if p.total == 0 {
		outs := make([]sample.Outcome, k)
		for i := range outs {
			outs[i] = sample.Outcome{Bottom: true}
		}
		return outs, k
	}
	groups := p.materialize(k)
	used := make([]int, p.shards)
	outs := make([]sample.Outcome, 0, k)
	for _, group := range groups {
		if out, ok := p.mergeGroup(src, used, group); ok {
			outs = append(outs, out)
		}
	}
	return outs, len(outs)
}

func (p *MergePlan) sampleMatrix(src *rng.PCG) ([]sample.Outcome, int) {
	// Matrix samplers provision one query (their instances form one
	// shared trial pool); SampleK degrades to a single draw like the
	// in-process adapter's.
	if p.total == 0 {
		return []sample.Outcome{{Bottom: true}}, 1
	}
	used := make([]int, len(p.matrix))
	flip := func(pr float64) bool { return src.Bernoulli(pr) }
	for t := 0; t < p.budget; t++ {
		j := drawSnapshot(src, p.lens, p.total)
		row, ok := p.matrix[j].Trial(used[j], flip)
		used[j]++
		if ok {
			return []sample.Outcome{{Item: row, Freq: -1}}, 1
		}
	}
	return nil, 0
}

// Materialize flips the coins of groups [0, k) of every pool's trials
// and keeps, per pool and group, every acceptance in index order: a
// draw reads the first, a node's summary (Summary) ships them all.
// Groups are always filled in increasing order, so each pool's coin
// consumption is a deterministic function of the pool states alone —
// two plans built from equal states answer equal draws for equal
// qseeds, which is what makes the aggregator's cached plan
// bit-for-bit reproducible. A plan over live pools (PoolPlan) must be
// materialized while they are idle; DrawK materializes on demand
// otherwise.
func (p *MergePlan) Materialize(k int) { p.materialize(k) }

// materialize is Materialize returning the stable, capacity-capped
// prefix of k group tables.
func (p *MergePlan) materialize(k int) [][][]core.Acceptance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cap(p.groups) < k {
		p.groups = slices.Grow(p.groups, k-len(p.groups))
	}
	ends := make([]int, len(p.pools))
	for q := len(p.groups); q < k; q++ {
		// One backing array per group, cut into per-pool runs.
		var accs []core.Acceptance
		for j, pool := range p.pools {
			accs = pool.Acceptances(q, p.zeta, p.coins[j], accs)
			ends[j] = len(accs)
		}
		group := make([][]core.Acceptance, len(p.pools))
		start := 0
		for j, end := range ends {
			group[j] = accs[start:end:end]
			start = end
		}
		p.groups = append(p.groups, group)
	}
	return p.groups[:k:k]
}

// mergeGroup runs the m_j/m mixture over one group's materialized
// trials: trial t consumes the next unused instance of a pool drawn
// with probability m_j/m, and the first acceptance wins — exactly the
// single-machine pool law (see the sample/shard package comment). The
// trial it lands on accepts iff it is that pool's first acceptance,
// since every earlier trial of the pool rejected, so the pool's later
// acceptances can never reach an answer. Trials are independent of the
// draw sequence, so the output law is unchanged by the eager
// materialization. src and used are per-request state, so concurrent
// draws share one plan.
func (p *MergePlan) mergeGroup(src *rng.PCG, used []int, group [][]core.Acceptance) (sample.Outcome, bool) {
	clear(used)
	for t := 0; t < p.budget; t++ {
		j := drawSnapshot(src, p.lens, p.total)
		if accs := group[j]; len(accs) > 0 && used[j] == accs[0].At {
			return sample.Outcome{Item: accs[0].Item, Freq: accs[0].AfterCount}, true
		}
		used[j]++
	}
	return sample.Outcome{}, false
}

// bitsUsed reports the live size of the plan's merged structure,
// excluding any single-sampler restore (Merged adds its own).
func (p *MergePlan) bitsUsed() int64 {
	var b int64 = 256
	for _, s := range p.matrix {
		b += s.BitsUsed()
	}
	for _, pool := range p.pools {
		b += pool.BitsUsed()
	}
	return b
}
