package snap

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/matrixsampler"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/sample"
)

// ErrWindowMergeUnsupported is returned (wrapped, with the refusing
// kind in the message) when Merge is handed sliding-window snapshots.
// The refusal is principled, not a missing feature: a window sampler's
// state is indexed by its *own* stream's clock (positions within the
// last W updates it saw), and the m_j/m mixture argument needs the
// shards to partition one stream with one global notion of "the last W
// updates" — which independent per-machine clocks do not provide. See
// ROADMAP.md "Window-sampler merge semantics" for the shared-clock
// contract a future merge would need. Callers that aggregate snapshots
// from many machines (sample/serve's aggregator) match it with
// errors.Is to report the refusal cleanly instead of retrying.
var ErrWindowMergeUnsupported = errors.New(
	"window snapshots do not merge (a sliding window is local to its own stream's clock)")

// ErrRandOrderMergeUnsupported is returned (wrapped, with the refusing
// kind in the message) when Merge is handed random-order snapshots.
// Like the window refusal this is principled, not a missing feature:
// the random-order samplers' guarantee is conditioned on one uniformly
// shuffled arrival order over the *whole* stream, and their state
// (reservoir positions, the Lp block frequencies) is indexed by that
// single stream's clock. Independent shards each see a uniform order
// over their own substream, but an interleaving of per-shard uniform
// orders is not a uniform order over the union — the m_j/m mixture has
// no analogue here. Aggregators match it with errors.Is to report the
// refusal cleanly (HTTP 422 in sample/serve) instead of retrying.
var ErrRandOrderMergeUnsupported = errors.New(
	"random-order snapshots do not merge (the uniform-order guarantee is local to one stream's arrival clock)")

// Merged is the truly perfect global sampler produced by Merge: a
// query-only sample.Sampler whose output law over the union of the
// snapshotted streams is exactly the law one sampler would have had on
// the concatenated stream. Its mixture weights are frozen at merge
// time, so it does not ingest — Process and ProcessBatch panic.
//
// A Merged is a seeded view over a MergePlan: the plan holds
// everything query-seed-independent (pools, masses, ζ, trial tables,
// state unions), the view holds the advancing mixture stream — and,
// for the single-sampler kinds, its own restored sampler, so repeated
// calls on one Merged advance it like any live sampler.
type Merged struct {
	plan   *MergePlan
	src    *rng.PCG
	single sample.Sampler
}

// Merge combines snapshots taken on disjoint shards of a stream into
// one queryable truly perfect global sampler. All snapshots must come
// from samplers built with the same constructor parameters; seed is
// the merged sampler's own randomness for the mixture draws.
//
// Three kinds of exact merges are supported:
//
//   - KindL1 / KindMEstimator / KindLp: the m_j/m shard mixture over
//     per-snapshot framework pools (the sample/shard merge run across
//     process boundaries). Per-shard samplers should use distinct
//     seeds — independence of the per-shard reservoirs is part of the
//     mixture argument. For nonlinear measures (everything except L1)
//     the shards must partition items (each item's occurrences on one
//     shard, as hash routing does); L1's linear G is exact under any
//     split. For Lp with p > 1 the per-snapshot Misra–Gries bounds
//     combine into one global ζ = p·(max_j Z_j)^{p−1}, valid because
//     item-disjoint shards have ‖f‖∞ = max_j ‖f⁽ʲ⁾‖∞.
//   - KindF0: a state-level union — per-repetition tracked sets and
//     subset-witness counts merge exactly (counts are exact and add
//     across shards), so the merged state is a valid Algorithm-5 state
//     for the concatenated stream. This requires all shards to share
//     one seed: the random subset S is the repetition's identity, and
//     union-merging witnesses is only meaningful against the same S.
//   - KindF0Oracle: min-hash composition — the global argmin is the
//     min of per-shard argmins under the shared PRF key (again: one
//     seed across shards).
//   - KindMatrixRowsL1 / KindMatrixRowsL2: the m_j/m mixture over
//     per-shard instance pools, like the framework kinds but driven
//     through matrixsampler.Trial with the merged sampler's own coin
//     stream. Lawful because the row measures' ζ is data-independent
//     and identical on every shard, so each merged trial has exactly
//     the single-machine per-trial acceptance law. Shards should use
//     distinct seeds and partition the entry updates.
//   - KindTurnstileF0: a state-level union — the sparse-recovery
//     syndromes and the exact subset counters are both linear in the
//     updates, so per-repetition states absorb into exactly the
//     repetition of the concatenated stream. Requires one shared seed
//     (the random subset is the repetition's identity).
//   - KindMultipassLp: exact concatenation — the buffered update
//     streams append, and the restored sampler replays the union from
//     scratch. Seeds need not match (the survivor's seed drives the
//     fresh passes).
//
// Window, random-order and Tukey kinds do not merge: a sliding window
// is local to its own stream's clock (the typed sentinel
// ErrWindowMergeUnsupported reports that refusal), the random-order
// guarantee is conditioned on one global uniform arrival order that
// independent shards cannot provide (ErrRandOrderMergeUnsupported),
// and the Tukey rejection layer would need a shared F0 mixture the
// attempt-pool structure does not expose.
func Merge(seed uint64, snapshots ...[]byte) (*Merged, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("snap: nothing to merge")
	}
	states := make([]sample.State, len(snapshots))
	for i, b := range snapshots {
		st, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		states[i] = st
	}
	return MergeStates(seed, states...)
}

// MergeStates is Merge on already-decoded states: the half the
// sample/serve aggregator builds on, where per-node coordinator
// snapshots are exploded into per-shard sampler states
// (shard.SamplerStates) before the mixture is wired. The exactness
// argument, the per-kind compatibility rules, and the refusal errors
// are identical to Merge's. It is BuildMergePlan followed by
// MergePlan.Merged — callers answering many queries over one fleet
// state should cache the plan instead (the aggregator does).
func MergeStates(seed uint64, states ...sample.State) (*Merged, error) {
	p, err := BuildMergePlan(states...)
	if err != nil {
		return nil, err
	}
	return p.Merged(seed)
}

// compatibleSpecs demands identical constructor parameters across all
// snapshots — identical including the seed for the F0 kinds (whose
// merge is a state union over shared random structure), excluding the
// seed for the framework kinds (whose mixture argument wants
// independent per-shard pools).
func compatibleSpecs(states []sample.State) error {
	ref := states[0].Spec
	refNoSeed := ref
	refNoSeed.Seed = 0
	seedMatters := ref.Kind == sample.KindF0 || ref.Kind == sample.KindF0Oracle ||
		ref.Kind == sample.KindTurnstileF0
	for i, st := range states[1:] {
		spec := st.Spec
		if seedMatters && spec.Seed != ref.Seed {
			return fmt.Errorf("snap: %v merge needs a shared seed, snapshot %d differs", ref.Kind, i+1)
		}
		spec.Seed = 0
		if spec != refNoSeed {
			return fmt.Errorf("snap: snapshot %d parameters differ from snapshot 0 (%+v vs %+v)",
				i+1, spec, refNoSeed)
		}
	}
	return nil
}

// buildFramework restores each snapshot's sampler and wires the m_j/m
// mixture over their pools.
func buildFramework(states []sample.State) (*MergePlan, error) {
	spec := states[0].Spec
	pools := make([]*core.GSampler, len(states))
	var total, maxBound int64
	var g sample.Measure
	for j, st := range states {
		s, err := sample.FromState(st)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", j, err)
		}
		h, ok := sample.MergeHandle(s)
		if !ok {
			return nil, fmt.Errorf("snapshot %d: %v is not a framework kind", j, spec.Kind)
		}
		pools[j] = h.Pool
		if h.Pool.StreamLen() > math.MaxInt64-total {
			return nil, fmt.Errorf("snap: snapshot stream masses overflow int64")
		}
		total += h.Pool.StreamLen()
		if h.NormalizerBound > maxBound {
			maxBound = h.NormalizerBound
		}
		g = h.G
	}
	// One global ζ for every trial of every pool. For Lp with p > 1 it
	// comes from the per-snapshot Misra–Gries bounds (max over
	// item-disjoint shards: ‖f‖∞ = max_j ‖f⁽ʲ⁾‖∞ ≤ max_j Z_j);
	// everywhere else the measure's own bound at the total stream mass
	// is valid and data-independent.
	var zeta float64
	if spec.Kind == sample.KindLp && spec.P > 1 {
		zeta = spec.P * math.Pow(float64(max(maxBound, 1)), spec.P-1)
	} else {
		zeta = g.Zeta(max(total, 1))
	}
	p := PoolPlan(pools, zeta, spec.Queries)
	p.kind = spec.Kind
	return p, nil
}

// buildF0 union-merges the per-repetition states; draws restore a
// sampler over the merged state.
func (p *MergePlan) buildF0(states []sample.State) (*MergePlan, error) {
	spec := states[0].Spec
	base := states[0].F0Pool
	merged := f0.PoolState{GroupSize: base.GroupSize, Reps: make([]f0.SamplerState, len(base.Reps))}
	capT, _ := f0.UniverseSizes(spec.N)
	for i := range base.Reps {
		reps := make([]f0.SamplerState, len(states))
		for j, st := range states {
			if len(st.F0Pool.Reps) != len(base.Reps) {
				return nil, fmt.Errorf("snap: snapshot %d has %d repetitions, snapshot 0 has %d",
					j, len(st.F0Pool.Reps), len(base.Reps))
			}
			reps[j] = st.F0Pool.Reps[i]
		}
		rep, err := mergeF0Reps(capT, reps)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		merged.Reps[i] = rep
	}
	return p.installSingle(sample.State{Spec: spec, F0Pool: &merged})
}

// mergeF0Reps merges one repetition across shards: exact counts add,
// the tracked union stays authoritative only while no shard
// overflowed and the union itself fits.
func mergeF0Reps(capT int, reps []f0.SamplerState) (f0.SamplerState, error) {
	out := f0.SamplerState{RngHi: reps[0].RngHi, RngLo: reps[0].RngLo}
	sCounts := make(map[int64]int64, len(reps[0].S))
	for _, e := range reps[0].S {
		sCounts[e.Item] = 0
	}
	tCounts := make(map[int64]int64)
	for _, rep := range reps {
		out.M += rep.M
		if rep.TFull {
			out.TFull = true
		}
		if len(rep.S) != len(sCounts) {
			return f0.SamplerState{}, fmt.Errorf("snap: subset sizes differ across snapshots")
		}
		for _, e := range rep.S {
			if _, ok := sCounts[e.Item]; !ok {
				return f0.SamplerState{}, fmt.Errorf("snap: random subsets differ across snapshots (F0 merge needs a shared seed)")
			}
			sCounts[e.Item] += e.Count
		}
		for _, e := range rep.T {
			tCounts[e.Item] += e.Count
		}
	}
	if !out.TFull && len(tCounts) > capT {
		out.TFull = true
	}
	out.T = f0.SortedItemCounts(tCounts)
	if len(out.T) > capT {
		// The tracked set is no longer consulted once full; keep the
		// state within the structure's capacity.
		out.T = out.T[:capT]
	}
	out.S = f0.SortedItemCounts(sCounts)
	return out, nil
}

// buildOracle composes min-hash states: the global argmin is the min
// of per-shard argmins under the shared PRF key.
func (p *MergePlan) buildOracle(states []sample.State) (*MergePlan, error) {
	spec := states[0].Spec
	out := *states[0].F0Oracle
	out.M, out.Freq, out.Seen = 0, 0, false
	for _, st := range states {
		o := st.F0Oracle
		out.M += o.M
		if !o.Seen {
			continue
		}
		if !out.Seen || o.Hash < out.Hash {
			out.Item, out.Hash, out.Freq, out.Seen = o.Item, o.Hash, o.Freq, true
		} else if o.Item == out.Item {
			// Same argmin on several shards (non-disjoint items): its
			// exact count is the sum of the per-shard counts.
			out.Freq += o.Freq
		}
	}
	return p.installSingle(sample.State{Spec: spec, F0Oracle: &out})
}

// buildMatrix restores each snapshot's matrix sampler and wires the
// m_j/m mixture over their instance pools. The trial budget is one
// shard's instance count r (identical across shards by compatibleSpecs)
// — exactly the single-machine sampler's trial count per query.
func (p *MergePlan) buildMatrix(states []sample.State) (*MergePlan, error) {
	p.matrix = make([]*matrixsampler.Sampler, len(states))
	p.lens = make([]int64, len(states))
	for j, st := range states {
		s, err := sample.FromState(st)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", j, err)
		}
		h, ok := sample.MatrixMergeHandle(s)
		if !ok {
			return nil, fmt.Errorf("snapshot %d: %v is not a matrix kind", j, st.Spec.Kind)
		}
		p.matrix[j] = h
		p.lens[j] = h.StreamLen()
		if p.lens[j] > math.MaxInt64-p.total {
			return nil, fmt.Errorf("snap: snapshot stream masses overflow int64")
		}
		p.total += p.lens[j]
		if j == 0 {
			p.budget = h.InstanceCount()
		}
	}
	return p, nil
}

// buildTurnstile union-merges the strict-turnstile pools (syndromes
// add in the field, exact counters add, stream lengths add —
// everything is linear in the updates) and re-exports the absorbed
// state as the plan's merged state.
func (p *MergePlan) buildTurnstile(states []sample.State) (*MergePlan, error) {
	s, err := sample.FromState(states[0])
	if err != nil {
		return nil, fmt.Errorf("snapshot 0: %w", err)
	}
	pool, ok := sample.TurnstileMergeHandle(s)
	if !ok {
		return nil, fmt.Errorf("snapshot 0: %v is not the turnstile kind", states[0].Spec.Kind)
	}
	for j, st := range states[1:] {
		sj, err := sample.FromState(st)
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", j+1, err)
		}
		pj, ok := sample.TurnstileMergeHandle(sj)
		if !ok {
			return nil, fmt.Errorf("snapshot %d: %v is not the turnstile kind", j+1, st.Spec.Kind)
		}
		if err := pool.Absorb(pj); err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", j+1, err)
		}
	}
	st, err := s.(sample.Stateful).SnapState()
	if err != nil {
		return nil, err
	}
	p.single = &st
	p.total = s.StreamLen()
	return p, nil
}

// buildMultipass concatenates the buffered update streams — an exact
// merge by definition, since the multipass sampler replays its buffer
// from scratch on every query — and keeps the union as the plan's
// merged state.
func (p *MergePlan) buildMultipass(states []sample.State) (*MergePlan, error) {
	var updates []stream.Update
	for j, st := range states {
		if st.Multipass == nil {
			return nil, fmt.Errorf("snapshot %d: %v state missing its payload", j, st.Spec.Kind)
		}
		updates = append(updates, st.Multipass.Updates...)
	}
	return p.installSingle(sample.State{Spec: states[0].Spec,
		Multipass: &sample.MultipassState{Updates: updates}})
}

// installSingle validates a merged single-sampler state by restoring
// it once (which also yields the merged stream mass) and caches the
// state for per-draw restores.
func (p *MergePlan) installSingle(st sample.State) (*MergePlan, error) {
	s, err := sample.FromState(st)
	if err != nil {
		return nil, err
	}
	p.single = &st
	p.total = s.StreamLen()
	return p, nil
}

// Kind returns the merged sampler's kind.
func (m *Merged) Kind() sample.Kind { return m.plan.kind }

// Shards returns the number of merged snapshots.
func (m *Merged) Shards() int { return m.plan.shards }

// StreamLen returns the total stream mass Σ m_j across snapshots.
func (m *Merged) StreamLen() int64 { return m.plan.total }

// Process panics: a merged sampler is query-only (its mixture weights
// are frozen at merge time).
func (m *Merged) Process(int64) { panic("snap: merged sampler is query-only") }

// ProcessBatch panics: a merged sampler is query-only.
func (m *Merged) ProcessBatch([]int64) { panic("snap: merged sampler is query-only") }

// Sample returns an item with exactly the law a single truly perfect
// sampler would have on the concatenated stream, ok=false on FAIL.
func (m *Merged) Sample() (sample.Outcome, bool) {
	outs, n := m.SampleK(1)
	if n == 0 {
		return sample.Outcome{}, false
	}
	return outs[0], true
}

// SampleK returns up to k mutually independent merged samples, one per
// provisioned query group (k is clamped like everywhere else in the
// library). An empty merged stream succeeds with k ⊥ outcomes.
func (m *Merged) SampleK(k int) ([]sample.Outcome, int) {
	if k < 1 {
		panic("snap: SampleK needs k ≥ 1")
	}
	if m.single != nil {
		return m.single.SampleK(k)
	}
	return m.plan.DrawK(m.src, k)
}

// drawSnapshot picks snapshot (or shard) j with probability
// lens[j]/total by drawing a uniform global stream position. The draw
// is 64-bit (rng.Int63n): stream masses beyond 2³¹ must not truncate
// on 32-bit platforms, where an int-width draw would corrupt the
// mixture weights.
func drawSnapshot(src *rng.PCG, lens []int64, total int64) int {
	x := src.Int63n(total)
	for j, l := range lens {
		if x < l {
			return j
		}
		x -= l
	}
	return len(lens) - 1 // unreachable: Σ lens == total
}

// BitsUsed reports the live size of the merged structure.
func (m *Merged) BitsUsed() int64 {
	if m.single != nil {
		return m.single.BitsUsed()
	}
	return m.plan.bitsUsed()
}
