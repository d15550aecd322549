package snap

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/rng"
	"repro/internal/wire"
	"repro/sample"
)

// Summary is everything a global query needs from one node of a
// framework-kind fleet (L1, M-estimator, Lp): the spec its pools were
// built with, its increment bound ζ_j, each pool's stream mass m_j, and
// per query group and pool every accepted trial, in index order. The
// m_j/m mixture walks a pool's trials in order until the first
// acceptance (MergePlan's draw), so a pool reaches an answer only
// through its accepted trials; the rejected ones need not travel.
//
// A node serves the summary of the plan its local queries share
// (shard.Coordinator.Summary), so a node's local and global answers
// from one plan instance read the same trials. PlanSummaries mixes the
// summaries of a fleet under one ζ = max_j ζ_j, thinning node j's
// acceptances with Bernoulli(ζ_j/ζ) coins: a trial then accepts with
// probability Inc(c)/ζ_j · ζ_j/ζ = Inc(c)/ζ, independently of every
// other trial, which is the per-trial law a plan over the fetched
// pools would have.
//
// A Summary built by MergePlan.Summary shares its tables with the
// plan; neither may be modified.
type Summary struct {
	// Spec is the per-pool sampler spec (the spec
	// shard.CoordinatorState.SamplerStates gives every shard).
	Spec sample.Spec
	// Zeta is ζ_j, the increment bound every acceptance was flipped
	// against.
	Zeta float64
	// Lens holds each pool's stream mass m_j.
	Lens []int64
	// Groups[q][j] lists pool j's accepted trials in query group q.
	Groups [][][]core.Acceptance

	plan *MergePlan // the plan instance it was read from; nil when decoded
}

// Summary returns the plan's summary under spec: its ζ, its masses and
// every group materialized so far. It shares the plan's immutable
// tables, so it costs no copy; a plan over pools that keep ingesting
// must be materialized while they are idle, as for DrawK.
func (p *MergePlan) Summary(spec sample.Spec) *Summary {
	p.mu.Lock()
	groups := p.groups[:len(p.groups):len(p.groups)]
	p.mu.Unlock()
	return &Summary{Spec: spec, Zeta: p.zeta, Lens: p.lens, Groups: groups, plan: p}
}

// SamePlan reports whether s and o were read from one plan instance:
// then every group both cover holds the same acceptances. Decoded
// summaries belong to no plan.
func (s *Summary) SamePlan(o *Summary) bool {
	return s.plan != nil && s.plan == o.plan
}

// Covers reports whether the summary answers a k-sample query: it
// holds at least min(k, Spec.Queries) groups.
func (s *Summary) Covers(k int) bool {
	return len(s.Groups) >= min(k, s.Spec.Queries)
}

// summaryMagic opens every encoded summary; it is not a snapshot, so it
// does not share the snapshot preamble.
var summaryMagic = [4]byte{'T', 'P', 'S', 'Q'}

const summaryVersion = 1

// maxSummaryTrials bounds T·Queries for a decoded spec. Entries are
// bounded by the bytes that carry them, but a draw walks up to T trials
// per group whatever the summary holds, and no node holds a pool of
// more than 2³⁰ instances.
const maxSummaryTrials = 1 << 30

// Encode serializes the summary:
//
//	magic   "TPSQ", version 1, sample.Kind   6 bytes
//	spec    the snapshot codec's spec record
//	ζ_j     IEEE-754 bits
//	pools   count, then m_j per pool
//	groups  count, then per group and pool: an entry count and per
//	        entry the index gap to the previous entry, item, after-count
func (s *Summary) Encode() []byte {
	w := &wire.Writer{}
	w.Raw(summaryMagic[:])
	w.U8(summaryVersion)
	w.U8(uint8(s.Spec.Kind))
	putSpec(w, s.Spec)
	w.F64(s.Zeta)
	w.Uvarint(uint64(len(s.Lens)))
	for _, m := range s.Lens {
		w.Varint(m)
	}
	w.Uvarint(uint64(len(s.Groups)))
	for _, group := range s.Groups {
		for _, accs := range group {
			w.Uvarint(uint64(len(accs)))
			prev := -1
			for _, a := range accs {
				w.Uvarint(uint64(a.At - prev - 1))
				w.Varint(a.Item)
				w.Varint(a.AfterCount)
				prev = a.At
			}
		}
	}
	return w.Bytes()
}

// DecodeSummary parses an encoded summary. Like the snapshot decoder it
// never panics and allocates O(len(data)): every count is checked
// against the bytes left, and against the spec — groups ≤ Queries,
// entries per pool and group ≤ T with indices strictly increasing in
// [0, T), after-counts inside the pool's mass — and the masses must be
// non-negative without overflowing their sum, ζ_j finite and positive.
func DecodeSummary(data []byte) (*Summary, error) {
	bad := func(format string, args ...any) (*Summary, error) {
		return nil, fmt.Errorf("snap: summary: "+format, args...)
	}
	r := wire.NewReader(data)
	magic := r.Raw(len(summaryMagic))
	if r.Err() == nil && string(magic) != string(summaryMagic[:]) {
		return bad("bad magic %q", magic)
	}
	if v := r.U8(); r.Err() == nil && v != summaryVersion {
		return bad("unsupported version %d", v)
	}
	kind := sample.Kind(r.U8())
	s := &Summary{Spec: specR(r, kind), Zeta: r.F64()}
	if r.Err() != nil {
		return nil, fmt.Errorf("snap: summary: %w", r.Err())
	}
	budget, err := summaryBudget(s.Spec)
	if err != nil {
		return nil, err
	}
	if !(s.Zeta > 0) || math.IsInf(s.Zeta, 0) {
		return bad("ζ %v is not finite and positive", s.Zeta)
	}
	pools := r.Count(1)
	if r.Err() == nil && pools < 1 {
		return bad("no pools")
	}
	s.Lens = make([]int64, pools)
	var total int64
	for j := range s.Lens {
		m := r.Varint()
		if m < 0 || m > math.MaxInt64-total {
			return bad("pool %d mass %d is negative or overflows the total", j, m)
		}
		s.Lens[j], total = m, total+m
	}
	groups := r.Count(pools)
	if groups > s.Spec.Queries {
		return bad("%d groups, spec provisions %d", groups, s.Spec.Queries)
	}
	s.Groups = make([][][]core.Acceptance, groups)
	for q := range s.Groups {
		group := make([][]core.Acceptance, pools)
		for j := range group {
			n := r.Count(3)
			if n > budget {
				return bad("group %d pool %d: %d acceptances, T is %d", q, j, n, budget)
			}
			if n == 0 {
				continue
			}
			accs := make([]core.Acceptance, n)
			at := -1
			for e := range accs {
				gap := r.Uvarint()
				if gap >= uint64(budget) || at+1+int(gap) >= budget {
					return bad("group %d pool %d: trial index past T = %d", q, j, budget)
				}
				at += 1 + int(gap)
				accs[e] = core.Acceptance{At: at, Item: r.Varint(), AfterCount: r.Varint()}
				if c := accs[e].AfterCount; c < 0 || c >= s.Lens[j] {
					return bad("group %d pool %d: after-count %d outside pool mass %d", q, j, c, s.Lens[j])
				}
			}
			group[j] = accs
		}
		s.Groups[q] = group
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("snap: summary: %w", err)
	}
	return s, nil
}

// summaryBudget returns the trial budget T of a framework-kind spec:
// every pool's group size, and the mixture's trial count per group.
func summaryBudget(spec sample.Spec) (int, error) {
	if err := sample.ValidateSpec(spec); err != nil {
		return 0, err
	}
	var t int
	switch spec.Kind {
	case sample.KindL1:
		t = core.InstancesForMeasure(measure.Lp{P: 1}, 1, spec.Delta)
	case sample.KindLp:
		t = core.LpPoolSize(spec.P, spec.N, spec.M, spec.Delta)
	case sample.KindMEstimator:
		g, err := sample.MeasureFromSpec(spec.Measure, spec.Tau)
		if err != nil {
			return 0, err
		}
		t = core.InstancesForMeasure(g, spec.M, spec.Delta)
	default:
		return 0, fmt.Errorf("snap: %v does not summarize (framework kinds only)", spec.Kind)
	}
	if t < 1 || t > maxSummaryTrials/spec.Queries {
		return 0, fmt.Errorf("snap: %v spec needs %d×%d trials, beyond %d", spec.Kind, t, spec.Queries, maxSummaryTrials)
	}
	return t, nil
}

// thinSeedMix folds an aggregator's seed into the thinning stream, so
// it never replays the mixture coins drawn from the same seed.
const thinSeedMix = 0x7411a7e5eed07411

// PlanSummaries wires the m_j/m mixture over the summaries of a fleet
// whose nodes partition the items, as the aggregator requires: the same
// compatibility checks as BuildMergePlan, one pool per summarized pool,
// and one ζ = max_j ζ_j — a valid bound for the union because ‖f‖∞ is
// the largest node's. Node j's acceptances are thinned with
// Bernoulli(ζ_j/ζ) coins from a stream seeded by seed, in group, node,
// pool and index order, and each pool-group keeps its first survivor:
// the first acceptance under ζ, which is all a draw reads. Where every
// ζ_j equals ζ (every kind but Lp with p > 1) no coin is drawn. The
// plan covers the fewest groups any summary holds; equal summaries and
// an equal seed give equal plans.
func PlanSummaries(seed uint64, sums ...*Summary) (*MergePlan, error) {
	if len(sums) == 0 {
		return nil, fmt.Errorf("snap: nothing to merge")
	}
	specs := make([]sample.Spec, len(sums))
	for i, s := range sums {
		specs[i] = s.Spec
	}
	if err := compatibleSpecs(specs); err != nil {
		return nil, err
	}
	spec := sums[0].Spec
	budget, err := summaryBudget(spec)
	if err != nil {
		return nil, err
	}
	p := &MergePlan{kind: spec.Kind, queries: spec.Queries, budget: budget}
	for _, s := range sums {
		p.zeta = max(p.zeta, s.Zeta)
		p.queries = min(p.queries, len(s.Groups))
		for _, m := range s.Lens {
			if m > math.MaxInt64-p.total {
				return nil, fmt.Errorf("snap: summary stream masses overflow int64")
			}
			p.total += m
			p.lens = append(p.lens, m)
		}
	}
	p.shards = len(p.lens)
	thin := rng.New(seed ^ thinSeedMix)
	p.groups = make([][][]core.Acceptance, p.queries)
	for q := range p.groups {
		group := make([][]core.Acceptance, 0, p.shards)
		for _, s := range sums {
			keep := s.Zeta / p.zeta
			for _, accs := range s.Groups[q] {
				group = append(group, firstSurvivor(accs, keep, thin))
			}
		}
		p.groups[q] = group
	}
	return p, nil
}

// firstSurvivor thins accs with Bernoulli(keep) coins and returns the
// first kept entry alone, or nothing.
func firstSurvivor(accs []core.Acceptance, keep float64, thin *rng.PCG) []core.Acceptance {
	for i := range accs {
		if thin.Bernoulli(keep) {
			return accs[i : i+1 : i+1]
		}
	}
	return nil
}

// Summarize is the summary of one framework-kind state over all its
// groups, as a node holding the restored pool would serve it: ζ_j is
// the pool's own bound and the trials flip a copy of the pool's PCG,
// so the state is left as it was and equal states summarize equally.
// The aggregator summarizes the states of nodes that serve only
// snapshots this way. It returns nil and no error for every other kind.
func Summarize(st sample.State) (*Summary, error) {
	pools, err := RestorePools([]sample.State{st})
	if err != nil || pools == nil {
		return nil, err
	}
	h := pools[0].h
	coins := *h.Pool.Coins()
	p := PoolPlan([]*core.GSampler{h.Pool}, boundZeta(st.Spec, h.G, h.NormalizerBound, h.Pool.StreamLen()), st.Spec.Queries)
	p.coins[0] = &coins
	p.Materialize(st.Spec.Queries)
	sum := p.Summary(st.Spec)
	sum.plan = nil // the restored pool is not needed once its trials are read
	return sum, nil
}

// CompatibleSpecs reports whether samplers with these specs merge: nil,
// or the refusal Merge, BuildMergePlan and PlanSummaries return for
// them. Identical constructor parameters are required, including the
// seed for the F0 kinds (a state union over shared random structure)
// and excluding it for the framework kinds (whose mixture wants
// independent pools).
func CompatibleSpecs(specs ...sample.Spec) error {
	if len(specs) == 0 {
		return nil
	}
	return compatibleSpecs(specs)
}
