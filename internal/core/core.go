// Package core implements the paper's primary contribution: the truly
// perfect G-sampler framework for insertion-only streams
// (Framework 1.3, Theorem 3.1, Algorithms 1–2), its Lp instantiations
// (Theorems 3.3–3.5, Theorem 1.4), and its M-estimator instantiations
// (Corollary 3.6).
//
// # Framework
//
// A single sampler instance reservoir-samples a uniformly random stream
// position, holding the item s found there, and counts the number c of
// occurrences of s strictly after that position. At query time the
// instance *accepts* with probability (G(c+1) − G(c))/ζ, where ζ bounds
// every increment of G on the frequencies present. Telescoping over the
// f_i positions of item i,
//
//	P[output = i] = Σ_{j=1}^{f_i} (1/m)·(G(f_i−j+1) − G(f_i−j))/ζ = G(f_i)/(ζm),
//
// so conditioned on acceptance the output is *exactly* G(f_i)/F_G —
// no 1/poly(n) additive error anywhere, which is the paper's whole
// point. A pool of R = Θ((ζm/F̂_G)·log(1/δ)) independent instances
// makes FAIL rare.
//
// # O(1) update time
//
// The pool does O(1) expected work per stream update (§3.1's hash-table
// remark, and the paper's headline improvement over the n^{Θ(c)} update
// time of earlier perfect samplers):
//
//   - each instance's reservoir replacements are scheduled with
//     skip-ahead sampling (Algorithm L), so an instance replaces its
//     sample only O(log m) times over the stream; a min-heap on the next
//     replacement position makes non-replacing updates free for every
//     instance;
//   - occurrence counting is shared: a hash table maps each currently
//     tracked item to one running counter; an instance records the
//     counter value at its sampling moment as an offset (the "list of
//     offsets" of §3.1) and reconstructs its own count as
//     counter − offset. An update therefore increments at most one
//     counter no matter how many instances track the item.
package core

import (
	"fmt"
	"math"

	"repro/internal/measure"
	"repro/internal/misragries"
	"repro/internal/rng"
)

// Outcome is a sampler's output (Definition 1.1).
type Outcome struct {
	// Item is the sampled coordinate.
	Item int64
	// AfterCount is c, the number of occurrences of Item strictly after
	// the sampled position — returned because the sampling is
	// position-based, so the paper's "metadata" remark applies: the
	// sampled occurrence is a concrete stream position.
	AfterCount int64
	// Position is the 1-based stream position that was sampled.
	Position int64
	// Bottom is true when the stream was empty (the ⊥ symbol).
	Bottom bool
}

// GSampler is the truly perfect G-sampler of Algorithm 2: a pool of
// parallel Algorithm-1 instances over a shared offset table.
//
// The pool is partitioned into `queries` disjoint *query groups* of
// groupSize instances each (§3.1's "s samples with O(1) update time"
// corollary: memory scales with the pool, update time does not).
// Sample and SampleFrom consume group 0; SampleK draws one
// sample per group, and because the groups share no instances the k
// draws are mutually independent.
type GSampler struct {
	m         measure.Func
	src       *rng.PCG
	zetaFn    func() float64
	insts     []instance
	groupSize int // T: instances per query group; len(insts) = queries·T
	heap      replacementHeap
	tracked   map[int64]*trackEntry
	t         int64
}

type instance struct {
	item   int64
	pos    int64 // 1-based sampled position; 0 = empty
	offset int64 // shared counter value at sampling time
	w      float64
	next   int64 // next replacement position
}

type trackEntry struct {
	count int64 // occurrences of the item since first tracked
	refs  int32 // instances currently tracking the item
}

// NewGSampler returns a pool of r instances sampling with respect to
// measure g. zetaFn is consulted at query time and must return a valid
// increment bound for the realized stream; pass nil to use
// g.Zeta(streamLength), which is always valid for the measures in
// package measure.
func NewGSampler(g measure.Func, r int, seed uint64, zetaFn func() float64) *GSampler {
	return NewGSamplerK(g, r, 1, seed, zetaFn)
}

// NewGSamplerK is NewGSampler provisioned for multi-sample queries: it
// builds `queries` disjoint groups of r instances each (queries·r total)
// so that SampleK(queries) returns up to `queries` mutually independent
// draws per query. Memory scales by the factor `queries`; expected
// update time is unchanged (the shared counting and skip-ahead
// scheduling are pool-size-independent per update).
func NewGSamplerK(g measure.Func, r, queries int, seed uint64, zetaFn func() float64) *GSampler {
	if r < 1 {
		panic("core: need at least one instance")
	}
	if queries < 1 {
		panic("core: need at least one query group")
	}
	total := r * queries
	s := &GSampler{
		m:         g,
		src:       rng.New(seed),
		zetaFn:    zetaFn,
		insts:     make([]instance, total),
		groupSize: r,
		tracked:   make(map[int64]*trackEntry, total),
	}
	s.heap = make(replacementHeap, total)
	for i := range s.insts {
		s.insts[i] = instance{item: -1, w: 1, next: 1}
		s.heap[i] = heapItem{pos: 1, idx: i}
	}
	s.heap.init()
	return s
}

// InstancesForMeasure returns the pool size R = ⌈(ζm/F̂_G)·ln(1/δ)⌉
// prescribed by Theorem 3.1, given the planned stream length m. For the
// M-estimators and L1 this is independent of m; for Lp with p ∈ (0,1) it
// is Θ(m^{1−p} log 1/δ) (Theorem 3.5).
func InstancesForMeasure(g measure.Func, m int64, delta float64) int {
	if m < 1 {
		m = 1
	}
	lb := g.LowerBoundFG(m)
	zeta := g.Zeta(m)
	r := math.Ceil(zeta * float64(m) / lb * math.Log(1/delta))
	if r < 1 {
		r = 1
	}
	return int(r)
}

// Process feeds one insertion-only update. Expected O(1) time.
func (s *GSampler) Process(item int64) {
	s.t++
	// Shared counting: one increment regardless of how many instances
	// track item.
	if e, ok := s.tracked[item]; ok {
		e.count++
	}
	// Scheduled replacements at this position.
	for len(s.heap) > 0 && s.heap[0].pos == s.t {
		idx := s.heap[0].idx
		s.replace(idx, item)
		s.heap.fixTop(s.insts[idx].next)
	}
}

// ProcessBatch feeds a slice of insertion-only updates. It is
// equivalent to calling Process on each item in order — same state,
// same randomness consumption — but amortizes the per-update scheduling
// overhead: between two scheduled replacements (which happen only
// O(R log m) times over the whole stream) an update can only increment
// a shared counter, so the batch path runs those stretches as a tight
// counter-increment loop with no heap peek and no per-call overhead.
func (s *GSampler) ProcessBatch(items []int64) {
	i, n := 0, len(items)
	for i < n {
		// Updates strictly before the next scheduled replacement cannot
		// change any instance; they only bump shared counters.
		gap := s.heap[0].pos - s.t - 1
		run := int64(n - i)
		if gap < run {
			run = gap
		}
		if run < 0 {
			run = 0
		}
		for _, it := range items[i : i+int(run)] {
			if e, ok := s.tracked[it]; ok {
				e.count++
			}
		}
		s.t += run
		i += int(run)
		if i == n {
			return
		}
		// items[i] lands exactly on a replacement position.
		s.Process(items[i])
		i++
	}
}

// replace points instance idx at the current update and schedules its
// next replacement by Algorithm L.
func (s *GSampler) replace(idx int, item int64) {
	inst := &s.insts[idx]
	if inst.pos != 0 {
		old := s.tracked[inst.item]
		old.refs--
		if old.refs == 0 {
			delete(s.tracked, inst.item)
		}
	}
	e, ok := s.tracked[item]
	if !ok {
		e = &trackEntry{}
		s.tracked[item] = e
	}
	e.refs++
	inst.item = item
	inst.pos = s.t
	inst.offset = e.count
	// Algorithm L jump.
	inst.w *= s.src.Float64Open()
	jump := math.Floor(math.Log(s.src.Float64Open())/math.Log1p(-inst.w)) + 1
	if jump < 1 || jump > 1e18 || math.IsNaN(jump) {
		jump = 1e18
	}
	inst.next = s.t + int64(jump)
}

// Sample runs the rejection step of Algorithm 2 on every instance of
// query group 0 and returns the first acceptance. ok is false on FAIL.
// An empty stream returns Outcome{Bottom: true} with ok true (the ⊥
// output of Definition 1.1).
//
// Each call draws fresh rejection coins; calls after the same prefix are
// therefore not independent samples (they share reservoir positions).
// For k independent samples from one pool, construct with NewGSamplerK
// and call SampleK.
func (s *GSampler) Sample() (Outcome, bool) {
	return s.SampleFrom(1)
}

// SampleFrom is Sample restricted to instances whose sampled position is
// at least minPos (1-based, in this sampler's own update numbering). The
// sliding-window sampler (Algorithm 4) uses it to reject samples that
// have expired from the active window: conditioned on the position lying
// in the window, the reservoir position is uniform over the window, so
// the telescoping argument gives the window-restricted law exactly.
func (s *GSampler) SampleFrom(minPos int64) (Outcome, bool) {
	if s.t == 0 {
		return Outcome{Bottom: true}, true
	}
	zeta := s.zeta()
	if out, ok := s.sampleGroup(0, minPos, zeta); ok {
		return out, true
	}
	return Outcome{}, false
}

// SampleK returns up to k mutually independent samples: one draw per
// disjoint query group, each with exactly the single-draw law of Sample.
// The returned slice holds the draws that succeeded, in group order, and
// the int is their count (len of the slice). k is clamped to the
// provisioned query-group count, so a pool built without NewGSamplerK
// yields at most one draw. An empty stream succeeds with k ⊥ outcomes.
//
// Independence is structural: the k draws touch k disjoint instance
// sets, instances' reservoir positions are independent (each runs its
// own Algorithm-L skip sequence), and the rejection coins are fresh per
// instance — so the joint law of the k draws is exactly the product of
// k single-sampler laws.
func (s *GSampler) SampleK(k int) ([]Outcome, int) {
	return s.SampleKFrom(k, 1)
}

// SampleKFrom is SampleK restricted, like SampleFrom, to instances whose
// sampled position is at least minPos.
func (s *GSampler) SampleKFrom(k int, minPos int64) ([]Outcome, int) {
	if k < 1 {
		panic("core: SampleK needs k ≥ 1")
	}
	if q := s.Queries(); k > q {
		k = q
	}
	if s.t == 0 {
		outs := make([]Outcome, k)
		for i := range outs {
			outs[i] = Outcome{Bottom: true}
		}
		return outs, k
	}
	zeta := s.zeta()
	outs := make([]Outcome, 0, k)
	for q := 0; q < k; q++ {
		if out, ok := s.sampleGroup(q, minPos, zeta); ok {
			outs = append(outs, out)
		}
	}
	return outs, len(outs)
}

// sampleGroup runs the rejection step over query group q's instances in
// pool order and returns the first acceptance.
func (s *GSampler) sampleGroup(q int, minPos int64, zeta float64) (Outcome, bool) {
	base := q * s.groupSize
	for i := base; i < base+s.groupSize; i++ {
		if s.insts[i].pos < minPos {
			continue
		}
		if out, ok := s.sampleInstance(i, zeta, s.src); ok {
			return out, true
		}
	}
	return Outcome{}, false
}

// SampleAll returns the outcome of every accepting instance — the
// paper's "s samples with O(1) update time" corollary (§3.1): memory
// scales with the pool, update time does not. The outcomes are i.i.d.
// conditioned on acceptance.
func (s *GSampler) SampleAll() []Outcome {
	if s.t == 0 {
		return nil
	}
	zeta := s.zeta()
	var out []Outcome
	for i := range s.insts {
		if o, ok := s.sampleInstance(i, zeta, s.src); ok {
			out = append(out, o)
		}
	}
	return out
}

// Acceptance is one accepted trial of a query group: At is the
// trial's index inside the group, Item and AfterCount its outcome
// (Outcome.Item and Outcome.AfterCount).
type Acceptance struct {
	At         int
	Item       int64
	AfterCount int64
}

// Acceptances runs the rejection step of Algorithm 2 on every instance
// of query group q, in pool order, normalized by the explicit increment
// bound zeta, and appends every instance that accepted to dst, in
// index order. Every instance flips exactly one coin from src, so src
// advances by the group's full trial count whatever the outcome.
//
// The m_j/m mixture (sample/snap's MergePlan, which also serves
// shard.Coordinator) walks pool j's trials in order and stops at the
// first accepted one, so a local answer reads only the first entry.
// The later entries are what a node ships to an aggregator: thinning
// each with an independent Bernoulli(zeta/ζ) coin turns them into the
// acceptances of the same trials under a larger global bound ζ. Each
// trial carries the exact per-instance law P[accept ∧ item = i] =
// G(f_i)/(ζm), trials are independent, and distinct groups involve
// disjoint instances, so queries built from different groups are
// mutually independent.
//
// zeta overrides the pool's own normalizer: it must be a valid
// increment bound for this pool's realized stream. src is the coin
// source: the pool's own stream (Coins) for a live pool, whose
// snapshots capture it, or a copy of it for a pool several plans
// share, which then reads the pool and never writes it. An empty
// stream appends nothing and flips no coin.
func (s *GSampler) Acceptances(q int, zeta float64, src *rng.PCG, dst []Acceptance) []Acceptance {
	if q < 0 || q >= s.Queries() {
		panic("core: Acceptances group index out of range")
	}
	if s.t == 0 {
		return dst
	}
	base := q * s.groupSize
	for i := 0; i < s.groupSize; i++ {
		if o, ok := s.sampleInstance(base+i, zeta, src); ok {
			dst = append(dst, Acceptance{At: i, Item: o.Item, AfterCount: o.AfterCount})
		}
	}
	return dst
}

// Coins returns the pool's own coin stream: the PCG every query's
// rejection step draws from, captured bit for bit by ExportState.
func (s *GSampler) Coins() *rng.PCG { return s.src }

func (s *GSampler) zeta() float64 {
	if s.zetaFn != nil {
		return s.zetaFn()
	}
	return s.m.Zeta(s.t)
}

func (s *GSampler) sampleInstance(i int, zeta float64, src *rng.PCG) (Outcome, bool) {
	inst := &s.insts[i]
	if inst.pos == 0 {
		return Outcome{}, false
	}
	c := s.tracked[inst.item].count - inst.offset
	acc := s.m.Increment(c) / zeta
	if acc > 1+1e-9 {
		panic(fmt.Sprintf("core: invalid zeta %v < increment %v at c=%d",
			zeta, s.m.Increment(c), c))
	}
	if !src.Bernoulli(acc) {
		return Outcome{}, false
	}
	return Outcome{Item: inst.item, AfterCount: c, Position: inst.pos}, true
}

// Instances returns the total pool size: queries · group size.
func (s *GSampler) Instances() int { return len(s.insts) }

// GroupSize returns T, the per-query-group instance count (the R of
// Theorem 3.1's single-query pool).
func (s *GSampler) GroupSize() int { return s.groupSize }

// Queries returns the number of provisioned disjoint query groups.
func (s *GSampler) Queries() int { return len(s.insts) / s.groupSize }

// StreamLen returns the number of processed updates.
func (s *GSampler) StreamLen() int64 { return s.t }

// BitsUsed reports the live size of the sampler in bits: instances,
// heap, and shared table.
func (s *GSampler) BitsUsed() int64 {
	perInst := int64(5 * 64)
	perHeap := int64(2 * 64)
	perEntry := int64(3 * 64)
	return int64(len(s.insts))*(perInst+perHeap) +
		int64(len(s.tracked))*perEntry + 256
}

// --- replacement heap -------------------------------------------------

// heapItem schedules instance idx to replace its sample at stream
// position pos.
type heapItem struct {
	pos int64
	idx int
}

// replacementHeap is a binary min-heap on pos. It is hand-rolled rather
// than using container/heap to avoid interface boxing on the per-update
// hot path.
type replacementHeap []heapItem

func (h replacementHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// fixTop replaces the top's position with newPos and restores heap
// order: the combined pop+push used on every replacement.
func (h replacementHeap) fixTop(newPos int64) {
	h[0].pos = newPos
	h.siftDown(0)
}

func (h replacementHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].pos < h[small].pos {
			small = l
		}
		if r < n && h[r].pos < h[small].pos {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// --- Lp samplers -------------------------------------------------------

// LpSampler is the truly perfect Lp sampler of Theorem 3.3. For
// p ∈ (0, 1] it is the plain framework with ζ = 1 and
// R = Θ(m^{1−p} log 1/δ) instances (Theorem 3.5). For p > 1 it runs a
// deterministic Misra–Gries sketch with ⌈n^{1−1/p}⌉ counters alongside
// R = Θ(p·2^{p−1}·n^{1−1/p} log 1/δ) instances and normalizes with
// ζ = p·Z^{p−1}, Z = MG upper bound on ‖f‖∞ (Theorem 3.4; the paper
// states p ∈ [1,2] but the same argument covers all p ≥ 1, which the
// sliding-window section uses).
type LpSampler struct {
	g  *GSampler
	mg *misragries.Sketch // nil for p ≤ 1
	p  float64
}

// LpPoolSize returns the instance count Theorems 3.3–3.5 prescribe for
// a truly perfect Lp sampler over universe [0, n) and planned stream
// length m: ⌈m^{1−p}·ln(1/δ)⌉ for p ≤ 1, ⌈p·2^{p−1}·n^{1−1/p}·ln(1/δ)⌉
// for p > 1. Shared with sample/shard so the per-shard trial budget
// always matches the single-machine pool size.
func LpPoolSize(p float64, n, m int64, delta float64) int {
	var r float64
	if p <= 1 {
		r = math.Ceil(math.Pow(float64(m), 1-p) * math.Log(1/delta))
	} else {
		r = math.Ceil(p * math.Pow(2, p-1) * math.Pow(float64(n), 1-1/p) *
			math.Log(1/delta))
	}
	if r < 1 {
		r = 1
	}
	return int(r)
}

// LpMGWidth returns the Misra–Gries counter count ⌈n^{1−1/p}⌉ the p > 1
// normalizer needs (Theorem 3.4).
func LpMGWidth(p float64, n int64) int {
	k := int(math.Ceil(math.Pow(float64(n), 1-1/p)))
	if k < 1 {
		k = 1
	}
	return k
}

// NewLpSampler builds a truly perfect Lp sampler for a stream over
// universe [0, n) of planned length ≤ m, failing (returning ok=false)
// with probability ≤ delta.
func NewLpSampler(p float64, n, m int64, delta float64, seed uint64) *LpSampler {
	return NewLpSamplerK(p, n, m, delta, 1, seed)
}

// NewLpSamplerK is NewLpSampler provisioned with `queries` disjoint
// query groups for SampleK (see NewGSamplerK). The p > 1 Misra–Gries
// normalizer is shared across groups: ζ is a data-dependent but
// coin-independent bound, so sharing it does not couple the draws.
func NewLpSamplerK(p float64, n, m int64, delta float64, queries int, seed uint64) *LpSampler {
	if p <= 0 {
		panic("core: Lp sampler needs p > 0")
	}
	if delta <= 0 || delta >= 1 {
		panic("core: delta must be in (0,1)")
	}
	r := LpPoolSize(p, n, m, delta)
	if p <= 1 {
		return &LpSampler{
			g: NewGSamplerK(measure.Lp{P: p}, r, queries, seed,
				func() float64 { return 1 }),
			p: p,
		}
	}
	mg := misragries.New(LpMGWidth(p, n))
	g := measure.Lp{P: p}
	zetaFn := func() float64 { return g.Zeta(max(mg.MaxUpperBound(), 1)) }
	return &LpSampler{
		g:  NewGSamplerK(g, r, queries, seed, zetaFn),
		mg: mg,
		p:  p,
	}
}

// Process feeds one insertion-only update.
func (l *LpSampler) Process(item int64) {
	if l.mg != nil {
		l.mg.Process(item)
	}
	l.g.Process(item)
}

// ProcessBatch feeds a slice of updates through the batch fast path of
// the underlying pool (see GSampler.ProcessBatch). The Misra–Gries
// normalizer, when present, still sees every update individually — its
// per-update work is unavoidable because ζ must upper-bound ‖f‖∞ with
// probability 1 at any query point.
func (l *LpSampler) ProcessBatch(items []int64) {
	if l.mg != nil {
		for _, it := range items {
			l.mg.Process(it)
		}
	}
	l.g.ProcessBatch(items)
}

// Sample returns a coordinate with probability exactly f_i^p / F_p, or
// ok=false on FAIL.
func (l *LpSampler) Sample() (Outcome, bool) { return l.g.Sample() }

// SampleK returns up to k mutually independent draws, one per
// provisioned query group (see GSampler.SampleK).
func (l *LpSampler) SampleK(k int) ([]Outcome, int) { return l.g.SampleK(k) }

// SampleAll returns every accepting instance's outcome (see
// GSampler.SampleAll).
func (l *LpSampler) SampleAll() []Outcome { return l.g.SampleAll() }

// Instances returns the pool size.
func (l *LpSampler) Instances() int { return l.g.Instances() }

// BitsUsed reports total live size in bits.
func (l *LpSampler) BitsUsed() int64 {
	b := l.g.BitsUsed()
	if l.mg != nil {
		b += l.mg.BitsUsed()
	}
	return b
}

// P returns the sampler's p.
func (l *LpSampler) P() float64 { return l.p }

// --- M-estimator convenience constructors -------------------------------

// NewMEstimatorSampler builds the truly perfect sampler of Corollary 3.6
// for an M-estimator measure (L1–L2, Fair, Huber, or any measure whose
// ζ and F̂_G bounds are m-independent): O(log 1/δ) instances, each
// O(log n) bits.
func NewMEstimatorSampler(g measure.Func, m int64, delta float64, seed uint64) *GSampler {
	return NewMEstimatorSamplerK(g, m, delta, 1, seed)
}

// NewMEstimatorSamplerK is NewMEstimatorSampler provisioned with
// `queries` disjoint query groups for SampleK (see NewGSamplerK).
func NewMEstimatorSamplerK(g measure.Func, m int64, delta float64, queries int, seed uint64) *GSampler {
	r := InstancesForMeasure(g, m, delta)
	return NewGSamplerK(g, r, queries, seed, nil)
}
