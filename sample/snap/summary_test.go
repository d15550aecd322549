package snap_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// summaryCoordinators builds the coordinators whose summaries seed the
// codec tests: an L1, a p = 2 Lp and an M-estimator fleet member, each
// fed a Zipf stream and queried so that their plans hold every group.
func summaryCoordinators(t testing.TB) []*snap.Summary {
	gen := stream.NewGenerator(rng.New(5))
	items := gen.Zipf(64, 3000, 1.2)
	coords := []*shard.Coordinator{
		shard.NewL1(0.2, 1, shard.Config{Shards: 2, Queries: 3}),
		shard.NewLp(2, 64, 1<<14, 0.2, 2, shard.Config{Shards: 2, Queries: 3}),
		shard.New(sample.MeasureL1L2(), 1<<14, 0.2, 3, shard.Config{Shards: 3, Queries: 2}),
	}
	var sums []*snap.Summary
	for _, c := range coords {
		c.ProcessBatch(items)
		sum, _, err := c.Summary(3)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, sum)
	}
	return sums
}

// A served summary round-trips the codec: the decoded summary encodes
// to the same bytes, and a plan over decoded summaries answers exactly
// what a plan over the originals answers.
func TestSummaryRoundTrip(t *testing.T) {
	for _, sum := range summaryCoordinators(t) {
		data := sum.Encode()
		got, err := snap.DecodeSummary(data)
		if err != nil {
			t.Fatalf("%v: %v", sum.Spec.Kind, err)
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("%v: re-encoded summary differs", sum.Spec.Kind)
		}
		if got.Spec != sum.Spec || got.Zeta != sum.Zeta || len(got.Groups) != len(sum.Groups) {
			t.Fatalf("%v: decoded %+v/%v/%d groups, want %+v/%v/%d", sum.Spec.Kind,
				got.Spec, got.Zeta, len(got.Groups), sum.Spec, sum.Zeta, len(sum.Groups))
		}
		if got.SamePlan(sum) || !sum.SamePlan(sum) {
			t.Fatalf("%v: a decoded summary claims a plan instance", sum.Spec.Kind)
		}
		a, err := snap.PlanSummaries(9, sum)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.PlanSummaries(9, got)
		if err != nil {
			t.Fatal(err)
		}
		for q := uint64(1); q < 6; q++ {
			oa, na := a.SampleK(q, 3)
			ob, nb := b.SampleK(q, 3)
			if na != nb || fmt.Sprint(oa) != fmt.Sprint(ob) {
				t.Fatalf("%v qseed %d: decoded plan %v, original %v", sum.Spec.Kind, q, ob, oa)
			}
		}
	}
}

// putSummaryHead writes a summary preamble: magic, version, kind, the
// spec record and ζ — what the codec writes before the counts.
func putSummaryHead(spec sample.Spec, zeta float64) *wire.Writer {
	w := &wire.Writer{}
	w.Raw([]byte("TPSQ"))
	w.U8(1)
	w.U8(uint8(spec.Kind))
	w.String(spec.Measure)
	w.F64(spec.P)
	w.F64(spec.Tau)
	w.F64(spec.Delta)
	w.Varint(spec.N)
	w.Varint(spec.M)
	w.Varint(spec.W)
	w.Uvarint(uint64(spec.FreqCap))
	w.Uvarint(uint64(spec.Queries))
	w.Bool(spec.TrulyPerfect)
	w.U64(spec.Seed)
	w.F64(zeta)
	return w
}

// Hostile summaries fail with an error, never a panic: every count is
// bounded by the spec and by the bytes left, masses and after-counts
// by the pool, ζ by being finite and positive — and a summary claiming
// huge counts allocates nothing near them.
func TestDecodeSummaryRejects(t *testing.T) {
	base := summaryCoordinators(t)[1] // p = 2 Lp
	spec := base.Spec
	with := func(f func(s *snap.Summary)) []byte {
		s := &snap.Summary{Spec: spec, Zeta: base.Zeta, Lens: append([]int64(nil), base.Lens...)}
		for _, g := range base.Groups {
			s.Groups = append(s.Groups, append([][]core.Acceptance(nil), g...))
		}
		f(s)
		return s.Encode()
	}
	acc := func(at int, c int64) core.Acceptance { return core.Acceptance{At: at, Item: 1, AfterCount: c} }
	trials := 0
	func() {
		c := shard.NewLp(2, 64, 1<<14, 0.2, 2, shard.Config{Shards: 2, Queries: 3})
		defer c.Close()
		trials = c.Trials()
	}()
	cases := map[string][]byte{
		"bad magic":  append([]byte("XPSQ"), base.Encode()[4:]...),
		"version 2":  append([]byte("TPSQ\x02"), base.Encode()[5:]...),
		"kind F0":    putSummaryHead(sample.Spec{Kind: sample.KindF0, N: 16, Delta: 0.2, Queries: 1}, 1).Bytes(),
		"bad spec":   putSummaryHead(sample.Spec{Kind: sample.KindLp, P: 2, Delta: 0.2, Queries: 1}, 1).Bytes(),
		"zero ζ":     with(func(s *snap.Summary) { s.Zeta = 0 }),
		"NaN ζ":      with(func(s *snap.Summary) { s.Zeta = math.NaN() }),
		"infinite ζ": with(func(s *snap.Summary) { s.Zeta = math.Inf(1) }),
		"no pools": with(func(s *snap.Summary) {
			s.Lens, s.Groups = nil, nil
		}),
		"negative mass": with(func(s *snap.Summary) { s.Lens[0] = -1 }),
		"mass overflow": with(func(s *snap.Summary) { s.Lens[0], s.Lens[1] = math.MaxInt64, 1 }),
		"groups past Queries": with(func(s *snap.Summary) {
			s.Groups = append(s.Groups, s.Groups[0])
		}),
		"entries past T": with(func(s *snap.Summary) {
			var accs []core.Acceptance
			for at := 0; at <= trials; at++ {
				accs = append(accs, acc(at, 0))
			}
			s.Groups[0][0] = accs
		}),
		"index at T":            with(func(s *snap.Summary) { s.Groups[0][0] = []core.Acceptance{acc(trials, 0)} }),
		"after-count past mass": with(func(s *snap.Summary) { s.Groups[0][0] = []core.Acceptance{acc(0, s.Lens[0])} }),
		"negative after-count":  with(func(s *snap.Summary) { s.Groups[0][0] = []core.Acceptance{acc(0, -1)} }),
		"trailing bytes":        append(base.Encode(), 0),
	}
	huge := putSummaryHead(spec, base.Zeta)
	huge.Uvarint(1 << 60) // pools
	cases["huge pool count"] = huge.Bytes()
	huge = putSummaryHead(spec, base.Zeta)
	huge.Uvarint(1)
	huge.Varint(5)
	huge.Uvarint(1 << 40) // groups
	cases["huge group count"] = huge.Bytes()
	huge = putSummaryHead(spec, base.Zeta)
	huge.Uvarint(1)
	huge.Varint(5)
	huge.Uvarint(1)
	huge.Uvarint(1 << 40) // entries
	cases["huge entry count"] = huge.Bytes()
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := snap.DecodeSummary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes", name, grew)
		}
	}
	data := base.Encode()
	for n := 0; n < len(data); n++ {
		if _, err := snap.DecodeSummary(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(data))
		}
	}
}

// The thinning coins flip only where a node's ζ_j is below the fleet's
// ζ: a plan over summaries of equal ζ draws none and keeps every pool's
// first acceptance, so it answers exactly as the nodes' own
// acceptances dictate; lowering one node's ζ_j keeps a subset.
func TestPlanSummariesThinning(t *testing.T) {
	sums := summaryCoordinators(t)[:1] // L1: ζ = 1
	other := *sums[0]
	other.Spec.Seed++
	plan, err := snap.PlanSummaries(3, sums[0], &other)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards() != 2*len(sums[0].Lens) || plan.Queries() != len(sums[0].Groups) {
		t.Fatalf("plan spans %d pools / %d groups", plan.Shards(), plan.Queries())
	}
	// Re-planning with a different seed must not change anything when
	// no coin is drawn.
	again, err := snap.PlanSummaries(4, sums[0], &other)
	if err != nil {
		t.Fatal(err)
	}
	for q := uint64(1); q < 20; q++ {
		a, na := plan.SampleK(q, 3)
		b, nb := again.SampleK(q, 3)
		if na != nb || fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("equal-ζ plans differ with the thinning seed: %v vs %v", a, b)
		}
	}
	// Halving one node's ζ_j thins its acceptances: the plan then
	// depends on the thinning seed.
	thinned := other
	thinned.Zeta = other.Zeta / 2
	differ := false
	p1, err := snap.PlanSummaries(3, &thinned, sums[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := snap.PlanSummaries(5, &thinned, sums[0])
	for q := uint64(1); q < 40 && !differ; q++ {
		a, _ := p1.SampleK(q, 3)
		b, _ := p2.SampleK(q, 3)
		differ = fmt.Sprint(a) != fmt.Sprint(b)
	}
	if !differ {
		t.Fatal("thinning a node left the plan independent of the thinning seed")
	}
	// Incompatible specs refuse, as for snapshots.
	lp := summaryCoordinators(t)[1]
	if _, err := snap.PlanSummaries(1, sums[0], lp); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Fatalf("L1 + Lp summaries planned: %v", err)
	}
}

// Summarize over a restored framework-kind state is what a coordinator
// over the same pools would serve, and leaves the state untouched.
func TestSummarizeState(t *testing.T) {
	s := sample.NewLp(2, 64, 1<<14, 0.2, 7, sample.Queries(3))
	gen := stream.NewGenerator(rng.New(7))
	s.ProcessBatch(gen.Zipf(64, 2000, 1.2))
	data, err := snap.Snapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := snap.Summarize(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Groups) != 3 || len(sum.Lens) != 1 || sum.Lens[0] != 2000 {
		t.Fatalf("summary of a 3-group pool: %d groups, masses %v", len(sum.Groups), sum.Lens)
	}
	again, err := snap.Summarize(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sum.Encode(), again.Encode()) {
		t.Fatal("summarizing the same state twice differs")
	}
	if after, _ := snap.Encode(st); !bytes.Equal(after, data) {
		t.Fatal("Summarize modified the state")
	}
	if sum, err := snap.Summarize(sample.State{Spec: sample.Spec{Kind: sample.KindF0}}); sum != nil || err != nil {
		t.Fatalf("F0 state summarized: %v, %v", sum, err)
	}
}

// FuzzSummaryDecode: the summary decoder faces bytes from the network.
// The contract under fuzz: an error, never a panic, and allocations
// bounded by the input (every count is checked before it sizes a
// slice). A summary that decodes re-encodes to bytes that decode to
// the same summary, and plans.
func FuzzSummaryDecode(f *testing.F) {
	for _, sum := range summaryCoordinators(f) {
		data := sum.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)*3/4] ^= 0x40
		f.Add(flipped)
	}
	huge := putSummaryHead(sample.Spec{Kind: sample.KindL1, Delta: 0.2, Queries: 4}, 1)
	huge.Uvarint(1 << 62)
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := snap.DecodeSummary(data)
		if err != nil {
			return
		}
		again, err := snap.DecodeSummary(sum.Encode())
		if err != nil {
			t.Fatalf("re-encoded summary does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), sum.Encode()) {
			t.Fatal("summary encoding is not stable")
		}
		if _, err := snap.PlanSummaries(1, sum); err != nil {
			t.Fatalf("decoded summary does not plan: %v", err)
		}
	})
}
