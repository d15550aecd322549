package core

import (
	"slices"
	"testing"

	"repro/internal/measure"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
)

// SampleK's draws must each carry the exact single-draw law. Checked
// marginally here per group position; the joint (independence) claim is
// pinned at the top level (claims_test.go) and in E20.
func TestSampleKMarginalLaw(t *testing.T) {
	freq := map[int64]int64{1: 80, 2: 40, 3: 20, 4: 10}
	gen := stream.NewGenerator(rng.New(51))
	items := gen.FromFrequencies(freq)
	target := stats.GDistribution(freq, measure.Lp{P: 1}.G)

	const k = 3
	hists := make([]stats.Histogram, k)
	for q := range hists {
		hists[q] = stats.Histogram{}
	}
	const reps = 3000
	for rep := 0; rep < reps; rep++ {
		s := NewGSamplerK(measure.Lp{P: 1}, 8, k, uint64(rep)+1,
			func() float64 { return 1 })
		s.ProcessBatch(items)
		outs, n := s.SampleK(k)
		if n != k {
			t.Fatalf("L1 SampleK(%d) succeeded only %d times", k, n)
		}
		for q, out := range outs {
			hists[q].Add(out.Item)
		}
	}
	for q, h := range hists {
		chi, dof, p := stats.ChiSquare(h, target, 5)
		t.Logf("group %d: chi2=%.2f dof=%d p=%.4f", q, chi, dof, p)
		if p < 1e-3 {
			t.Fatalf("group %d law deviates: chi2=%.2f dof=%d p=%.5f", q, chi, dof, p)
		}
	}
}

// A pool built without query groups clamps SampleK to one draw; an
// empty stream answers k ⊥ successes (Definition 1.1).
func TestSampleKClampAndEmptyStream(t *testing.T) {
	s := NewGSampler(measure.Lp{P: 1}, 4, 1, func() float64 { return 1 })
	outs, n := s.SampleK(5)
	if n != 1 || len(outs) != 1 || !outs[0].Bottom {
		t.Fatalf("empty single-group pool: outs=%v n=%d, want one ⊥", outs, n)
	}
	sk := NewGSamplerK(measure.Lp{P: 1}, 4, 3, 1, func() float64 { return 1 })
	outs, n = sk.SampleK(7)
	if n != 3 || len(outs) != 3 {
		t.Fatalf("empty 3-group pool: outs=%v n=%d, want three ⊥", outs, n)
	}
	for _, o := range outs {
		if !o.Bottom {
			t.Fatalf("empty stream draw not ⊥: %+v", o)
		}
	}
	sk.Process(9)
	outs, n = sk.SampleK(3)
	if n != 3 {
		t.Fatalf("singleton stream, L1: want 3 successes, got %d", n)
	}
	for _, o := range outs {
		if o.Bottom || o.Item != 9 {
			t.Fatalf("singleton stream draw: %+v, want item 9", o)
		}
	}
}

// Query groups must not perturb each other or the single-query path:
// with the same seed, group 0 of a k-group pool consumes the same
// scheduling randomness stream, so its state-derived quantities
// (StreamLen, group size) match, and Sample still answers from group 0
// with a valid outcome of the stream.
func TestSampleKGroupAccounting(t *testing.T) {
	gen := stream.NewGenerator(rng.New(53))
	items := gen.Zipf(32, 2000, 1.2)
	freq := stream.Frequencies(items)
	s := NewGSamplerK(measure.Lp{P: 1}, 6, 4, 7, func() float64 { return 1 })
	s.ProcessBatch(items)
	if got := s.Instances(); got != 24 {
		t.Fatalf("Instances = %d, want 24", got)
	}
	if got := s.GroupSize(); got != 6 {
		t.Fatalf("GroupSize = %d, want 6", got)
	}
	if got := s.Queries(); got != 4 {
		t.Fatalf("Queries = %d, want 4", got)
	}
	out, ok := s.Sample()
	if !ok || out.Bottom {
		t.Fatalf("Sample on L1 stream failed: %+v ok=%v", out, ok)
	}
	if _, present := freq[out.Item]; !present {
		t.Fatalf("sampled item %d not in stream", out.Item)
	}
	// Acceptances reports indices inside one group, and an
	// out-of-range group panics.
	for _, a := range s.Acceptances(3, 1, s.Coins(), nil) {
		if a.At < 0 || a.At >= 6 {
			t.Fatalf("Acceptances index = %d, want in [0, 6)", a.At)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Acceptances group 4 did not panic")
		}
	}()
	s.Acceptances(4, 1, s.Coins(), nil)
}

// fullTrialLoop is the reference Acceptances replaced: it runs every
// instance of group q through the rejection step and keeps each
// result, the table the merge plan used to store. Acceptances must
// list exactly its accepted entries and leave the PCG where it does.
func fullTrialLoop(s *GSampler, q int, zeta float64) (oks []bool, outs []Outcome) {
	if s.t == 0 {
		return make([]bool, s.groupSize), make([]Outcome, s.groupSize)
	}
	base := q * s.groupSize
	for i := 0; i < s.groupSize; i++ {
		o, ok := s.sampleInstance(base+i, zeta, s.src)
		oks, outs = append(oks, ok), append(outs, o)
	}
	return oks, outs
}

// Acceptances must flip the same coins in the same order as the full
// trial loop: the same accepted indices and outcomes (so the same
// first acceptance, the one a local draw reads), and the same PCG
// state afterwards. Pools: L1, Lp p=2 and Lp p=0.5, empty and Zipf streams,
// every group, ζ from tight to so loose that no trial accepts.
func TestFirstAcceptanceMatchesFullLoop(t *testing.T) {
	gen := stream.NewGenerator(rng.New(61))
	none, some := 0, 0
	for _, g := range []measure.Func{measure.Lp{P: 1}, measure.Lp{P: 2}, measure.Lp{P: 0.5}} {
		for seed := uint64(1); seed <= 6; seed++ {
			var items []int64
			if seed > 1 {
				items = gen.Zipf(64, int(seed)*500, 1.1)
			}
			ref := NewGSamplerK(g, 12, 3, seed, nil)
			got := NewGSamplerK(g, 12, 3, seed, nil)
			ref.ProcessBatch(items)
			got.ProcessBatch(items)
			base := g.Zeta(max(ref.StreamLen(), 1))
			for _, scale := range []float64{1, 4, 1e9} {
				for q := 0; q < 3; q++ {
					oks, outs := fullTrialLoop(ref, q, base*scale)
					accs := got.Acceptances(q, base*scale, got.Coins(), nil)
					var wantAccs []Acceptance
					for i, ok := range oks {
						if ok {
							wantAccs = append(wantAccs, Acceptance{At: i, Item: outs[i].Item, AfterCount: outs[i].AfterCount})
						}
					}
					if !slices.Equal(accs, wantAccs) {
						t.Fatalf("%s seed %d ζ×%g group %d: acceptances %+v, full loop %+v",
							g.Name(), seed, scale, q, accs, wantAccs)
					}
					if len(wantAccs) == 0 {
						none++
					} else {
						some++
					}
					rh, rl := ref.src.State()
					gh, gl := got.src.State()
					if rh != gh || rl != gl {
						t.Fatalf("%s seed %d ζ×%g group %d: PCG state differs from the full loop",
							g.Name(), seed, scale, q)
					}
				}
			}
		}
	}
	if none == 0 || some == 0 {
		t.Fatalf("cases cover %d groups with an acceptance and %d without; want both", some, none)
	}
}

// The LpSampler multi-query constructor must wire groups through to the
// underlying pool, p ≤ 1 and p > 1 alike.
func TestLpSamplerKWiring(t *testing.T) {
	for _, p := range []float64{0.5, 2} {
		s := NewLpSamplerK(p, 64, 1000, 0.2, 5, 3)
		if got := s.g.Queries(); got != 5 {
			t.Fatalf("p=%v: Queries = %d, want 5", p, got)
		}
		for i := int64(0); i < 200; i++ {
			s.Process(i % 16)
		}
		outs, n := s.SampleK(5)
		if n != len(outs) || n > 5 {
			t.Fatalf("p=%v: SampleK bookkeeping off: n=%d len=%d", p, n, len(outs))
		}
	}
}
