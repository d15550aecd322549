package core

import (
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
	// TrialsGroupAppend appends exactly one group's worth of trials,
	// and an out-of-range group panics.
	if got := len(s.TrialsGroupAppend(nil, 3, 1)); got != 6 {
		t.Fatalf("TrialsGroupAppend len = %d, want 6", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TrialsGroupAppend group 4 did not panic")
		}
	}()
	s.TrialsGroupAppend(nil, 4, 1)
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
