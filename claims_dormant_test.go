package repro

// Headline claims for the formerly dormant sampler kinds — the
// random-order L2/Lp samplers (Theorems 1.6/1.7), the matrix row
// samplers (Theorem 3.7), the strict-turnstile F0 sampler (Theorem
// D.3) and the multipass Lp sampler (Theorem 1.5) — now that they ride
// the full snapshot/serve stack: a mid-stream checkpoint restores
// bit-for-bit, and a restored sampler's output law is exactly the
// fresh sampler's law (chi-square against the closed-form target),
// including across an HTTP crash/restore cycle.

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/snap"
)

// turnstilePacked interleaves deletions into an insertion stream:
// every third position deletes the item inserted two positions
// earlier, so counts never go negative (each deletion is matched to a
// distinct earlier insertion) and the stream is genuinely turnstile.
func turnstilePacked(items []int64) []int64 {
	out := make([]int64, 0, len(items)+len(items)/3)
	for i, it := range items {
		out = append(out, it)
		if i%3 == 2 {
			out = append(out, -items[i-1]-1)
		}
	}
	return out
}

// packedFrequencies replays a packed turnstile stream into its final
// frequency vector (zero entries dropped).
func packedFrequencies(items []int64) map[int64]int64 {
	freq := map[int64]int64{}
	for _, it := range items {
		if it >= 0 {
			freq[it]++
		} else {
			freq[-it-1]--
		}
	}
	for it, f := range freq {
		if f == 0 {
			delete(freq, it)
		}
	}
	return freq
}

// shuffled returns a fresh Fisher–Yates shuffle of items — the
// random-order samplers' guarantee is over the stream order, so every
// law repetition draws a new order.
func shuffled(src *rng.PCG, items []int64) []int64 {
	out := append([]int64(nil), items...)
	for i := len(out) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Claim (dormant-kind snapshot continuation): for each of the six
// kinds, a sampler snapshotted mid-stream and restored answers
// bit-for-bit what an uninterrupted sampler answers on the identical
// suffix — outcomes, stream length and space accounting all equal.
func TestClaimDormantKindRoundTrip(t *testing.T) {
	gen := stream.NewGenerator(rng.New(81))
	plain := gen.Zipf(64, 2048, 1.2)
	packedMatrix := gen.Zipf(256, 2048, 1.2) // d=16: row = item/16, col = item%16
	turnstile := turnstilePacked(gen.Zipf(24, 1024, 1.2))
	multi := turnstilePacked(gen.Zipf(16, 256, 1.2))

	kinds := []struct {
		name  string
		items []int64
		mk    func(seed uint64) sample.Sampler
	}{
		{"randorder-l2", plain,
			func(s uint64) sample.Sampler { return sample.NewRandomOrderL2(4096, 48, s) }},
		{"randorder-lp3", plain,
			func(s uint64) sample.Sampler { return sample.NewRandomOrderLp(3, 4096, s) }},
		{"matrix-rows-l1", packedMatrix,
			func(s uint64) sample.Sampler { return sample.NewMatrixRowsL1(16, 4096, 0.1, s).Stream() }},
		{"matrix-rows-l2", packedMatrix,
			func(s uint64) sample.Sampler { return sample.NewMatrixRowsL2(16, 4096, 0.1, s).Stream() }},
		{"turnstile-f0", turnstile,
			func(s uint64) sample.Sampler { return sample.NewTurnstileF0(24, 0.1, s).Stream() }},
		{"multipass-lp2", multi,
			func(s uint64) sample.Sampler { return sample.NewMultipassLp(2, 0.5, 0.1, s).Stream(16) }},
	}
	query := func(s sample.Sampler) []sample.Outcome {
		var sig []sample.Outcome
		for i := 0; i < 6; i++ {
			if out, ok := s.Sample(); ok {
				sig = append(sig, out)
			} else {
				sig = append(sig, sample.Outcome{Item: -1})
			}
			outs, _ := s.SampleK(2)
			sig = append(sig, outs...)
		}
		return sig
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			half := len(tc.items) / 2
			uninterrupted := tc.mk(42)
			checkpointed := tc.mk(42)
			uninterrupted.ProcessBatch(tc.items[:half])
			checkpointed.ProcessBatch(tc.items[:half])
			data, err := snap.Snapshot(checkpointed)
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := snap.Restore(data)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			uninterrupted.ProcessBatch(tc.items[half:])
			restored.ProcessBatch(tc.items[half:])
			if got, want := query(restored), query(uninterrupted); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored sampler diverges from the uninterrupted one:\n got %v\nwant %v",
					got, want)
			}
			if restored.StreamLen() != uninterrupted.StreamLen() ||
				restored.BitsUsed() != uninterrupted.BitsUsed() {
				t.Fatalf("restored bookkeeping diverges: len %d vs %d, bits %d vs %d",
					restored.StreamLen(), uninterrupted.StreamLen(),
					restored.BitsUsed(), uninterrupted.BitsUsed())
			}
		})
	}
}

// Claim (dormant-kind restored law): interrupting a sampler with a
// snapshot/restore mid-stream leaves its output law untouched — for
// every new kind, both a restored-per-repetition histogram and a
// fresh-sampler histogram sit on the kind's closed-form target
// (f_i² and f_i³ over random orders, row norms, uniform support,
// f_i² over the final turnstile vector) by chi-square. Snapshotting is
// exactly invisible: ε = γ = 0 survives the checkpoint boundary.
func TestClaimDormantKindServedLaw(t *testing.T) {
	gen := stream.NewGenerator(rng.New(91))

	// Fixed per-kind streams and targets.
	roL2Items := gen.Zipf(10, 300, 1.3)
	roL2Freq := stream.Frequencies(roL2Items)
	roLpItems := gen.Zipf(8, 240, 1.3)
	roLpFreq := stream.Frequencies(roLpItems)

	// A 12-row, 6-column matrix as packed unit updates.
	const matrixD = 6
	matrixRows := map[int64][]int64{}
	var matrixItems []int64
	mgen := rng.New(17)
	mz := rng.NewZipf(mgen, 1.2, 12)
	for i := 0; i < 360; i++ {
		r := mz.Draw()
		c := mgen.Intn(matrixD)
		matrixItems = append(matrixItems, sample.PackMatrixItem(matrixD, r, c))
		if matrixRows[r] == nil {
			matrixRows[r] = make([]int64, matrixD)
		}
		matrixRows[r][c]++
	}
	rowTarget := func(g func([]int64) float64) stats.Distribution {
		w := map[int64]float64{}
		for r, v := range matrixRows {
			w[r] = g(v)
		}
		return stats.NewDistribution(w)
	}

	// A turnstile stream whose deletions zero out every 4th item, so
	// the uniform-support target visibly depends on the deletions.
	var tfItems []int64
	tfSupport := map[int64]float64{}
	for i := int64(0); i < 20; i++ {
		c := int(i%4) + 1
		for k := 0; k < c; k++ {
			tfItems = append(tfItems, i)
		}
		tfSupport[i] = 1
	}
	for i := int64(0); i < 20; i += 4 {
		c := int(i%4) + 1
		for k := 0; k < c; k++ {
			tfItems = append(tfItems, -i-1)
		}
		delete(tfSupport, i)
	}

	multiItems := turnstilePacked(gen.Zipf(16, 160, 1.3))
	multiFreq := packedFrequencies(multiItems)

	pow := func(p float64) func(int64) float64 {
		return func(f int64) float64 {
			x := 1.0
			for i := 0; i < int(p); i++ {
				x *= float64(f)
			}
			return x
		}
	}
	l2RowNorm := func(v []int64) float64 {
		var s float64
		for _, x := range v {
			s += float64(x) * float64(x)
		}
		return math.Sqrt(s)
	}
	l1RowNorm := func(v []int64) float64 {
		var s float64
		for _, x := range v {
			s += float64(x)
		}
		return s
	}

	cases := []struct {
		name    string
		reps    int
		target  stats.Distribution
		items   []int64
		reorder bool // reshuffle per repetition (random-order model)
		mk      func(seed uint64) sample.Sampler
	}{
		{
			name: "randorder-l2", reps: 2500, reorder: true,
			target: stats.GDistribution(roL2Freq, pow(2)),
			items:  roL2Items,
			mk:     func(s uint64) sample.Sampler { return sample.NewRandomOrderL2(300, 64, s) },
		},
		{
			name: "randorder-lp3", reps: 2500, reorder: true,
			target: stats.GDistribution(roLpFreq, pow(3)),
			items:  roLpItems,
			mk:     func(s uint64) sample.Sampler { return sample.NewRandomOrderLp(3, 240, s) },
		},
		{
			name: "matrix-rows-l1", reps: 6000,
			target: rowTarget(l1RowNorm),
			items:  matrixItems,
			mk: func(s uint64) sample.Sampler {
				return sample.NewMatrixRowsL1(matrixD, 360, 0.2, s).Stream()
			},
		},
		{
			name: "matrix-rows-l2", reps: 6000,
			target: rowTarget(l2RowNorm),
			items:  matrixItems,
			mk: func(s uint64) sample.Sampler {
				return sample.NewMatrixRowsL2(matrixD, 360, 0.2, s).Stream()
			},
		},
		{
			name: "turnstile-f0", reps: 2500,
			target: stats.NewDistribution(tfSupport),
			items:  tfItems,
			mk:     func(s uint64) sample.Sampler { return sample.NewTurnstileF0(20, 0.1, s).Stream() },
		},
		{
			name: "multipass-lp2", reps: 1500,
			target: stats.GDistribution(multiFreq, pow(2)),
			items:  multiItems,
			mk: func(s uint64) sample.Sampler {
				return sample.NewMultipassLp(2, 0.5, 0.1, s).Stream(16)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			restoredH := stats.Histogram{}
			freshH := stats.Histogram{}
			for rep := 0; rep < tc.reps; rep++ {
				base := uint64(rep)*8 + 1
				items := tc.items
				if tc.reorder {
					items = shuffled(rng.New(base+3), items)
				}
				half := len(items) / 2

				// Restored arm: checkpoint mid-stream, restore, finish.
				s := tc.mk(base)
				s.ProcessBatch(items[:half])
				data, err := snap.Snapshot(s)
				if err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				restored, err := snap.Restore(data)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				restored.ProcessBatch(items[half:])
				if out, ok := restored.Sample(); ok && !out.Bottom {
					restoredH.Add(out.Item)
				}

				// Fresh arm: one uninterrupted sampler on the same stream.
				fresh := tc.mk(base + 7)
				fresh.ProcessBatch(items)
				if out, ok := fresh.Sample(); ok && !out.Bottom {
					freshH.Add(out.Item)
				}
			}
			for _, h := range []struct {
				name string
				h    stats.Histogram
			}{{"restored", restoredH}, {"fresh", freshH}} {
				chi, dof, p := stats.ChiSquare(h.h, tc.target, 5)
				t.Logf("%s %s: N=%d chi2=%.2f dof=%d p=%.4f",
					tc.name, h.name, h.h.Total(), chi, dof, p)
				if p < 1e-3 {
					t.Fatalf("%s %s law deviates from the exact distribution: chi2=%.2f dof=%d p=%.5f",
						tc.name, h.name, chi, dof, p)
				}
				if h.h.Total() < int64(tc.reps)/3 {
					t.Fatalf("%s %s: too many FAILs: %d/%d answers", tc.name, h.name, h.h.Total(), tc.reps)
				}
			}
		})
	}

	// One full HTTP crash/restore cycle on a bare sampler node: ingest
	// half over HTTP, checkpoint, crash without a graceful close,
	// serve.Restore from the store, finish the stream over HTTP — the
	// served answers are bit-for-bit an uninterrupted sampler's.
	t.Run("served-crash-restore", func(t *testing.T) {
		store, err := serve.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		mk := func() sample.Sampler { return sample.NewTurnstileF0(20, 0.1, 31).Stream() }
		half := len(tfItems) / 2

		victim := serve.NewSamplerNode(mk(), serve.NodeConfig{Store: store})
		srv := httptest.NewServer(victim.Handler())
		cl := serve.NewClient(srv.URL)
		if _, err := cl.Ingest(context.Background(), tfItems[:half]); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		// Acknowledged after the checkpoint, then the process dies: the
		// documented ≤-one-interval staleness loss.
		if _, err := cl.Ingest(context.Background(), tfItems[half:half+3]); err != nil {
			t.Fatal(err)
		}
		srv.Close() // crash: no Node.Close, no final snapshot

		restored, skipped, err := serve.Restore(store, serve.NodeConfig{})
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		defer restored.Close()
		if len(skipped) != 0 {
			t.Fatalf("Restore skipped %v on a clean store", skipped)
		}
		if got := restored.StreamLen(); got != int64(half) {
			t.Fatalf("restored mass %d, want the checkpointed %d", got, half)
		}
		srv2 := httptest.NewServer(restored.Handler())
		defer srv2.Close()
		if _, err := serve.NewClient(srv2.URL).Ingest(context.Background(), tfItems[half:]); err != nil {
			t.Fatal(err)
		}

		ref := mk()
		ref.ProcessBatch(tfItems[:half])
		ref.ProcessBatch(tfItems[half:])
		for q := 0; q < 6; q++ {
			resp, err := serve.NewClient(srv2.URL).SampleK(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref.Sample()
			if wantOK != (resp.Count == 1) {
				t.Fatalf("query %d: served ok=%v, reference ok=%v", q, resp.Count == 1, wantOK)
			}
			if !wantOK {
				continue
			}
			got := resp.Outcomes[0]
			if got.Item != want.Item || got.Freq != want.Freq || got.Bottom != want.Bottom {
				t.Fatalf("query %d diverges: %+v vs %+v", q, got, want)
			}
		}
	})
}
