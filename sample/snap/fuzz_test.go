package snap_test

import (
	"bytes"
	"testing"

	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// fuzzSamplers builds the fixed sampler battery the fuzz corpus and
// the delta-application bases are derived from. Everything is seeded,
// so the bases rebuilt inside the fuzz target are byte-identical to
// the ones the seed deltas were diffed against — which is what lets a
// mutated delta get past the base-name check and into the payload
// readers.
func fuzzSamplers() []sample.Sampler {
	return []sample.Sampler{
		sample.NewL1(0.25, 1, sample.Queries(2)),
		sample.NewLp(0.5, 16, 64, 0.25, 2),
		sample.NewLp(2, 16, 64, 0.25, 3),
		sample.NewMEstimator(sample.MeasureL1L2(), 64, 0.25, 4),
		sample.NewF0(16, 0.25, 5),
		sample.NewF0Oracle(6),
		sample.NewTukey(2, 16, 0.25, 7),
		sample.NewWindowMEstimator(sample.MeasureHuber(2), 8, 0.25, 8),
		sample.NewWindowLp(1.5, 16, 8, 0.25, true, 9),
		sample.NewWindowF0(16, 8, 2, 0.25, 10),
		sample.NewWindowTukey(2, 16, 8, 0.25, 11),
		// Single-stream kinds (matrix columns 4: every fuzzStream item
		// packs to a valid (row, col); non-negative items are turnstile
		// insertions).
		sample.NewRandomOrderL2(8, 4, 13),
		sample.NewRandomOrderLp(3, 8, 14),
		sample.NewMatrixRowsL1(4, 64, 0.25, 15).Stream(),
		sample.NewMatrixRowsL2(4, 64, 0.25, 16).Stream(),
		sample.NewTurnstileF0(16, 0.25, 17).Stream(),
		sample.NewMultipassLp(2, 0.5, 0.25, 18).Stream(16),
	}
}

var fuzzStream = []int64{3, 1, 4, 1, 5, 9, 2, 6}

// fuzzBases returns every fixed base snapshot the delta path is fuzzed
// against: one per sampler kind (checkpointed after fuzzStream) plus a
// coordinator checkpoint.
func fuzzBases() [][]byte {
	var bases [][]byte
	for _, s := range fuzzSamplers() {
		s.ProcessBatch(fuzzStream)
		if data, err := snap.Snapshot(s); err == nil {
			bases = append(bases, data)
		}
	}
	c := shard.NewL1(0.25, 12, shard.Config{Shards: 2})
	defer c.Close()
	c.ProcessBatch(fuzzStream)
	if data, err := c.Snapshot(); err == nil {
		bases = append(bases, data)
	}
	return bases
}

// FuzzSnapDecode hammers the full restore path — header, spec, layer
// states, constructor re-run, invariant validation — and, since wire
// format v2, the delta path — delta header, per-layer delta frames,
// Apply merges, chain resolution — with corrupted, truncated and
// adversarial inputs. The contract under fuzz: error, never panic,
// never allocate unboundedly. Successful restores must yield a sampler
// whose cheap read paths work, and a successfully applied delta must
// yield bytes the v1 decoder accepts.
func FuzzSnapDecode(f *testing.F) {
	// Seed with valid snapshots of every kind so the fuzzer starts deep
	// inside the format instead of bouncing off the magic check.
	for _, s := range fuzzSamplers() {
		s.ProcessBatch(fuzzStream)
		if data, err := snap.Snapshot(s); err == nil {
			f.Add(data)
		}
	}
	// v2 corpus: a valid delta per kind (diffed against the fuzzBases
	// snapshot, extended by a short suffix), a truncated chain link, and
	// a delta whose base name mismatches every base.
	suffix := []int64{5, 3, 5}
	for _, s := range fuzzSamplers() {
		s.ProcessBatch(fuzzStream)
		base, err := snap.Snapshot(s)
		if err != nil {
			continue
		}
		s.ProcessBatch(suffix)
		d, err := snap.SnapshotDelta(base, s)
		if err != nil {
			continue
		}
		f.Add(d)
		f.Add(d[:len(d)*2/3]) // truncated mid-frame
		// Mismatched base: re-diff against the post-suffix state, whose
		// name no fuzz base carries.
		if cur, err := snap.Snapshot(s); err == nil {
			s.ProcessBatch(suffix)
			if d2, err := snap.SnapshotDelta(cur, s); err == nil {
				f.Add(d2)
			}
		}
	}
	// Coordinator flavor, same three shapes.
	func() {
		c := shard.NewL1(0.25, 12, shard.Config{Shards: 2})
		defer c.Close()
		c.ProcessBatch(fuzzStream)
		base, err := c.Snapshot()
		if err != nil {
			return
		}
		c.ProcessBatch(suffix)
		if d, err := c.SnapshotDelta(base); err == nil {
			f.Add(d)
			f.Add(d[:len(d)/2])
		}
	}()
	// v1 hostile shapes per kind: truncated bodies (counts that survive
	// the header but outrun the buffer) and kind-mismatch mutants (one
	// kind's frame under another kind's payload reader — the allocation
	// guards and size checks must catch every one).
	for _, s := range fuzzSamplers() {
		s.ProcessBatch(fuzzStream)
		data, err := snap.Snapshot(s)
		if err != nil {
			continue
		}
		f.Add(data[:len(data)*2/3])
		for _, k := range []sample.Kind{sample.KindTurnstileF0, sample.KindMatrixRowsL1, sample.KindRandOrderLp} {
			swap := append([]byte(nil), data...)
			swap[5] = byte(k) // kind byte: magic(4) + version(1)
			f.Add(swap)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("TPSN"))
	f.Add([]byte("TPSN\x02"))

	bases := fuzzBases()
	f.Fuzz(func(t *testing.T, data []byte) {
		if snap.IsDelta(data) {
			// The delta path: application against every fixed base must
			// error or produce v1 bytes — never panic. (The base-name
			// check screens most mutants; the seeds carry matching names
			// so payload mutations get through.)
			for _, base := range bases {
				full, err := applyAny(t, base, data)
				if err != nil {
					continue
				}
				if !bytes.Equal(full, base) && len(full) == 0 {
					t.Fatalf("applied delta produced empty bytes")
				}
				if shard.IsCoordinatorSnapshot(full) {
					if _, err := shard.RestoreCoordinator(full); err == nil {
						break
					}
					continue
				}
				if s, err := snap.Restore(full); err == nil {
					_ = s.StreamLen()
					_ = s.BitsUsed()
				}
			}
			return
		}
		s, err := snap.Restore(data)
		if err != nil {
			return
		}
		// A successful restore must produce a coherent sampler.
		if s.StreamLen() < 0 {
			t.Fatalf("restored sampler reports negative stream length")
		}
		_ = s.BitsUsed()
		// Re-snapshotting a restored sampler must succeed: restore and
		// export are inverse on the valid subset of inputs — and the
		// sampler must accept a self-delta (the empty diff).
		full, err := snap.Snapshot(s)
		if err != nil {
			t.Fatalf("restored sampler does not re-snapshot: %v", err)
		}
		if d, err := snap.SnapshotDelta(full, s); err != nil {
			t.Fatalf("restored sampler does not self-delta: %v", err)
		} else if folded, err := snap.ApplyDelta(full, d); err != nil || !bytes.Equal(folded, full) {
			t.Fatalf("empty self-delta does not fold back: %v", err)
		}
		// Merging a snapshot with itself must never panic either; it may
		// legitimately error (window kinds, seed rules).
		if m, err := snap.Merge(1, data, data); err == nil {
			_ = m.StreamLen()
		}
	})
}

// applyAny dispatches delta application on the base's kind, mirroring
// the serving layer's dispatch. A coordinator delta is also folded onto
// the decoded base, as the aggregator folds it: the decoded fold must
// succeed or fail with the byte fold, agree with it on the result, and
// leave the base encoding to the bytes it encoded to before.
func applyAny(t *testing.T, base, delta []byte) ([]byte, error) {
	if !shard.IsCoordinatorSnapshot(base) {
		return snap.ApplyDelta(base, delta)
	}
	full, err := shard.ApplyCoordinatorDelta(base, delta)
	st, derr := shard.DecodeCoordinator(base)
	if derr != nil {
		return full, err
	}
	before := st.Encode()
	next, aerr := st.Apply(delta, snap.Name(base))
	if !bytes.Equal(st.Encode(), before) {
		t.Fatalf("decoded fold modified its base (fold error %v)", aerr)
	}
	if (aerr == nil) != (err == nil) || (aerr == nil && !bytes.Equal(next.Encode(), full)) {
		t.Fatalf("decoded fold (error %v) disagrees with ApplyCoordinatorDelta (error %v)", aerr, err)
	}
	return full, err
}
