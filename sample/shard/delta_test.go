package shard_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// TestCoordinatorDeltaReproducesFull: folding a coordinator delta
// chain must reproduce the live coordinator's full snapshot
// bit-for-bit, and a restored-from-chain coordinator must answer
// exactly like the original.
func TestCoordinatorDeltaReproducesFull(t *testing.T) {
	stream := make([]int64, 900)
	for i := range stream {
		stream[i] = int64((i*i*13 + i) % 127)
	}
	c := shard.NewLp(2, 128, int64(len(stream))+1, 0.2, 5, shard.Config{Shards: 2, Queries: 2})
	defer c.Close()
	c.ProcessBatch(stream[:300])
	base, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c.ProcessBatch(stream[300:600])
	d1, err := c.SnapshotDelta(base)
	if err != nil {
		t.Fatalf("SnapshotDelta: %v", err)
	}
	mid, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := shard.ApplyCoordinatorDelta(base, d1); err != nil || !bytes.Equal(got, mid) {
		t.Fatalf("ApplyCoordinatorDelta diverges: err=%v equal=%v", err, bytes.Equal(got, mid))
	}
	c.ProcessBatch(stream[600:])
	d2, err := c.SnapshotDelta(mid)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	folded, err := shard.ResolveCoordinatorChain(base, d1, d2)
	if err != nil {
		t.Fatalf("ResolveCoordinatorChain: %v", err)
	}
	if !bytes.Equal(folded, final) {
		t.Fatalf("folded chain (%d bytes) diverges from the final snapshot (%d bytes)",
			len(folded), len(final))
	}
	if len(d1) >= len(mid) {
		t.Fatalf("delta (%d bytes) not smaller than the full snapshot (%d bytes)", len(d1), len(mid))
	}

	// Wrong-base application fails with the typed sentinel.
	if _, err := shard.ApplyCoordinatorDelta(base, d2); !errors.Is(err, snap.ErrDeltaBaseMismatch) {
		t.Fatalf("wrong base: %v, want snap.ErrDeltaBaseMismatch", err)
	}

	// The folded checkpoint restores a coordinator that answers exactly
	// like the live one.
	restored, err := shard.RestoreCoordinator(folded)
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	defer restored.Close()
	for q := 0; q < 3; q++ {
		want, wn := c.SampleK(2)
		got, gn := restored.SampleK(2)
		if gn != wn || len(got) != len(want) {
			t.Fatalf("query %d: restored %d draws, live %d", q, gn, wn)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d draw %d: %+v vs %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestDecodedCodecMatchesBytes: the decoded codec (Cut, Delta, Apply)
// is the byte codec without its decode round trips. Under random churn
// on L1, Lp p=2, Lp p=0.5 and M-estimator coordinators — some
// intervals missing some shards, some with a query between the cuts —
// the decoded diff ships EncodeCoordinatorDelta's bytes, the decoded
// fold re-encodes to ApplyCoordinatorDelta's bytes, a wrong base still
// wraps snap.ErrDeltaBaseMismatch, the fold runs the decoder's
// structural checks, and no fold, failing or hostile, changes the base
// it folds onto.
func TestDecodedCodecMatchesBytes(t *testing.T) {
	cfg := shard.Config{Shards: 4, Queries: 2}
	cases := []struct {
		name string
		mk   func() *shard.Coordinator
	}{
		{"l1", func() *shard.Coordinator { return shard.NewL1(0.2, 3, cfg) }},
		{"lp2", func() *shard.Coordinator { return shard.NewLp(2, 256, 1<<14, 0.2, 4, cfg) }},
		{"lp0.5", func() *shard.Coordinator { return shard.NewLp(0.5, 256, 1<<14, 0.2, 5, cfg) }},
		{"huber", func() *shard.Coordinator { return shard.New(sample.MeasureHuber(3), 1<<14, 0.2, 6, cfg) }},
	}
	src := rng.New(77)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			defer c.Close()
			base, baseBytes := cutChecked(t, c)
			untouched, structural := 0, 0
			for round := 0; round < 8; round++ {
				// A few distinct items per interval, so hash routing
				// leaves some shards untouched.
				items := make([]int64, 1+src.Intn(300))
				distinct := 1 + src.Intn(3)
				for i := range items {
					items[i] = int64(round*5 + src.Intn(distinct))
				}
				c.ProcessBatch(items)
				if round%3 == 1 {
					c.SampleK(2) // flips coins in every pool
				}
				cur, curBytes := cutChecked(t, c)
				baseName := snap.Name(baseBytes)

				want, err := shard.EncodeCoordinatorDelta(baseBytes, curBytes)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cur.Delta(base, baseName)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("round %d: decoded diff differs from EncodeCoordinatorDelta (err %v)", round, err)
				}
				wantFull, err := shard.ApplyCoordinatorDelta(baseBytes, want)
				if err != nil || !bytes.Equal(wantFull, curBytes) {
					t.Fatalf("round %d: byte fold does not reproduce the cut (err %v)", round, err)
				}
				next, err := base.Apply(got, baseName)
				if err != nil || !bytes.Equal(next.Encode(), wantFull) {
					t.Fatalf("round %d: decoded fold differs from ApplyCoordinatorDelta (err %v)", round, err)
				}
				if _, err := cur.Apply(got, snap.Name(curBytes)); !errors.Is(err, snap.ErrDeltaBaseMismatch) {
					t.Fatalf("round %d: wrong base: %v, want snap.ErrDeltaBaseMismatch", round, err)
				}
				structural += hostileFolds(t, base, baseBytes, baseName, got)

				bs, err := base.SamplerStates()
				if err != nil {
					t.Fatal(err)
				}
				cs, err := cur.SamplerStates()
				if err != nil {
					t.Fatal(err)
				}
				for j := range bs {
					if poolLen(bs[j]) == poolLen(cs[j]) {
						untouched++
					}
				}
				base, baseBytes = cur, curBytes
			}
			if untouched == 0 {
				t.Fatal("no interval left a shard untouched")
			}
			if structural == 0 {
				t.Fatal("no hostile fold reached the structural checks")
			}
		})
	}
}

// cutChecked cuts c and checks the decoded state encodes to the cut's
// bytes, which Snapshot returns too.
func cutChecked(t *testing.T, c *shard.Coordinator) (*shard.CoordinatorState, []byte) {
	t.Helper()
	st, data, err := c.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Encode(), data) {
		t.Fatal("Cut's state does not encode to its bytes")
	}
	if again, err := c.Snapshot(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("Snapshot differs from Cut's bytes (err %v)", err)
	}
	return st, data
}

// hostileFolds folds truncations and byte flips of delta onto base and
// checks base still encodes to baseBytes after each, failing or not. It
// returns how many folds the structural checks refused (pool lengths
// against the total, the round-robin cursor against the shard count).
func hostileFolds(t *testing.T, base *shard.CoordinatorState, baseBytes []byte, name string, delta []byte) int {
	t.Helper()
	structural := 0
	fold := func(what string, d []byte) {
		_, err := base.Apply(d, name)
		if err != nil && (strings.Contains(err.Error(), "pool lengths sum") ||
			strings.Contains(err.Error(), "round-robin cursor")) {
			structural++
		}
		if !bytes.Equal(base.Encode(), baseBytes) {
			t.Fatalf("%s: a fold modified its base (err %v)", what, err)
		}
	}
	stride := max(1, len(delta)/64)
	for n := 0; n < len(delta); n += stride {
		fold("truncated", delta[:n])
	}
	for i := 0; i < len(delta); i++ {
		if i >= 160 && i%stride != 0 {
			continue
		}
		for _, x := range []byte{0x02, 0xff} {
			d := bytes.Clone(delta)
			d[i] ^= x
			fold("flipped", d)
		}
	}
	return structural
}

// poolLen is the stream mass of one per-shard state's pool.
func poolLen(st sample.State) int64 {
	if st.Lp != nil {
		return st.Lp.Pool.T
	}
	return st.G.T
}
