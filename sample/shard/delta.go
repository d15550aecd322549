package shard

// Wire format v2 for coordinator snapshots — the fleet-checkpoint
// counterpart of sample/snap's sampler deltas, sharing the same v2
// preamble (magic, version 2, kind 0xC0, content-addressed base name)
// and the same contract: ApplyCoordinatorDelta(base, delta) returns
// the successor checkpoint's full v1 bytes bit-for-bit, so chains fold
// back into exactly the snapshot Coordinator.Snapshot would have cut.
// The payload is the routing scalars (total, round-robin cursor,
// router RNG) plus one presence bit per shard: an untouched shard —
// common under hash routing when a checkpoint interval's traffic
// misses it — costs a single byte, and a touched shard ships only its
// pool's core.GSamplerDelta (and normalizer delta, for Lp p > 1). The
// constructor spec and config are not re-encoded: a delta only applies
// to a checkpoint of the same coordinator, which the base carries and
// the name check enforces.

import (
	"fmt"
	"slices"

	"repro/internal/misragries"
	"repro/internal/wire"
	"repro/sample/snap"
)

// SnapshotDelta drains the coordinator and encodes its state as a v2
// delta against base — full v1 bytes of one of this coordinator's own
// earlier checkpoints (Snapshot). The coordinator stays usable
// afterwards.
func (c *Coordinator) SnapshotDelta(base []byte) ([]byte, error) {
	cur, err := c.exportState()
	if err != nil {
		return nil, err
	}
	db, err := DecodeCoordinator(base)
	if err != nil {
		return nil, fmt.Errorf("shard: delta base: %w", err)
	}
	return cur.Delta(db, snap.Name(base))
}

// EncodeCoordinatorDelta computes the v2 delta that turns the full v1
// coordinator snapshot base into cur. Both must come from the same
// coordinator (identical spec and config);
// ApplyCoordinatorDelta(base, result) reproduces cur bit-for-bit.
func EncodeCoordinatorDelta(base, cur []byte) ([]byte, error) {
	db, err := DecodeCoordinator(base)
	if err != nil {
		return nil, fmt.Errorf("shard: delta base: %w", err)
	}
	dc, err := DecodeCoordinator(cur)
	if err != nil {
		return nil, fmt.Errorf("shard: delta target: %w", err)
	}
	return dc.Delta(db, snap.Name(base))
}

// Delta is EncodeCoordinatorDelta on decoded states: the v2 delta that
// turns base into d, where baseName is snap.Name of base's v1 bytes —
// the name the delta records, which the caller already holds.
func (d *CoordinatorState) Delta(base *CoordinatorState, baseName string) ([]byte, error) {
	if base.spec != d.spec || base.cfg != d.cfg {
		return nil, fmt.Errorf("shard: delta base is a different coordinator (%+v/%+v vs %+v/%+v)",
			base.spec, base.cfg, d.spec, d.cfg)
	}
	w := &wire.Writer{}
	wire.PutDeltaHeader(w, wire.KindCoordinator, baseName)
	w.Varint(d.total)
	w.Uvarint(uint64(d.rr))
	w.U64(d.hi)
	w.U64(d.lo)
	w.Uvarint(uint64(len(d.pools)))
	for j := range d.pools {
		pd, err := d.pools[j].Diff(base.pools[j])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", j, err)
		}
		changed := pd.ChangedFrom(base.pools[j])
		var mgd misragries.Delta
		hasMG := d.mgs[j] != nil
		if hasMG {
			if mgd, err = d.mgs[j].Diff(*base.mgs[j]); err != nil {
				return nil, fmt.Errorf("shard %d normalizer: %w", j, err)
			}
			changed = changed || mgd.ChangedFrom(*base.mgs[j])
		}
		// One presence bit per shard: a shard the interval's traffic
		// missed costs a single byte.
		w.Bool(changed)
		if changed {
			wire.PutGSamplerDelta(w, pd)
			if hasMG {
				wire.PutMGDelta(w, mgd)
			}
		}
	}
	return w.Bytes(), nil
}

// ApplyCoordinatorDelta folds one v2 delta onto its base coordinator
// snapshot, returning the successor checkpoint's full v1 bytes. The
// delta must name this exact base (snap.ErrDeltaBaseMismatch wrapped
// otherwise), and the result must pass DecodeCoordinator's structural
// checks. Pool contents are re-validated by whatever restores the
// bytes next (RestoreCoordinator, sample.FromState), exactly as for
// bytes read off disk.
func ApplyCoordinatorDelta(base, delta []byte) ([]byte, error) {
	db, err := DecodeCoordinator(base)
	if err != nil {
		return nil, fmt.Errorf("shard: delta base: %w", err)
	}
	next, err := db.Apply(delta, snap.Name(base))
	if err != nil {
		return nil, err
	}
	return next.Encode(), nil
}

// Apply is ApplyCoordinatorDelta on a decoded base: it folds delta onto
// a copy of d, whose v1 bytes are named name, and returns the
// successor state after DecodeCoordinator's structural checks. d itself
// is never modified, whether the fold succeeds or not, so a cached base
// survives a hostile delta.
func (d *CoordinatorState) Apply(delta []byte, name string) (*CoordinatorState, error) {
	r := wire.NewReader(delta)
	kind, bname := wire.DeltaHeader(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if kind != wire.KindCoordinator {
		return nil, fmt.Errorf("shard: not a coordinator delta (kind %d)", kind)
	}
	if bname != name {
		return nil, fmt.Errorf("%w: delta wants base %s, applied to %s",
			snap.ErrDeltaBaseMismatch, bname, name)
	}
	next := *d
	next.pools = slices.Clone(d.pools)
	next.mgs = slices.Clone(d.mgs)
	next.total = r.Varint()
	next.rr = int(r.Uvarint() & 0xffff)
	next.hi = r.U64()
	next.lo = r.U64()
	if n := r.Count(1); r.Err() == nil && n != len(next.pools) {
		return nil, fmt.Errorf("shard: delta spans %d shards, base has %d", n, len(next.pools))
	}
	for j := range next.pools {
		if !r.Bool() {
			continue
		}
		pd := wire.GSamplerDeltaR(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		pool, err := pd.Apply(next.pools[j])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", j, err)
		}
		next.pools[j] = pool
		if next.mgs[j] != nil {
			mgd := wire.MGDeltaR(r)
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("shard: %w", err)
			}
			mg, err := mgd.Apply(*next.mgs[j])
			if err != nil {
				return nil, fmt.Errorf("shard %d normalizer: %w", j, err)
			}
			next.mgs[j] = &mg
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if err := next.validate(); err != nil {
		return nil, err
	}
	return &next, nil
}

// ResolveCoordinatorChain folds a coordinator snapshot chain — one
// full v1 checkpoint followed by zero or more v2 deltas in application
// order — back into the final checkpoint's full v1 bytes, verifying
// every link's base name. It is the coordinator counterpart of
// snap.Resolve.
func ResolveCoordinatorChain(full []byte, deltas ...[]byte) ([]byte, error) {
	if v, _, err := wire.Sniff(full); err != nil || v != wire.FormatVersion {
		return nil, fmt.Errorf("shard: chain must start with a full v1 snapshot")
	}
	cur := full
	for i, d := range deltas {
		next, err := ApplyCoordinatorDelta(cur, d)
		if err != nil {
			return nil, fmt.Errorf("shard: resolve delta %d of %d: %w", i+1, len(deltas), err)
		}
		cur = next
	}
	return cur, nil
}
