package serve

// Flavor dispatch for wire-format-v2 deltas. A node's snapshots are
// coordinator checkpoints (kind 0xC0, codec in sample/shard) but the
// serving layer also meets bare sampler snapshots (a peer serving
// sample/snap bytes without a coordinator); these helpers pick the
// right codec by sniffing the kind byte, the same dispatch the
// aggregator already does for full snapshots via IsCoordinatorSnapshot.

import (
	"fmt"
	"strings"

	"repro/sample/shard"
	"repro/sample/snap"
)

// encodeAnyDelta computes the v2 delta turning the remembered state
// base into the full snapshot cur, whichever codec owns the kind. A
// coordinator diffs decoded states: base.state and curState (nil when
// the caller holds only cur's bytes) are decoded only when missing, and
// the delta records base.name instead of hashing base.data again. It
// also returns cur's decoded state, for the caller to remember as a
// future base (nil for a bare sampler).
func encodeAnyDelta(base servedBase, cur []byte, curState *shard.CoordinatorState) ([]byte, *shard.CoordinatorState, error) {
	if curState == nil && !shard.IsCoordinatorSnapshot(cur) {
		d, err := snap.EncodeDelta(base.data, cur)
		return d, nil, err
	}
	var err error
	if curState == nil {
		if curState, err = shard.DecodeCoordinator(cur); err != nil {
			return nil, nil, fmt.Errorf("shard: delta target: %w", err)
		}
	}
	b := base.state
	if b == nil {
		if b, err = shard.DecodeCoordinator(base.data); err != nil {
			return nil, curState, fmt.Errorf("shard: delta base: %w", err)
		}
	}
	d, err := curState.Delta(b, base.name)
	return d, curState, err
}

// applyAnyDelta folds one v2 delta onto its base full snapshot,
// returning the successor's full v1 bytes.
func applyAnyDelta(base, delta []byte) ([]byte, error) {
	if shard.IsCoordinatorSnapshot(base) {
		return shard.ApplyCoordinatorDelta(base, delta)
	}
	return snap.ApplyDelta(base, delta)
}

// isDeltaName reports whether a stored checkpoint name was written for
// v2 delta bytes. The content-addressed part of a stored name embeds
// snap.Name's kind label, which carries a "-delta" suffix for v2 — so
// the store can tell chain links from anchors without reading a byte.
// (Kind labels are lowercase constructor names; none contains "delta",
// so the marker cannot collide with a hash or a label.)
func isDeltaName(name string) bool {
	return strings.Contains(contentOf(name), "-delta-")
}
