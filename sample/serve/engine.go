package serve

// The engine seam: a Node serves whatever can ingest batches, answer
// sampling queries and cut snapshots. Two shapes exist — a
// shard.Coordinator (the fleet-member default: sharded ingestion,
// merged node-local queries) and one bare sample.Sampler (the shape
// the single-stream kinds take on the network: random-order, matrix
// rows, strict-turnstile F0, multipass — whose guarantees ride one
// arrival order or one replayable buffer and gain nothing from a
// worker fan-out). Restore sniffs the checkpoint's kind byte and
// rebuilds whichever shape wrote it, so crash recovery is uniform.

import (
	"fmt"
	"strings"
	"sync"

	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// engine is what a Node serves. ProcessBatch takes one flush group's
// concatenated items and each writer's segment end, and reports hostile
// input as one error per writer (nil when every writer was accepted):
// the ingest handler answers 400 to exactly the writers that sent it.
// Every other method mirrors the coordinator surface the handlers were
// built against.
// SampleKLenShared's bool reports whether the answer reused a shared
// query snapshot (the coordinator's version-stamped cache) — engines
// without one always report false. Epoch is the state epoch the
// node's cut cache keys on (see Node.cut): it moves with every call
// that can change Snapshot's bytes — ingest and queries alike.
type engine interface {
	ProcessBatch(items []int64, ends []int) []error
	SampleKLenShared(k int) ([]sample.Outcome, int, int64, bool)
	Snapshot() ([]byte, error)
	Epoch() uint64
	StreamLen() int64
	BitsUsed() int64
	Describe() string
	Shards() int
	Trials() int
	Queries() int
	Close()
}

// coordEngine serves a shard.Coordinator. Concurrency contracts are
// the coordinator's own (single-producer ingestion, which the Node's
// lock order provides, and an any-goroutine read path). A coordinator
// cannot reject a batch, so the whole group is one ProcessBatch call:
// its state depends only on the item sequence, not on where one
// writer's segment ends.
type coordEngine struct{ c *shard.Coordinator }

func (e coordEngine) ProcessBatch(items []int64, _ []int) []error {
	e.c.ProcessBatch(items)
	return nil
}
func (e coordEngine) SampleKLenShared(k int) ([]sample.Outcome, int, int64, bool) {
	return e.c.SampleKLenShared(k)
}
func (e coordEngine) Snapshot() ([]byte, error) { return e.c.Snapshot() }
func (e coordEngine) Epoch() uint64             { return e.c.Epoch() }
func (e coordEngine) StreamLen() int64          { return e.c.StreamLen() }
func (e coordEngine) BitsUsed() int64           { return e.c.BitsUsed() }
func (e coordEngine) Describe() string          { return e.c.Describe() }
func (e coordEngine) Shards() int               { return e.c.Shards() }
func (e coordEngine) Trials() int               { return e.c.Trials() }
func (e coordEngine) Queries() int              { return e.c.Queries() }
func (e coordEngine) Close()                    { e.c.Close() }

// samplerEngine serves one bare sample.Sampler under a single mutex:
// samplers are not goroutine-safe, and even queries mutate (they
// consume randomness). That cost is fine — the single-stream kinds
// this shape exists for are cheap per update, and their checkpoint is
// snap.Snapshot of the one sampler, which the aggregator already
// merges as a single-state pool (explodeStates). epoch is the engine's
// state epoch, bumped under mu by every ProcessBatch (a rejected
// segment may have ingested a prefix) and every query.
type samplerEngine struct {
	mu       sync.Mutex
	s        sample.Sampler
	epoch    uint64
	describe string
	queries  int
}

func newSamplerEngine(s sample.Sampler) *samplerEngine {
	e := &samplerEngine{s: s, describe: fmt.Sprintf("%T", s), queries: 1}
	if st, ok := s.(sample.Stateful); ok {
		if state, err := st.SnapState(); err == nil {
			e.describe = describeSpec(state.Spec)
			if state.Spec.Queries > 0 {
				e.queries = state.Spec.Queries
			}
		}
	}
	return e
}

// describeSpec renders a bare sampler's constructor spec in the same
// human-readable style shard.Coordinator.Describe uses.
func describeSpec(spec sample.Spec) string {
	s := strings.ToLower(spec.Kind.String())
	if spec.P != 0 {
		s += fmt.Sprintf(" p=%g", spec.P)
	}
	if spec.Tau != 0 {
		s += fmt.Sprintf(" τ=%g", spec.Tau)
	}
	if spec.N != 0 {
		s += fmt.Sprintf(" n=%d", spec.N)
	}
	if spec.M != 0 {
		s += fmt.Sprintf(" m=%d", spec.M)
	}
	if spec.W != 0 {
		s += fmt.Sprintf(" w=%d", spec.W)
	}
	if spec.FreqCap != 0 {
		s += fmt.Sprintf(" cap=%d", spec.FreqCap)
	}
	if spec.Delta != 0 {
		s += fmt.Sprintf(" δ=%g", spec.Delta)
	}
	return s
}

// ProcessBatch feeds each writer's segment on its own, converting the
// packed adapters' hostile-input panics — a negative matrix item, a
// multipass item outside the universe, a strict-turnstile deletion
// below zero — into that writer's error, so a bad client fails alone
// and cannot crash the node. Items before the offending one are
// already ingested when a segment is rejected (the adapters validate
// each update before mutating, so the sampler itself stays consistent
// for the segments after it).
func (e *samplerEngine) ProcessBatch(items []int64, ends []int) []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch++
	var errs []error
	start := 0
	for i, end := range ends {
		if err := e.feed(items[start:end]); err != nil {
			if errs == nil {
				errs = make([]error, len(ends))
			}
			errs[i] = err
		}
		start = end
	}
	return errs
}

// feed runs one segment through the sampler, recovering a rejection.
// Callers hold mu.
func (e *samplerEngine) feed(items []int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: batch rejected: %v", r)
		}
	}()
	e.s.ProcessBatch(items)
	return nil
}

func (e *samplerEngine) SampleKLenShared(k int) ([]sample.Outcome, int, int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch++
	outs, n := e.s.SampleK(k)
	return outs, n, e.s.StreamLen(), false
}

func (e *samplerEngine) Snapshot() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return snap.Snapshot(e.s)
}

func (e *samplerEngine) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

func (e *samplerEngine) StreamLen() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.StreamLen()
}

func (e *samplerEngine) BitsUsed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.s.BitsUsed()
}

func (e *samplerEngine) Describe() string { return e.describe }
func (e *samplerEngine) Shards() int      { return 1 }
func (e *samplerEngine) Trials() int      { return 0 }
func (e *samplerEngine) Queries() int     { return e.queries }
func (e *samplerEngine) Close()           {} // no goroutines to stop

// restoreEngine rebuilds whichever engine shape wrote a checkpoint:
// coordinator bytes (kind 0xC0) restore through sample/shard, bare
// sampler bytes through snap.Restore.
func restoreEngine(data []byte) (engine, error) {
	if shard.IsCoordinatorSnapshot(data) {
		c, err := shard.RestoreCoordinator(data)
		if err != nil {
			return nil, err
		}
		return coordEngine{c}, nil
	}
	s, err := snap.Restore(data)
	if err != nil {
		return nil, err
	}
	return newSamplerEngine(s), nil
}
