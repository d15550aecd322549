package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/sample"
	"repro/sample/shard"
	"repro/sample/snap"
)

// DefaultMaxBodyBytes bounds POST /ingest bodies when NodeConfig
// leaves MaxBodyBytes zero: 4 MiB ≈ half a million items per batch in
// JSON, far past the throughput-optimal batch size.
const DefaultMaxBodyBytes = 4 << 20

// NodeConfig tunes a Node. The zero value serves queries and ingestion
// with no checkpointing.
type NodeConfig struct {
	// Store receives checkpoints. nil disables checkpointing entirely
	// (including the final one on Close).
	Store SnapshotStore
	// CheckpointEvery is the ticker interval for background
	// checkpoints; zero means checkpoints happen only on Close or via
	// explicit Checkpoint calls. The interval is the durability knob:
	// after a crash (not a graceful Close) the node restores to the
	// last checkpoint, losing at most one interval's acknowledged
	// updates.
	CheckpointEvery time.Duration
	// MaxBodyBytes bounds a single /ingest body; DefaultMaxBodyBytes
	// when zero.
	MaxBodyBytes int64
	// KeepCheckpoints is how many of the newest node-written
	// checkpoints survive pruning after each successful write:
	// DefaultKeepCheckpoints when zero, unbounded when negative.
	// Retention > 1 is what makes Restore's fall-back-to-previous
	// useful: a torn or corrupt latest file degrades to one lost
	// interval instead of a bricked node. Hand-placed foreign names are
	// never pruned. With delta checkpoints the window extends backwards
	// to the full checkpoint anchoring the oldest kept file — a delta
	// is useless without its chain, so pruning never orphans one.
	KeepCheckpoints int
	// FullEvery is the checkpoint path's full-snapshot cadence: every
	// FullEvery-th write is a full v1 snapshot and the writes between
	// are v2 deltas against their predecessor, cutting steady-state
	// checkpoint bandwidth from O(state) to O(change).
	// DefaultFullEvery when zero; 1 (or negative) disables deltas —
	// every checkpoint full. Independent of cadence, Close always
	// writes its final checkpoint full, and the first write after a
	// fresh start is full (a delta needs an in-memory base). A
	// restored node continues its stored chain instead: Restore seeds
	// the base and the chain position from what it folded, so the
	// first post-restore write may be a delta — safe, because every
	// link carries its base's content address and restore-time folding
	// verifies it.
	FullEvery int
	// Debug mounts net/http/pprof under /debug/pprof/ on the node's
	// handler — profiles on the live ingest path, behind a flag
	// because a profile endpoint on an internet-facing port is a
	// self-DoS invitation.
	Debug bool
	// Logger, when non-nil, receives one structured line per request
	// from the tracing middleware (Debug level for successes, Warn/
	// Error for 4xx/5xx) plus node lifecycle events, each stamped with
	// the request ID. nil logs nothing — tracing headers and error-body
	// request IDs still work.
	Logger *slog.Logger
	// CSV, when non-nil, receives one flat row per /ingest request
	// (IngestCSVColumns) for offline per-stage latency attribution —
	// the live histograms aggregate, the rows attribute.
	CSV *obs.CSVRecorder
	// DisableObservability skips metric registration and per-stage
	// timing entirely: /metrics serves an empty registry and the hot
	// paths pay only a nil check. An escape hatch for embedders that
	// instrument at a different layer — and the control arm of the
	// E25 overhead benchmark.
	DisableObservability bool
}

// IngestCSVColumns is the row schema a Node writes through
// NodeConfig.CSV: one row per /ingest request, durations in seconds.
var IngestCSVColumns = []string{
	"time", "request_id", "status", "bytes_in", "items",
	"read_seconds", "decode_seconds", "process_seconds", "total_seconds",
}

// DefaultKeepCheckpoints bounds a node's checkpoint history when
// NodeConfig leaves KeepCheckpoints zero.
const DefaultKeepCheckpoints = 8

// DefaultFullEvery is the full-snapshot cadence when NodeConfig leaves
// FullEvery zero: one full checkpoint anchoring up to 15 deltas keeps
// restore folding cheap while the steady-state write is O(change).
const DefaultFullEvery = 16

// snapshotBaseHistory is how many recent full-snapshot states a node
// keeps in memory to serve /snapshot?since= deltas from: its own last
// checkpoint plus the last states it served to aggregators. Small on
// purpose — each entry is one full snapshot — and an uncovered since
// just degrades to a full response.
const snapshotBaseHistory = 4

// fullEvery resolves the configured cadence.
func (cfg NodeConfig) fullEvery() int {
	switch {
	case cfg.FullEvery == 0:
		return DefaultFullEvery
	case cfg.FullEvery < 1:
		return 1
	}
	return cfg.FullEvery
}

// Node serves one ingestion engine over HTTP — a shard.Coordinator
// (NewNode) or a bare sample.Sampler (NewSamplerNode, the shape the
// single-stream kinds take on the network): batched ingestion,
// node-local queries, the acceptance summary an Aggregator mixes
// (GET /summary, coordinator nodes), stats, and fleet checkpoints —
// both on demand (GET /snapshot, which an Aggregator fetches from a
// node that does not summarize) and on a ticker into the configured
// SnapshotStore. See the package comment for the endpoint inventory
// and the durability contract.
//
// Lock order. A goroutine holding one of these locks takes only locks
// further along its chain, never one before it:
//
//   - ingestMu → batcher.mu: a flush group's opening writer detaches
//     the group, and close drains it, under both;
//   - ingestMu → mu (read) → the engine's own locks: a flush runs the
//     engine inside locked;
//   - ckptMu → mu (read) → cutMu → the engine's own locks: Checkpoint
//     cuts under the node lock, GET /snapshot enters the chain at mu,
//     and Close's final cut skips mu, which is closed by then;
//   - ckptMu → basesMu: a checkpoint write records its base;
//   - mu (read) → sumMu → the engine's own locks: GET /summary reads or
//     refreshes the summary cache.
//
// batcher.mu and basesMu are leaves, held only for bookkeeping and
// never across I/O. Handlers take mu (read) around engine work only;
// /stats loads the checkpoint stats with no lock at all. Close takes
// ingestMu (draining the batcher), then mu for writing, then ckptMu
// for the final checkpoint, one at a time.
type Node struct {
	eng engine
	cfg NodeConfig

	// reg/met are the node's metrics registry (served on GET /metrics)
	// and the typed bundle the hot paths observe into; met is nil when
	// cfg.DisableObservability, and every observe method tolerates
	// that. health backs /healthz and /readyz; draining flips the
	// moment Close starts, making every handler (except liveness and
	// the metrics scrape) answer 503 immediately instead of queueing
	// behind Close's write-lock on mu.
	reg      *obs.Registry
	met      *nodeMetrics
	health   *obs.Health
	draining atomic.Bool
	// lastStream is the stream mass after the last acknowledged
	// /ingest batch — what tp_stream_len reports, kept here so the
	// metrics path never has to take the engine's locks.
	lastStream atomic.Int64

	// mu guards closed. Handlers hold it for read around their
	// engine work (see locked) — never around socket I/O — so
	// Close's write-lock acquisition is the barrier that waits out
	// in-flight engine operations without being hostage to slow
	// clients.
	mu     sync.RWMutex
	closed bool

	// ingestMu serializes engine flushes: the engine's ingestion
	// contract is single-producer (the coordinator's contract; bare
	// samplers lock internally too), and HTTP handlers run on arbitrary
	// goroutines. Only the batcher takes it — a flush group's opening
	// writer to flush the group, and close to drain it.
	ingestMu sync.Mutex

	// batch is the ingest batcher, the one path from a decoded /ingest
	// request to the engine (batcher.go). doClose drains it before the
	// node lock closes, so a writer already in a group still lands in
	// the final checkpoint.
	batch *batcher

	// ckptMu serializes checkpoint cuts (so stored sequence numbers
	// order identically to snapshot cut order) and guards the write-path
	// state below it. It is held across Store.Put: Close's final
	// checkpoint therefore waits behind an in-flight ticker write —
	// deliberately, since abandoning that write would forfeit the
	// lossless-shutdown guarantee (see SnapshotStore on bounding store
	// calls). Monitoring must not share that fate, so the /stats
	// counters live in stats instead.
	ckptMu      sync.Mutex
	seq         uint64
	seqSeeded   bool   // seq accounts for pre-existing store names
	lastContent string // content-addressed name of the last checkpointed STATE
	lastBytes   []byte // full v1 bytes of that state — the next delta's base
	chain       int    // deltas written since the last full checkpoint

	// cutMu serializes snapshot cuts and guards the cut cache: the last
	// cut's bytes and content-addressed name, keyed by the engine state
	// epoch read before it was taken (see cut).
	cutMu    sync.Mutex
	cutEpoch uint64
	cutData  []byte
	cutName  string

	// stats is the checkpoint outcome /stats reports, swapped whole
	// (see setStats). /stats loads it without a lock, so a hung store
	// write cannot dark monitoring.
	stats atomic.Pointer[checkpointStats]

	// sumMu serializes GET /summary and guards the summary cache: the
	// last summary served, its encoding and ETag, and the engine epoch
	// it was current at (see summary). sumBuilds counts the plan
	// instances this node has summarized; with the random sumPrefix it
	// names them in the ETag. It identifies a cache entry, not sampler
	// state, so no checkpoint carries it: a restored node draws a new
	// prefix.
	sumMu     sync.Mutex
	sum       *snap.Summary
	sumData   []byte
	sumTag    string
	sumEpoch  uint64
	sumPrefix string
	sumBuilds uint64

	// basesMu guards the ring of recent full-snapshot states kept to
	// serve /snapshot?since= deltas (see snapshotBaseHistory), held only
	// for slice bookkeeping.
	basesMu sync.Mutex
	bases   []servedBase

	stop chan struct{} // closed by Close to stop the ticker
	done chan struct{} // closed by the ticker goroutine on exit

	// closeOnce/closeErr make every Close call report the FIRST Close's
	// outcome — and, crucially, block until it finishes. Returning early
	// on a "already closing" check would let a racing shutdown path
	// proceed (to os.Exit, say) while the final checkpoint is still
	// being written.
	closeOnce sync.Once
	closeErr  error
}

// NewNode wraps a coordinator. The node takes ownership: Close closes
// the coordinator, and callers must not ingest into it directly while
// the node serves (queries and snapshots are safe — they share the
// coordinator's any-goroutine read path).
//
// If cfg.Store already holds checkpoints (a previous incarnation's —
// note that continuing one is Restore's job, not NewNode's), new
// checkpoints sequence past them: restarting the sequence at 0 would
// let the stale files shadow every new write, and a later Restore
// would silently resurrect the old state.
func NewNode(c *shard.Coordinator, cfg NodeConfig) *Node {
	return newNodeFromEngine(coordEngine{c}, cfg)
}

// NewSamplerNode wraps one bare sampler — the serving shape for the
// single-stream kinds (random-order, matrix rows, turnstile F0,
// multipass), whose guarantees ride one arrival order or one
// replayable buffer and therefore never ride a coordinator. The node
// takes ownership exactly as NewNode does; ingestion is serialized
// internally, hostile packed items (the Stream views' panics) answer
// 400, and checkpoints are snap.Snapshot bytes serve.Restore and the
// aggregator both already understand.
func NewSamplerNode(s sample.Sampler, cfg NodeConfig) *Node {
	return newNodeFromEngine(newSamplerEngine(s), cfg)
}

func newNodeFromEngine(eng engine, cfg NodeConfig) *Node {
	n := newNode(eng, cfg)
	if n.cfg.Store != nil {
		// Best-effort now (so a listing failure surfaces in /stats
		// immediately); checkpoint() re-runs seedSeq before the first
		// write, so a transient failure here can never cause a write at
		// an unseeded (shadowed) sequence number.
		n.ckptMu.Lock()
		if err := n.seedSeq(); err != nil {
			n.setStats(func(st *checkpointStats) { st.lastErr = err })
		}
		n.ckptMu.Unlock()
	}
	n.start()
	return n
}

// seedSeq makes n.seq sequence past every checkpoint already in the
// store (a previous incarnation's — continuing one is Restore's job):
// restarting at 0 would let stale files shadow every new write and a
// later Restore would resurrect the old state. Foreign (hand-placed)
// names carry no sequence and do not bump it. Callers hold ckptMu.
func (n *Node) seedSeq() error {
	if n.seqSeeded {
		return nil
	}
	names, err := n.cfg.Store.Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		if isSeqName(name) && seqOf(name) >= n.seq {
			n.seq = seqOf(name) + 1
		}
	}
	n.seqSeeded = true
	return nil
}

// SkippedCheckpoint records one stored checkpoint file Restore could
// not fold into the restored state, and why — so an operator can tell
// a torn tail (one file, a truncation or base-mismatch error, the
// documented ≤-one-interval loss) from a corrupt store (many files,
// validation errors). Restore returns them alongside the node; they
// are informational, not fatal.
type SkippedCheckpoint struct {
	Name string
	Err  error
}

// Restore rebuilds a node from the newest restorable state in store —
// whichever shape wrote it: a coordinator checkpoint restores the
// coordinator node, bare sampler bytes (NewSamplerNode's checkpoints)
// restore the sampler node. Either way the engine continues ingestion
// and queries bit-for-bit from the captured state, and new checkpoints
// sequence after the restored one. With delta checkpoints (NodeConfig.
// FullEvery) the newest state is a chain — a full checkpoint plus the
// deltas after it — which Restore folds link by link, verifying each
// delta's content-addressed base name. A file that fails to decode or
// apply (torn by a crash mid-write on a store without atomic Put,
// damaged by hand, orphaned by an earlier fallback) does not brick the
// node: Restore skips it, keeps folding whatever still chains, and
// falls back to the next older full checkpoint when an anchor itself
// is bad — trading staleness for availability. Every file it passed
// over is reported in the skipped list. cfg.Store is ignored — the
// node checkpoints back into the store it restored from.
func Restore(store SnapshotStore, cfg NodeConfig) (*Node, []SkippedCheckpoint, error) {
	t0 := time.Now()
	names, err := store.Names()
	if err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("serve: store holds no snapshots: %w", os.ErrNotExist)
	}
	// Node-written checkpoints first, then hand-placed foreign names as
	// a last resort — the same preference Latest applies, so a seeded
	// store can never pin a node to stale foreign state.
	var seqs, foreign []string
	var maxSeq uint64
	for _, nm := range names {
		if isSeqName(nm) {
			seqs = append(seqs, nm)
			if s := seqOf(nm); s > maxSeq {
				maxSeq = s
			}
		} else {
			foreign = append(foreign, nm)
		}
	}
	// A read error anywhere aborts: it is not evidence the checkpoint
	// is bad — it may be a transient store failure on perfectly durable
	// bytes. Falling back would resume from stale state and permanently
	// shadow the newer file, so refuse instead and let the operator
	// retry.
	blobs := make(map[string][]byte, len(seqs))
	get := func(nm string) ([]byte, error) {
		if b, ok := blobs[nm]; ok {
			return b, nil
		}
		b, err := store.Get(nm)
		if err != nil {
			return nil, fmt.Errorf("serve: restore %s: %w", nm, err)
		}
		blobs[nm] = b
		return b, nil
	}
	finish := func(eng engine, state []byte, stored string, chain int) *Node {
		cfg.Store = store
		n := newNode(eng, cfg)
		// Sequence past the store's MAX, not the restored name: after
		// skipping a torn newest checkpoint, the next write must not
		// reuse its sequence number (two same-seq names would order by
		// content hash, not write order, breaking the Latest contract).
		n.seq = maxSeq + 1
		n.seqSeeded = true
		n.stats.Store(&checkpointStats{lastName: stored})
		n.lastContent = snap.Name(state)
		n.lastBytes = state
		n.chain = chain
		n.rememberBase(n.lastContent, state, nil)
		n.start()
		return n
	}
	var firstErr error
	anchorFail := map[string]error{}
	// tryAnchor folds tail (stored names, ascending) onto one full
	// anchor and attempts the restore; ok=false means fall further
	// back, fatal aborts the whole Restore (read errors only).
	type link struct {
		name string
		err  error // nil: folded cleanly
	}
	tryAnchor := func(anchorName string, anchor []byte, tail []string) (node *Node, sk []SkippedCheckpoint, fatal error, ok bool) {
		cur, stored, chain := anchor, anchorName, 0
		var links []link
		for _, nm := range tail {
			b, err := get(nm)
			if err != nil {
				return nil, nil, err, false
			}
			if !snap.IsDelta(b) {
				// A newer full checkpoint that already failed as an
				// anchor (anchors are tried newest-first).
				links = append(links, link{nm, fmt.Errorf("serve: restore %s: %w", nm, anchorFail[nm])})
				continue
			}
			next, err := applyAnyDelta(cur, b)
			if err != nil {
				// Torn, corrupt, or its base was itself skipped: the
				// base-name check catches every downstream link too.
				links = append(links, link{nm, fmt.Errorf("serve: restore %s: %w", nm, err)})
				continue
			}
			cur, stored = next, nm
			chain++
			links = append(links, link{nm, nil})
		}
		skippedOf := func(foldErr error) []SkippedCheckpoint {
			var out []SkippedCheckpoint
			for _, l := range links {
				switch {
				case l.err != nil:
					out = append(out, SkippedCheckpoint{l.name, l.err})
				case foldErr != nil:
					out = append(out, SkippedCheckpoint{l.name,
						fmt.Errorf("serve: folded chain failed to restore: %w", foldErr)})
				}
			}
			return out
		}
		eng, foldErr := restoreEngine(cur)
		if foldErr == nil {
			return finish(eng, cur, stored, chain), skippedOf(nil), nil, true
		}
		if chain > 0 {
			// The folded state does not restore — a delta may have
			// poisoned it. The anchor alone is still a valid (staler)
			// checkpoint; prefer it over falling a whole segment back.
			if eng, err := restoreEngine(anchor); err == nil {
				return finish(eng, anchor, anchorName, 0), skippedOf(foldErr), nil, true
			}
		}
		anchorFail[anchorName] = foldErr
		if firstErr == nil {
			firstErr = fmt.Errorf("serve: restore %s: %w", anchorName, foldErr)
		}
		return nil, nil, nil, false
	}
	// Node-written full checkpoints newest-first, folding every newer
	// file that chains onto them.
	for a := len(seqs) - 1; a >= 0; a-- {
		data, err := get(seqs[a])
		if err != nil {
			return nil, nil, err
		}
		if snap.IsDelta(data) {
			continue // a delta cannot anchor; it folds in tryAnchor
		}
		node, sk, fatal, ok := tryAnchor(seqs[a], data, seqs[a+1:])
		if fatal != nil {
			return nil, nil, fatal
		}
		if ok {
			node.met.restored(time.Since(t0), len(sk))
			return node, sk, nil
		}
	}
	// Foreign fallback, newest-by-name first (matching DirStore.Latest).
	// A foreign full can anchor node-written deltas too: a node that
	// restored from (or dedup'd against) a seeded snapshot chains its
	// first deltas off it, and the base-name checks skip whatever does
	// not belong.
	slices.Reverse(foreign)
	for _, nm := range foreign {
		data, err := get(nm)
		if err != nil {
			return nil, nil, err
		}
		if snap.IsDelta(data) {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: restore %s: foreign delta has no chain to fold", nm)
			}
			continue
		}
		node, sk, fatal, ok := tryAnchor(nm, data, seqs)
		if fatal != nil {
			return nil, nil, fatal
		}
		if ok {
			node.met.restored(time.Since(t0), len(sk))
			return node, sk, nil
		}
	}
	if firstErr == nil {
		// Only delta files without a read error can get here: nothing
		// anchors a fold.
		firstErr = fmt.Errorf("serve: store holds no full checkpoint to anchor a restore: %w", os.ErrNotExist)
	}
	return nil, nil, firstErr
}

func newNode(eng engine, cfg NodeConfig) *Node {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	n := &Node{
		eng:       eng,
		cfg:       cfg,
		reg:       obs.NewRegistry(),
		health:    obs.NewHealth(),
		sumPrefix: strconv.FormatUint(rand.Uint64(), 36),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	n.batch = &batcher{node: n}
	n.stats.Store(&checkpointStats{})
	if !cfg.DisableObservability {
		n.met = newNodeMetrics(n.reg)
		if n.cfg.Store != nil {
			// Every store call the node makes from here on — checkpoint
			// writes, pruning listings, seeding — lands in the
			// tp_store_op_seconds histograms.
			n.cfg.Store = newTimedStore(n.cfg.Store, n.reg)
		}
	}
	return n
}

// Metrics returns the node's metrics registry — the same one GET
// /metrics serves — for embedders that scrape in-process.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// start launches the checkpoint ticker (or closes done immediately
// when no ticker is configured, so Close never blocks) and flips the
// node ready: construction (and, for Restore, chain folding) is done.
func (n *Node) start() {
	n.health.SetReady()
	if n.cfg.Store == nil || n.cfg.CheckpointEvery <= 0 {
		close(n.done)
		return
	}
	go func() {
		defer close(n.done)
		t := time.NewTicker(n.cfg.CheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Errors are recorded in the stats, not fatal: a full
				// disk must not take ingestion down with it.
				_, _ = n.Checkpoint()
			case <-n.stop:
				return
			}
		}
	}()
}

// Coordinator returns the wrapped coordinator, or nil for a sampler
// node (NewSamplerNode). Callers may query it directly but must not
// ingest into it while the node serves.
func (n *Node) Coordinator() *shard.Coordinator {
	if ce, ok := n.eng.(coordEngine); ok {
		return ce.c
	}
	return nil
}

// Describe renders the served engine's constructor in human-readable
// form — shard.Coordinator.Describe for coordinator nodes, the spec's
// rendering for sampler nodes.
func (n *Node) Describe() string { return n.eng.Describe() }

// StreamLen reports the engine's processed stream mass.
func (n *Node) StreamLen() int64 { return n.eng.StreamLen() }

// Checkpoint cuts a snapshot now and writes it to the store (a no-op
// returning its error when no store is configured). The stored name —
// a zero-padded sequence number plus the content-addressed snap.Name
// of the *written bytes* (a delta's own name for delta checkpoints) —
// is returned; it is what Latest orders by. When the state has not
// changed since the last write, the codec's determinism makes the
// state name identical and the write is skipped (the returned name is
// the existing checkpoint's) — an idle node costs its store nothing.
// On the cadence between cfg.FullEvery fulls, the write is a v2 delta
// against the previous checkpoint's state (serve.Restore folds the
// chain back), so a slowly-churning node also pays only O(change)
// bytes per interval.
func (n *Node) Checkpoint() (string, error) {
	return n.checkpoint(func() (data []byte, name string, state *shard.CoordinatorState, err error) {
		err = n.locked(func() error {
			data, name, state, err = n.cut()
			return err
		})
		return data, name, state, err
	}, false)
}

// cut returns the engine's current snapshot bytes, their
// content-addressed state name and, on a fresh coordinator cut, the
// decoded state (nil on a cache hit: the cache keeps bytes only, so an
// idle node holds no decoded copy). It is the one cut path: GET /snapshot,
// Checkpoint and Close's final checkpoint all call it. The last cut is
// cached under the engine's state epoch, which every ingest and every
// query bumps, so while the engine is untouched a cut costs an integer
// compare instead of a drain, a full encode and a SHA-256. The epoch is
// read before cutting, in the same cutMu hold: a mutation racing the
// cut leaves the cached epoch behind the engine's, which costs the next
// caller one miss, never a stale hit. The cached bytes are shared and
// must not be modified. Callers hold the node read lock (locked),
// except Close's final cut, which runs after handlers are refused.
func (n *Node) cut() ([]byte, string, *shard.CoordinatorState, error) {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	epoch := n.eng.Epoch()
	if n.cutData != nil && n.cutEpoch == epoch {
		n.met.snapshotCut(true)
		return n.cutData, n.cutName, nil, nil
	}
	n.met.snapshotCut(false)
	state, data, err := n.eng.Cut()
	if err != nil {
		return nil, "", nil, err
	}
	n.cutEpoch, n.cutData, n.cutName = epoch, data, snap.Name(data)
	return data, n.cutName, state, nil
}

// checkpoint cuts via cut and writes the result to the store. Only the
// cut itself may touch the engine (Checkpoint wraps it in locked;
// Close passes a direct cut after the node stops accepting requests).
// The store write runs under ckptMu alone — a slow or hung store must
// not hold the node lock and thereby block Close. final forces a full
// snapshot regardless of cadence: the shutdown checkpoint must restore
// without older files.
func (n *Node) checkpoint(cut func() ([]byte, string, *shard.CoordinatorState, error), final bool) (string, error) {
	if n.cfg.Store == nil {
		return "", errors.New("serve: node has no snapshot store")
	}
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	tCut := time.Now()
	data, content, state, err := cut()
	n.met.checkpointCut(time.Since(tCut))
	if err == nil {
		if last := n.stats.Load().lastName; content == n.lastContent && last != "" {
			// Unchanged state, already durably stored: that is a
			// checkpoint success, so a stale earlier failure must not
			// keep alarming /stats.
			n.setStats(func(st *checkpointStats) { st.lastErr = nil })
			return last, nil
		}
		// Never write before the sequence accounts for what the store
		// already holds (seedSeq no-ops once it has succeeded): a write
		// at a shadowed number would lose to stale files on Restore.
		err = n.seedSeq()
	}
	if err == nil {
		// Cut bytes are always the full snapshot (the diff needs both
		// sides anyway; only the written bytes shrink). Ship a delta
		// when the cadence allows, a base exists, and the delta is
		// actually smaller; any encode hiccup degrades to a full write.
		blob, isDelta := data, false
		if !final && n.lastBytes != nil && n.chain+1 < n.cfg.fullEvery() {
			tDiff := time.Now()
			d, _, derr := encodeAnyDelta(servedBase{name: n.lastContent, data: n.lastBytes}, data, state)
			n.met.checkpointDiff(time.Since(tDiff))
			if derr == nil && len(d) < len(data) {
				blob, isDelta = d, true
			}
		}
		name := seqName(n.seq, snap.Name(blob))
		if err = n.cfg.Store.Put(name, blob); err == nil {
			n.met.checkpointDone(isDelta, nil)
			n.seq++
			n.lastContent = content
			n.lastBytes = data
			if isDelta {
				n.chain++
			} else {
				n.chain = 0
			}
			n.rememberBase(content, data, nil)
			n.setStats(func(st *checkpointStats) {
				st.count++
				if isDelta {
					st.deltas++
				}
				st.lastName = name
				st.lastErr = nil
			})
			n.prune()
			return name, nil
		}
	}
	n.met.checkpointDone(false, err)
	n.setStats(func(st *checkpointStats) { st.lastErr = err })
	return "", err
}

// servedBase is one remembered full-snapshot state: a base the node
// can diff the current state against when a /snapshot?since= asks.
// state is its decoded form, kept by at most one entry — the last cut
// served to a ?since= request, which is what that caller's next
// request names — so the diff decodes neither side. Every other entry
// (older served cuts, checkpoints) holds bytes only and is decoded
// when a request names it.
type servedBase struct {
	name  string
	data  []byte
	state *shard.CoordinatorState
}

// rememberBase records a full-snapshot state in the ring serving
// /snapshot?since= (newest last, bounded by snapshotBaseHistory). A
// non-nil state becomes the one decoded base; every other entry drops
// its decoded form.
func (n *Node) rememberBase(name string, data []byte, state *shard.CoordinatorState) {
	n.basesMu.Lock()
	defer n.basesMu.Unlock()
	if state != nil {
		for i := range n.bases {
			n.bases[i].state = nil
		}
	}
	for i, b := range n.bases {
		if b.name == name {
			// Already known: refresh recency.
			if state != nil {
				b.state = state
			}
			n.bases = append(append(n.bases[:i:i], n.bases[i+1:]...), b)
			return
		}
	}
	n.bases = append(n.bases, servedBase{name: name, data: data, state: state})
	if drop := len(n.bases) - snapshotBaseHistory; drop > 0 {
		clear(n.bases[:drop])
		n.bases = n.bases[drop:]
	}
}

// baseFor looks up a remembered state by name.
func (n *Node) baseFor(name string) (servedBase, bool) {
	n.basesMu.Lock()
	defer n.basesMu.Unlock()
	for _, b := range n.bases {
		if b.name == name {
			return b, true
		}
	}
	return servedBase{}, false
}

// checkpointStats is the checkpoint outcome /stats reports, immutable
// once stored in Node.stats. count counts successful checkpoint writes
// and deltas how many of them were v2 deltas; lastName is the stored
// name of the newest one and lastErr the most recent failure, cleared
// by the next success.
type checkpointStats struct {
	count, deltas int64
	lastName      string
	lastErr       error
}

// setStats publishes a changed copy of the checkpoint stats. Callers
// hold ckptMu, which every writer takes, so the load-copy-store cannot
// lose an update.
func (n *Node) setStats(f func(*checkpointStats)) {
	st := *n.stats.Load()
	f(&st)
	n.stats.Store(&st)
}

// prune enforces the KeepCheckpoints retention after a successful
// write: the oldest node-written checkpoints beyond the budget are
// removed (foreign names are untouched). The cut never lands inside a
// delta chain — it slides back to the full checkpoint anchoring the
// oldest kept file, because a delta whose anchor was pruned is dead
// weight Restore can only skip. Errors are non-fatal — an unprunable
// store still checkpoints — but recorded for /stats. Callers hold
// ckptMu.
func (n *Node) prune() {
	defer func(t0 time.Time) { n.met.pruned(time.Since(t0)) }(time.Now())
	keep := n.cfg.KeepCheckpoints
	if keep == 0 {
		keep = DefaultKeepCheckpoints
	}
	if keep < 0 {
		return
	}
	names, err := n.cfg.Store.Names()
	if err != nil {
		n.setStats(func(st *checkpointStats) { st.lastErr = err })
		return
	}
	var seqs []string
	for _, name := range names {
		if isSeqName(name) {
			seqs = append(seqs, name)
		}
	}
	cut := max(0, len(seqs)-keep)
	for cut > 0 && isDeltaName(seqs[cut]) {
		cut--
	}
	for _, name := range seqs[:cut] {
		if err := n.cfg.Store.Remove(name); err != nil {
			n.setStats(func(st *checkpointStats) { st.lastErr = err })
		}
	}
}

// Close drains the node and shuts it down: it stops accepting requests
// (handlers answer 503), waits out in-flight coordinator work, stops
// the ticker,
// writes one final checkpoint (when a store is configured — this is
// what makes graceful shutdown lossless: Coordinator.Snapshot drains
// the workers, so every acknowledged update is in the final bytes),
// and closes the coordinator. The checkpoint error, if any, is
// returned; the coordinator is closed regardless. Concurrent and
// repeated Close calls all block until the first one finishes and
// return its error.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { n.closeErr = n.doClose() })
	return n.closeErr
}

func (n *Node) doClose() error {
	// Draining flips BEFORE the write-lock acquisition: from this
	// instant every handler (except liveness and the metrics scrape)
	// answers 503 up front, so requests arriving mid-drain cannot pile
	// up on mu behind the pending writer — Close waits only for the
	// handlers already inside their locked sections.
	n.draining.Store(true)
	n.health.SetUnready("draining")
	if n.cfg.Logger != nil {
		n.cfg.Logger.Info("node draining", "component", "node")
	}

	// Drain the batcher while the node lock is still open: writers
	// already in the pending group get their flush (and their 200, and
	// their items in the final checkpoint below); the draining flag
	// above already refuses new requests, and the batcher itself now
	// refuses any racing writer with errClosed. Zero acknowledged items
	// are lost.
	n.batch.close()

	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()

	close(n.stop)
	<-n.done

	var err error
	if n.cfg.Store != nil {
		// Direct cut: handlers are refused by now, but the engine
		// itself is still open until the line below. One caveat: if the
		// caller closed the coordinator out from under the node (the
		// crash-simulation pattern), its use-after-Close panic must
		// degrade to a Close error — a graceful teardown path should
		// report "no final checkpoint", not crash the process.
		_, err = n.checkpoint(func() (data []byte, name string, state *shard.CoordinatorState, cutErr error) {
			defer func() {
				if r := recover(); r != nil {
					cutErr = fmt.Errorf("serve: final checkpoint: %v", r)
				}
			}()
			return n.cut()
		}, true)
	}
	n.eng.Close() // idempotent
	return err
}

// Handler returns the node's HTTP handler:
//
//	POST /ingest       batched updates: JSON {"items":[…]} or the
//	                   binary item frame (application/x-tp-items, see
//	                   ContentTypeBinary)
//	GET  /sample       merged node-local query; ?k= for k independent draws
//	GET  /stats        NodeStats
//	GET  /snapshot     fleet checkpoint: full v1 wire bytes, 304 on a
//	                   matching ETag/?since=, or a v2 delta for a recent
//	                   ?since= base (see handleSnapshot)
//	GET  /summary      the acceptance summary of the shared query plan
//	                   (snap.Summary), ≥ ?k= groups; 304 on a matching
//	                   If-None-Match, 501 on a sampler node (see
//	                   handleSummary)
//	GET  /metrics      Prometheus text exposition (DESIGN.md §7)
//	GET  /healthz      liveness: 200 while the process serves
//	GET  /readyz       readiness: 503 before ready and from the moment
//	                   Close starts draining
//	     /debug/pprof  profiles, only with NodeConfig.Debug
//
// The whole mux rides behind the tracing middleware (X-Request-ID
// adoption/generation, structured request lines into cfg.Logger) and
// a draining guard: once Close starts, everything except /healthz and
// /metrics answers 503 immediately — liveness and the last scrape
// stay up through the drain.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", n.handleIngest)
	mux.HandleFunc("GET /sample", n.handleSample)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /snapshot", n.handleSnapshot)
	mux.HandleFunc("GET /summary", n.handleSummary)
	mux.Handle("GET /metrics", n.reg.Handler())
	mux.HandleFunc("GET /healthz", n.health.Liveness)
	mux.HandleFunc("GET /readyz", n.health.Readiness)
	if n.cfg.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return obs.Trace("node", n.cfg.Logger, n.guard(mux))
}

// guard is the draining middleware: see Handler. /readyz passes
// through — the readiness handler reports its own 503 with the
// reason — as do liveness and the metrics scrape.
func (n *Node) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.draining.Load() {
			switch r.URL.Path {
			case "/healthz", "/readyz", "/metrics":
			default:
				writeError(w, r, http.StatusServiceUnavailable, "node is draining")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// errClosed is the sentinel locked returns for a shut-down node.
var errClosed = errors.New("node is shut down")

// locked runs f — which may touch the coordinator — under the node
// read lock, refusing with errClosed after Close. Handlers call it
// around coordinator work ONLY, never around request/response I/O: the
// write-lock in Close waits out every in-flight locked section, so a
// socket read or write inside one would let a single slow client block
// shutdown (and its final checkpoint) indefinitely.
func (n *Node) locked(f func() error) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return errClosed
	}
	return f()
}

// refuse maps a locked error onto the response; callers return on true.
func refuse(w http.ResponseWriter, r *http.Request, err error) bool {
	if err == nil {
		return false
	}
	writeError(w, r, http.StatusServiceUnavailable, err.Error())
	return true
}

// bodyBufPool recycles the ingest body read buffers. Each buffer grows
// to the largest body it has carried (bounded by MaxBodyBytes), after
// which reads are copy-only: the read stage joins the decode stage in
// allocating nothing per request at steady state. The buffer is only
// referenced within handleIngest — decode copies items out (JSON into
// fresh slices, binary into the flush group's batch) before the
// handler returns it.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The request is staged so each phase's latency is attributable
	// (tp_ingest_{read,decode,process}_seconds): read the whole body
	// first — before any lock, so a client trickling its request can
	// neither hold up Close nor smear socket time into the decode
	// histogram; an oversized body therefore 413s here, before it can
	// touch a flush group — then decode, then hand off to the engine
	// through the batcher.
	t0 := time.Now()
	var status int
	var nItems int // counted only once the engine acknowledges
	var readDur, decodeDur, processDur time.Duration
	var bodyLen int
	defer func() {
		n.met.ingest(readDur, decodeDur, processDur, bodyLen, nItems, n.streamGauge(), status)
		if n.cfg.CSV != nil {
			_ = n.cfg.CSV.Record(
				t0.UTC().Format(time.RFC3339Nano),
				obs.RequestIDFromContext(r.Context()),
				status, bodyLen, nItems,
				readDur.Seconds(), decodeDur.Seconds(), processDur.Seconds(),
				time.Since(t0).Seconds(),
			)
		}
	}()
	bodyBuf := bodyBufPool.Get().(*bytes.Buffer)
	bodyBuf.Reset()
	defer bodyBufPool.Put(bodyBuf)
	_, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, r.Body, n.cfg.MaxBodyBytes))
	body := bodyBuf.Bytes()
	readDur = time.Since(t0)
	bodyLen = len(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
			writeError(w, r, status,
				fmt.Sprintf("body exceeds %d bytes; split the batch", n.cfg.MaxBodyBytes))
			return
		}
		status = http.StatusBadRequest
		writeError(w, r, status, err.Error())
		return
	}

	// Decode stage. JSON decodes here, outside every lock. The binary
	// frame decodes in ONE pass straight into the flush group's shared
	// buffer inside the batcher's add, with no intermediate slice and no
	// validating pre-pass: DecodeItemsFrame's rollback contract (on
	// error the destination comes back unchanged) is what keeps a
	// hostile frame from contributing a single item to a shared flush.
	// Either way the decode is timed into the decode stage; the process
	// stage is the rest — joining a group, waiting for its flush, and
	// the engine.
	tDecode := time.Now()
	binary := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeBinary)
	var items []int64 // the JSON decode result; binary decodes in add
	if !binary {
		items, err = decodeIngest(bytes.NewReader(body))
		decodeDur = time.Since(tDecode)
		if err != nil {
			status = http.StatusBadRequest
			writeError(w, r, status, err.Error())
			return
		}
	}
	count := len(items)
	total, err := n.batch.ingest(func(dst []int64) ([]int64, error) {
		if !binary {
			return append(dst, items...), nil
		}
		t := time.Now()
		out, derr := wire.DecodeItemsFrame(dst, body)
		decodeDur = time.Since(t)
		count = len(out) - len(dst)
		return out, derr
	})
	processDur = time.Since(tDecode) - decodeDur
	if errors.Is(err, errClosed) {
		status = http.StatusServiceUnavailable
		refuse(w, r, err)
		return
	}
	if err != nil {
		// This writer's own frame failed to decode, or the engine
		// rejected its items — the client's items, not the node's
		// health, and no other writer's.
		status = http.StatusBadRequest
		writeError(w, r, status, err.Error())
		return
	}
	status = http.StatusOK
	nItems = count
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: count, StreamLen: total})
}

// streamGauge is the last acknowledged stream mass — kept in an atomic
// the metrics path reads so a scrape never touches the engine.
func (n *Node) streamGauge() int64 { return n.lastStream.Load() }

// decodeIngest parses a JSON ingest body: one {"items":[…]} object.
func decodeIngest(body io.Reader) ([]int64, error) {
	dec := json.NewDecoder(body)
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("malformed ingest body: %w", err)
	}
	if dec.More() {
		return nil, errors.New("trailing data after the ingest object")
	}
	return req.Items, nil
}

func (n *Node) handleSample(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	var resp SampleResponse
	err = n.locked(func() error {
		// SampleKLenShared reports the mass from the query's own drain, so
		// the response's StreamLen is exactly the mass the outcomes are
		// exact with respect to even while concurrent producers keep
		// ingesting; shared reports whether the coordinator answered from
		// its version-stamped query snapshot instead of paying its own
		// drain-and-materialize.
		outs, count, mass, shared := n.eng.SampleKLenShared(k)
		if shared {
			n.met.sharedQuerySnapshot()
		}
		resp = SampleResponse{Outcomes: toWire(outs), Count: count, StreamLen: mass}
		return nil
	})
	if refuse(w, r, err) {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseK reads ?k= with a default of 1. Values beyond the provisioned
// query-group count are clamped by SampleK itself, mirroring the
// library's "clamp, never error" rule.
func parseK(r *http.Request) (int, error) {
	q := r.URL.Query().Get("k")
	if q == "" {
		return 1, nil
	}
	k, err := strconv.Atoi(q)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("k must be a positive integer, got %q", q)
	}
	return k, nil
}

func toWire(outs []sample.Outcome) []OutcomeJSON {
	w := make([]OutcomeJSON, len(outs))
	for i, o := range outs {
		w[i] = OutcomeJSON{Item: o.Item, Freq: o.Freq, Bottom: o.Bottom}
	}
	return w
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	// Checkpoint stats are one lock-free load — never ckptMu, which is
	// held across store writes (a hung store must not dark monitoring)
	// and precedes mu in the lock order.
	ckpt := n.stats.Load()
	var st NodeStats
	err := n.locked(func() error {
		st = NodeStats{
			Sampler:          n.eng.Describe(),
			Shards:           n.eng.Shards(),
			Trials:           n.eng.Trials(),
			Queries:          n.eng.Queries(),
			StreamLen:        n.eng.StreamLen(),
			Checkpoints:      ckpt.count,
			DeltaCheckpoints: ckpt.deltas,
			LastCheckpoint:   ckpt.lastName,
		}
		// BitsUsed drains the workers; keep it off the default polling
		// path (see NodeStats.Bits).
		if r.URL.Query().Get("drain") == "1" {
			st.Bits = n.eng.BitsUsed()
		}
		if ckpt.lastErr != nil {
			st.LastCheckpointError = ckpt.lastErr.Error()
		}
		return nil
	})
	if refuse(w, r, err) {
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSnapshot serves the node's current state. Three response
// shapes, negotiated per request with no capability handshake:
//
//   - 304 when the caller already holds the current state (?since= or
//     If-None-Match names it) — the ETag is the content-addressed
//     state name, so revalidation is one header round-trip;
//   - a v2 delta (X-Snapshot-Base set) when ?since= names a recent
//     state the node still holds in memory and the delta is smaller;
//   - the full v1 bytes otherwise.
//
// X-Snapshot-Name always advertises the *state* name (the resolved
// full snapshot's), never a delta's own name — it is the cache key the
// aggregator revalidates with.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var data []byte
	var name string
	var state *shard.CoordinatorState
	err := n.locked(func() (err error) {
		data, name, state, err = n.cut()
		return err
	})
	if errors.Is(err, errClosed) {
		refuse(w, r, err)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	// Everything below happens off-lock: a slow downloader must not
	// block Close (see locked).
	since := r.URL.Query().Get("since")
	notModified := since == name || etagMatches(r.Header.Get("If-None-Match"), name)
	blob, result := data, "full"
	if since != "" && !notModified {
		// The base is looked up before this cut is remembered: in a
		// full ring, remembering evicts the oldest entry, which may be
		// the very base the caller names.
		if base, ok := n.baseFor(since); ok {
			// A failed or unprofitable diff silently degrades to the
			// full response — deltas are an optimization, never a
			// requirement.
			d, cur, err := encodeAnyDelta(base, data, state)
			if err == nil && len(d) < len(data) {
				blob, result = d, "delta"
				w.Header().Set("X-Snapshot-Base", since)
			}
			if cur != nil {
				state = cur
			}
		}
	}
	if since == "" {
		// Only a cut served to a ?since= caller keeps its decoded form:
		// that caller's next request diffs against it.
		state = nil
	}
	n.rememberBase(name, data, state)
	w.Header().Set("ETag", `"`+name+`"`)
	w.Header().Set("X-Snapshot-Name", name)
	if notModified {
		n.met.snapshotServed("not_modified", 0)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	n.met.snapshotServed(result, len(blob))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

// etagMatches reports whether an If-None-Match header names the
// current state: a quoted entity-tag list per RFC 9110, compared
// weakly (a W/ prefix is ignored — snapshot names are strong by
// construction).
func etagMatches(header, name string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimPrefix(strings.TrimSpace(part), "W/")
		if part == "*" || strings.Trim(part, `"`) == name {
			return true
		}
	}
	return false
}

// handleSummary serves the acceptance summary an aggregator mixes
// (snap.Summary) from the plan the node's local queries share. The
// ETag names the plan instance, not the stream state: a cut drops the
// coordinator's plan, and the rebuild flips fresh coins at the same
// stream version. A matching If-None-Match answers 304 — the caller's
// summary is a prefix of the current one, so it is still exact. A node
// whose engine cannot summarize (a sampler node, a custom measure)
// answers 501, which sends the aggregator to /snapshot.
func (n *Node) handleSummary(w http.ResponseWriter, r *http.Request) {
	k, err := parseK(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	var data []byte
	var tag string
	err = n.locked(func() (err error) {
		data, tag, err = n.summary(k)
		return err
	})
	if errors.Is(err, errClosed) {
		refuse(w, r, err)
		return
	}
	if err != nil {
		writeError(w, r, http.StatusNotImplemented, err.Error())
		return
	}
	w.Header().Set("ETag", `"`+tag+`"`)
	if etagMatches(r.Header.Get("If-None-Match"), tag) {
		n.met.summaryServed(true)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	n.met.summaryServed(false)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// summary returns the encoded summary covering min(k, Queries) groups
// and its ETag. The last one is cached under the engine epoch the
// engine reported with it: while no ingest, query or materialization
// has moved the epoch, the cached summary is still current, even across
// a cut that dropped the plan it came from (a cut changes nothing a
// summary reads), and serving it touches the engine for one epoch read.
// Otherwise the engine summarizes, bumping the epoch only if it had to
// build or extend its plan. The ETag moves exactly when the plan
// instance does. Callers hold the node read lock (locked).
func (n *Node) summary(k int) ([]byte, string, error) {
	n.sumMu.Lock()
	defer n.sumMu.Unlock()
	k = min(k, n.eng.Queries())
	if n.sumData != nil && n.sumEpoch == n.eng.Epoch() && n.sum.Covers(k) {
		return n.sumData, n.sumTag, nil
	}
	sum, epoch, err := n.eng.Summary(k)
	if err != nil {
		return nil, "", err
	}
	if n.sum == nil || !n.sum.SamePlan(sum) {
		n.sumBuilds++
		n.sumTag = n.sumPrefix + "-" + strconv.FormatUint(n.sumBuilds, 10)
	}
	n.sum, n.sumData, n.sumEpoch = sum, sum.Encode(), epoch
	return n.sumData, n.sumTag, nil
}
