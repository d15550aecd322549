package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/misragries"
	"repro/internal/wire"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
	"repro/sample/snap"
)

// The replay feeds the run's exact request bodies, in send order,
// through the public functions of each module a request crosses, with a
// span around every call. It runs in this process after the fleet has
// stopped, so it never competes with the measured load.
const (
	replayBudget = 3 * time.Second // wall-time cap on the timeline replay
	// baselineItems caps the single-threaded core and Misra–Gries passes.
	baselineItems = 1 << 18
	lpDelta       = 0.1 // tpserve's default -delta
	lpQueries     = 16  // tpserve's default -queries
)

// Replayed module calls (span names). Sizes ride alongside in sizes.
const (
	spanJSONDecode  = "serve.json_decode"
	spanWireDecode  = "wire.decode_items"
	spanShardIngest = "shard.ingest" // ProcessBatch + Drain
	spanSnapshot    = "shard.snapshot"
	spanDelta       = "shard.delta"
	spanStates      = "shard.states"
	spanApplyDelta  = "shard.apply_delta"
	spanSharedK     = "shard.samplek_shared"
	spanRebuildK    = "shard.samplek_rebuild"
	spanName        = "snap.name"
	spanBuildPlan   = "snap.build_plan"
	spanPlanSampleK = "snap.plan_samplek"
	spanCoreLp      = "core.lp"
	spanMisraGries  = "misragries.process"
)

// replayer mirrors the fleet in process: one coordinator per node built
// exactly as tpserve builds it, plus the aggregator's per-node cache.
type replayer struct {
	log    *spanLog
	t0     time.Time
	coords []*shard.Coordinator
	seeds  []uint64
	m      int64
	ckpt   bool
	// Aggregator view: last fetched full bytes and states per node, and
	// whether the node has ingested since.
	aggRaw    [][]byte
	aggStates [][]sample.State
	dirty     []bool
	plan      *snap.MergePlan
	lastCkpt  []time.Duration // per node: schedule time of its last checkpoint
	ckptBase  [][]byte
	qseed     uint64
	req       int
	// quiet replays without spans or sizes: the untraced pass, which
	// brings the replayed state to where the fleet's was when the traced
	// pass began.
	quiet bool
	// offset shifts schedule times: the traced pass was sent one
	// schedule length after the untraced one.
	offset    time.Duration
	itemsBy   map[string]int64 // items through shard.ingest, per class
	bytes     map[string]int64 // summed output sizes per span name
	seen      [][]int64        // ingested batches, for the baselines
	seenItems int
}

func newReplayer(nodes int, seed uint64, m int64, ckpt bool) *replayer {
	r := &replayer{log: &spanLog{}, t0: time.Now(), m: m, ckpt: ckpt, bytes: map[string]int64{}, itemsBy: map[string]int64{},
		aggRaw: make([][]byte, nodes), aggStates: make([][]sample.State, nodes), dirty: make([]bool, nodes),
		lastCkpt: make([]time.Duration, nodes), ckptBase: make([][]byte, nodes)}
	for j := 0; j < nodes; j++ {
		s := nodeSeed(seed, j)
		r.seeds = append(r.seeds, s)
		// tpserve's node: shard.NewLp(2, n, m, delta, seed, {Queries: 16}).
		r.coords = append(r.coords, shard.NewLp(2, universe, m, lpDelta, s, shard.Config{Queries: lpQueries}))
	}
	return r
}

// nodeSeed is node j's distinct -seed.
func nodeSeed(seed uint64, j int) uint64 { return seed*16 + uint64(j) + 1 }

func (r *replayer) close() {
	for _, c := range r.coords {
		c.Close()
	}
}

// begin opens a span whose end is set by end; children name it parent.
// A quiet replayer opens none and returns -1.
func (r *replayer) begin(name, class string, parent int) int {
	if r.quiet {
		return -1
	}
	return r.log.add(span{Name: name, Class: class, Req: r.req, Parent: parent, Start: time.Since(r.t0)})
}

func (r *replayer) end(i int) {
	if i >= 0 {
		r.log.spans[i].End = time.Since(r.t0)
	}
}

// call runs f inside a span.
func (r *replayer) call(name, class string, parent int, f func()) {
	i := r.begin(name, class, parent)
	f()
	r.end(i)
}

// must panics on an error the replay cannot produce from the inputs it
// generated itself (the fleet accepted the same bytes).
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("replay: %v", err))
	}
}

// ingest replays one ingest body: decode, then ProcessBatch + Drain.
func (r *replayer) ingest(o *op, class string) {
	root := r.begin("replay."+class, class, -1)
	var items []int64
	if o.kind == opIngestJSON {
		r.call(spanJSONDecode, class, root, func() {
			var req serve.IngestRequest
			must(json.Unmarshal(o.body, &req))
			items = req.Items
		})
	} else {
		r.call(spanWireDecode, class, root, func() {
			var err error
			items, err = wire.DecodeItemsFrame(nil, o.body)
			must(err)
		})
	}
	c := r.coords[o.node]
	r.call(spanShardIngest, class, root, func() {
		c.ProcessBatch(items)
		c.Drain()
	})
	r.itemsBy[class] += int64(len(items))
	r.dirty[o.node] = true
	if r.seenItems < baselineItems {
		r.seen = append(r.seen, items)
		r.seenItems += len(items)
	}
	// The node's checkpoint ticker: every second of schedule time, cut a
	// snapshot, name it and diff it against the previous checkpoint.
	if at := o.at + r.offset; r.ckpt && at-r.lastCkpt[o.node] >= time.Second {
		r.lastCkpt[o.node] = at
		var cur []byte
		r.call(spanSnapshot, "checkpoint", root, func() { cur = r.snapshot(c) })
		r.call(spanName, "checkpoint", root, func() { snap.Name(cur) })
		if base := r.ckptBase[o.node]; base != nil {
			r.call(spanDelta, "checkpoint", root, func() { r.delta(c, base) })
		}
		r.ckptBase[o.node] = cur
	}
	r.end(root)
}

// ingestItems counts the items behind attribution.replayed's
// shard.ingest figure: the run's own, else the preload's.
func (r *replayer) ingestItems() int64 {
	if n := r.itemsBy[classIngest]; n > 0 {
		return n
	}
	return r.itemsBy["preload"]
}

func (r *replayer) snapshot(c *shard.Coordinator) []byte {
	data, err := c.Snapshot()
	must(err)
	if !r.quiet {
		r.bytes[spanSnapshot] += int64(len(data))
	}
	return data
}

func (r *replayer) delta(c *shard.Coordinator, base []byte) []byte {
	d, err := c.SnapshotDelta(base)
	must(err)
	if !r.quiet {
		r.bytes[spanDelta] += int64(len(d))
	}
	return d
}

// nodeSample replays a node-local GET /sample?k=16.
func (r *replayer) nodeSample(o *op) {
	root := r.begin("replay."+classNodeQuery, classNodeQuery, -1)
	c := r.coords[o.node]
	t := time.Since(r.t0)
	_, _, _, shared := c.SampleKLenShared(sampleK)
	name := spanRebuildK
	if shared {
		name = spanSharedK
	}
	if !r.quiet {
		r.log.add(span{Name: name, Class: classNodeQuery, Req: r.req, Parent: root, Start: t, End: time.Since(r.t0)})
	}
	r.end(root)
}

// aggSample replays one aggregator query: every node's side of the
// revalidation (a 304 costs a snapshot cut and its name; a churned node
// cuts a delta that the aggregator folds, names and explodes), a plan
// rebuild when any node moved, then the plan's k=16 draw.
func (r *replayer) aggSample() {
	const class = classQuery
	root := r.begin("replay."+class, class, -1)
	moved := r.plan == nil
	for j, c := range r.coords {
		switch {
		case r.aggRaw[j] == nil: // first fetch: full snapshot
			var data []byte
			r.call(spanSnapshot, class, root, func() { data = r.snapshot(c) })
			r.call(spanName, class, root, func() { snap.Name(data) })
			r.call(spanStates, class, root, func() {
				var err error
				r.aggStates[j], err = shard.SamplerStates(data)
				must(err)
			})
			r.aggRaw[j] = data
		case r.dirty[j]: // churned: delta, fold, name, explode
			var d, full []byte
			r.call(spanDelta, class, root, func() { d = r.delta(c, r.aggRaw[j]) })
			r.call(spanApplyDelta, class, root, func() {
				var err error
				full, err = shard.ApplyCoordinatorDelta(r.aggRaw[j], d)
				must(err)
			})
			r.call(spanName, class, root, func() { snap.Name(full) })
			r.call(spanStates, class, root, func() {
				var err error
				r.aggStates[j], err = shard.SamplerStates(full)
				must(err)
			})
			r.aggRaw[j] = full
			moved = true
		default: // unchanged: the node cuts and names its state to answer 304
			var data []byte
			r.call(spanSnapshot, class, root, func() { data = r.snapshot(c) })
			r.call(spanName, class, root, func() { snap.Name(data) })
		}
		r.dirty[j] = false
	}
	if moved {
		var states []sample.State
		for _, s := range r.aggStates {
			states = append(states, s...)
		}
		r.call(spanBuildPlan, class, root, func() {
			var err error
			r.plan, err = snap.BuildMergePlan(states...)
			must(err)
		})
	}
	r.qseed += 0x9e3779b97f4a7c15
	r.call(spanPlanSampleK, class, root, func() { r.plan.SampleK(r.qseed, sampleK) })
	r.end(root)
}

// baselines replays the ingested items through one unsharded
// sample.NewLp (the single-threaded baseline) and one Misra–Gries
// sketch at the L2 sampler's table size.
func (r *replayer) baselines() {
	lp := sample.NewLp(2, universe, r.m, lpDelta, r.seeds[0])
	mg := misragries.New(core.LpMGWidth(2, universe))
	for _, b := range r.seen {
		r.call(spanCoreLp, "baseline", -1, func() { lp.ProcessBatch(b) })
		r.call(spanMisraGries, "baseline", -1, func() {
			for _, it := range b {
				mg.Process(it)
			}
		})
	}
}

// replayRun replays a run: the preload; then, quietly, the untraced
// pass's ingest bodies (schedule times shifted by offset for the traced
// pass) and one aggregator query, so that the replayed nodes hold the
// stream and the replayed aggregator the warm view the fleet had when the
// traced pass began; then the traced requests in the order they were
// sent, until the budget runs out.
func replayRun(w *workload, seed uint64, m int64, in inputs, untraced, sent []*record, offset time.Duration) *replayer {
	r := newReplayer(w.nodes, seed, m, w.ckpt)
	for _, ops := range in.preload {
		for i := range ops {
			r.ingest(&ops[i], "preload")
			r.req++
		}
	}
	r.quiet = true
	for _, rec := range untraced {
		if rec.op.kind.class() == classIngest {
			r.ingest(rec.op, "untraced")
		}
	}
	if w.agg {
		r.aggSample()
	}
	r.quiet, r.offset = false, offset
	deadline := time.Now().Add(replayBudget)
	for _, rec := range sent {
		if time.Now().After(deadline) {
			break
		}
		switch o := rec.op; o.kind.class() {
		case classIngest:
			r.ingest(o, classIngest)
		case classNodeQuery:
			r.nodeSample(o)
		default:
			r.aggSample()
		}
		r.req++
	}
	r.baselines()
	r.close()
	return r
}
