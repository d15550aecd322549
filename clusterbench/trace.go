package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// layerRow is one line of the layer table: a layer serving one op class,
// with its count and mean self time, and the source it was read from.
type layerRow struct {
	class, layer, source string
	count                float64
	meanMS               float64
}

// traced is the per-layer run: the open-loop schedule once untraced
// (the overhead baseline), then once traced between two /metrics
// scrapes of every fleet process, then the in-process replay.
func (b *bench) traced(ctx context.Context, setupTimes []float64) (*result, error) {
	end := b.t.openEnd()
	base := drive(ctx, b.newSenders(false), b.in.plans, end, end)
	before, err := b.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	runs := drive(ctx, b.newSenders(true), b.in.plans, end, end)
	after, err := b.scrapeAll(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	mBase, mTr := measure(base, b.t), measure(runs, b.t)
	res := &result{Attempted: mBase.attempted + mTr.attempted, Failed: mBase.failed + mTr.failed}
	oerr := b.finish(ctx, base, runs)
	res.Correct = oerr == nil
	b.fleet.stop()

	bySent := func(r *record) time.Duration { return r.sent }
	rp := replayRun(b.w, b.opt.seed, b.m, b.in, sortedBy(base, bySent), sortedBy(runs, bySent), end)
	client := clientSpans(runs, b.t.warm)
	// Two files: a span's parent and req index its own log.
	spanPath := filepath.Join(b.opt.workdir, fmt.Sprintf("spans-%s-%d", b.w.name, b.opt.seed))
	for _, f := range []struct {
		suffix string
		log    *spanLog
	}{{".client.jsonl", client}, {".replay.jsonl", rp.log}} {
		if err := writeSpans(spanPath+f.suffix, f.log.spans); err != nil {
			return nil, err
		}
	}

	a := attribution{b: b, deltas: map[string]metricDelta{}, client: summarize(client.spans), replay: summarize(rp.log.spans),
		rp: rp, tr: mTr, base: mBase}
	for name := range after {
		a.deltas[name] = metricDelta{before: before[name], after: after[name]}
	}
	res.Metrics = a.metrics()

	b.printf("%-22s %s\n", "setup_s", fmtSamples(setupTimes, "s"))
	for _, c := range []string{classIngest, classQuery, classNodeQuery} {
		if len(mTr.open[c]) == 0 {
			continue
		}
		u, t := newDist(mBase.open[c]), newDist(mTr.open[c])
		b.printf("%-10s untraced %s\n%-10s traced   %s\n%-10s tracing overhead %+.1f%% of the untraced mean\n",
			c, u, c, t, c, 100*(t.mean()-u.mean())/u.mean())
	}
	b.printf("\n%-11s %-28s %-8s %10s %14s\n", "op", "layer", "source", "count", "self_mean_ms")
	for _, r := range a.rows() {
		b.printf("%-11s %-28s %-8s %10.0f %14.4f\n", r.class, r.layer, r.source, r.count, r.meanMS)
	}
	b.printf("spans: %s.{client,replay}.jsonl (%d, %d)\n", spanPath, len(client.spans), len(rp.log.spans))
	errs := []error{oerr}
	if err := b.checkLateness(mTr); err != nil {
		errs = append(errs, err)
	}
	return res, errors.Join(errs...)
}

// scrapeAll scrapes /metrics from every fleet process.
func (b *bench) scrapeAll(ctx context.Context) (map[string]exposition, error) {
	out := map[string]exposition{}
	for _, p := range b.fleet.all {
		e, err := scrapeMetrics(ctx, b.admin, p.base)
		if err != nil {
			return nil, err
		}
		out[p.name] = e
	}
	return out, nil
}

// clientSpans turns traced records into spans: per request a root
// covering intended send to last body byte, with children for the
// queue wait, request write, server wait and body read. Requests due
// during the warm-up are left out, as they are from the latencies.
func clientSpans(runs [][]record, warm time.Duration) *spanLog {
	log := &spanLog{}
	req := 0
	for _, recs := range runs {
		for i := range recs {
			r := &recs[i]
			if r.failed() || r.closed || r.intended < warm || r.wrote == 0 || r.firstByte == 0 {
				continue
			}
			c := r.op.kind.class()
			root := log.add(span{Name: "client." + c, Class: c, Req: req, Parent: -1, Start: r.intended, End: r.done})
			for _, ph := range []struct {
				name     string
				from, to time.Duration
			}{
				{"client.queue", r.intended, r.sent},
				{"client.write", r.sent, r.wrote},
				{"client.server", r.wrote, r.firstByte},
				{"client.read", r.firstByte, r.done},
			} {
				log.add(span{Name: ph.name, Class: c, Req: req, Parent: root, Start: ph.from, End: ph.to})
			}
			req++
		}
	}
	return log
}

// attribution derives the per-layer metrics of one traced run.
type attribution struct {
	b      *bench
	deltas map[string]metricDelta // per fleet process
	client map[layerKey]layerStat
	replay map[layerKey]layerStat
	rp     *replayer
	tr     measured // the traced pass
	base   measured // the untraced pass over the same schedule
}

// overheadPct is tracing's cost: the traced pass's mean latency of the
// workload's headline op over the untraced pass's, in percent.
func (a attribution) overheadPct() float64 {
	c := a.b.w.headline
	u := newDist(a.base.open[c]).mean()
	if u == 0 {
		return 0
	}
	return 100 * (newDist(a.tr.open[c]).mean() - u) / u
}

// nodeHist sums a node histogram over every node and returns its mean
// in unit (1e3: ms, 1e6: µs) and its count.
func (a attribution) nodeHist(name, labels string, unit float64) (mean, count float64) {
	var c, s float64
	for j := range a.b.fleet.nodes {
		dc, ds := a.deltas[fmt.Sprintf("node%d", j)].hist(name, labels)
		c, s = c+dc, s+ds
	}
	if c == 0 {
		return 0, 0
	}
	return s / c * unit, c
}

// nodeCounter sums a node counter's change over every node.
func (a attribution) nodeCounter(key string) float64 {
	var v float64
	for j := range a.b.fleet.nodes {
		v += a.deltas[fmt.Sprintf("node%d", j)].get(key)
	}
	return v
}

func (a attribution) agg() metricDelta { return a.deltas["agg"] }

// aggQueries is the aggregator's answered-query count over the window.
func (a attribution) aggQueries() float64 { return a.agg().get("tp_agg_queries_total") }

// perQuery divides by the aggregator's query count (0 without queries).
func (a attribution) perQuery(v float64) float64 {
	if q := a.aggQueries(); q > 0 {
		return v / q
	}
	return 0
}

// replayed returns a replayed module call's summed stats: over the
// run's own requests, or over the preload when the run sent the layer
// nothing (query-steady ingests only in setup).
func (a attribution) replayed(name string) layerStat {
	var run, pre layerStat
	for k, st := range a.replay {
		if k.name != name {
			continue
		}
		dst := &run
		if k.class == "preload" {
			dst = &pre
		}
		dst.count += st.count
		dst.self += st.self
	}
	if run.count > 0 {
		return run
	}
	return pre
}

func (a attribution) replayedMean(name string, unit time.Duration) float64 {
	st := a.replayed(name)
	if st.count == 0 {
		return 0
	}
	return float64(st.self) / float64(st.count) / float64(unit)
}

// replayedKB is a replayed call's mean output size in KiB.
func (a attribution) replayedKB(name string) float64 {
	n := a.replay[layerKey{"checkpoint", name}].count + a.replay[layerKey{classQuery, name}].count
	if n == 0 {
		return 0
	}
	return float64(a.rp.bytes[name]) / float64(n) / 1024
}

// perItemNS is a replayed call's self time per item.
func perItemNS(st layerStat, items int64) float64 {
	if items == 0 {
		return 0
	}
	return float64(st.self) / float64(items)
}

// fetchMS is the aggregator's mean fetch time for node j.
func (a attribution) fetchMS(j int) float64 {
	if j >= len(a.b.fleet.nodes) || a.b.fleet.agg == nil {
		return 0
	}
	return a.agg().histMean("tp_agg_fetch_seconds", series("", "node", a.b.fleet.nodes[j].base), 1e3)
}

// tracedMeanMS is the traced mean latency of one op class.
func (a attribution) tracedMeanMS(class string) float64 {
	return newDist(a.tr.open[class]).mean()
}

func (a attribution) queueMS(class string) float64 {
	return a.client[layerKey{class, "client.queue"}].meanMS()
}

// unattributed is an op class's traced mean minus the named layers'
// self time along its blocking path: generator queueing plus, for
// ingest, the node's read/decode/process stages; for a global query,
// the slowest node fetch plus the plan rebuild share; for a node query,
// the replayed sample cost at the observed shared-snapshot ratio.
func (a attribution) unattributed(class string) float64 {
	if len(a.tr.open[class]) == 0 {
		return 0
	}
	named := a.queueMS(class)
	switch class {
	case classIngest:
		for _, s := range []string{"tp_ingest_read_seconds", "tp_ingest_decode_seconds", "tp_ingest_process_seconds"} {
			m, _ := a.nodeHist(s, "", 1e3)
			named += m
		}
	case classQuery:
		var slowest float64
		for j := range a.b.fleet.nodes {
			slowest = max(slowest, a.fetchMS(j))
		}
		rebuilds := a.perQuery(a.agg().get("tp_agg_plan_rebuilds_total"))
		named += slowest + rebuilds*a.agg().histMean("tp_agg_merge_seconds", "", 1e3)
	case classNodeQuery:
		shared := a.sharedRatio()
		named += shared*a.replayedMean(spanSharedK, time.Millisecond) + (1-shared)*a.replayedMean(spanRebuildK, time.Millisecond)
	}
	return a.tracedMeanMS(class) - named
}

// sharedRatio is the share of node queries answered from the shared
// query snapshot.
func (a attribution) sharedRatio() float64 {
	n := float64(len(a.tr.open[classNodeQuery]))
	if n == 0 {
		return 0
	}
	return a.nodeCounter("tp_node_query_snapshot_shared_total") / n
}

// metrics is the per-layer metric set BENCHMARK.json lists.
func (a attribution) metrics() map[string]metric {
	readUS, _ := a.nodeHist("tp_ingest_read_seconds", "", 1e6)
	decodeUS, _ := a.nodeHist("tp_ingest_decode_seconds", "", 1e6)
	processUS, _ := a.nodeHist("tp_ingest_process_seconds", "", 1e6)
	encMS, _ := a.nodeHist("tp_checkpoint_encode_seconds", "", 1e3)
	diffMS, _ := a.nodeHist("tp_checkpoint_diff_seconds", "", 1e3)
	putMS, _ := a.nodeHist("tp_store_op_seconds", `{op="put"}`, 1e3)
	snapServes := func(result string) float64 {
		return a.perQuery(a.nodeCounter(series("tp_snapshot_serves_total", "result", result)))
	}
	agg := a.agg()
	plans := agg.get("tp_agg_plan_hits_total") + agg.get("tp_agg_plan_rebuilds_total")
	planHit := 0.0
	if plans > 0 {
		planHit = agg.get("tp_agg_plan_hits_total") / plans
	}
	baseItems := int64(a.rp.seenItems)
	ms := map[string]metric{
		"node.ingest_read_us":        {readUS, "us"},
		"node.ingest_decode_us":      {decodeUS, "us"},
		"node.ingest_process_us":     {processUS, "us"},
		"node.ckpt_encode_ms":        {encMS, "ms"},
		"node.ckpt_diff_ms":          {diffMS, "ms"},
		"store.put_ms":               {putMS, "ms"},
		"node.ckpt_full":             {a.nodeCounter(series("tp_checkpoints_total", "kind", "full")), "count"},
		"node.ckpt_delta":            {a.nodeCounter(series("tp_checkpoints_total", "kind", "delta")), "count"},
		"node.snap_not_modified":     {snapServes("not_modified"), "count"},
		"node.snap_delta":            {snapServes("delta"), "count"},
		"node.snap_full":             {snapServes("full"), "count"},
		"node.snap_bytes":            {a.perQuery(a.nodeCounter("tp_snapshot_bytes_total")), "bytes"},
		"node.query_shared_ratio":    {a.sharedRatio(), "ratio"},
		"agg.cache_hits":             {a.perQuery(agg.get("tp_agg_cache_hits_total")), "count"},
		"agg.delta_fetches":          {a.perQuery(agg.get("tp_agg_delta_fetches_total")), "count"},
		"agg.full_fetches":           {a.perQuery(agg.get("tp_agg_full_fetches_total")), "count"},
		"agg.bytes_fetched":          {a.perQuery(agg.get("tp_agg_bytes_fetched_total")), "bytes"},
		"agg.plan_hit_ratio":         {planHit, "ratio"},
		"agg.merge_ms":               {agg.histMean("tp_agg_merge_seconds", "", 1e3), "ms"},
		"wire.decode_items_us":       {a.replayedMean(spanWireDecode, time.Microsecond), "us"},
		"serve.json_decode_us":       {a.replayedMean(spanJSONDecode, time.Microsecond), "us"},
		"shard.ingest_ns_per_item":   {perItemNS(a.replayed(spanShardIngest), a.rp.ingestItems()), "ns"},
		"shard.snapshot_ms":          {a.replayedMean(spanSnapshot, time.Millisecond), "ms"},
		"shard.snapshot_kb":          {a.replayedKB(spanSnapshot), "KiB"},
		"shard.delta_ms":             {a.replayedMean(spanDelta, time.Millisecond), "ms"},
		"shard.delta_kb":             {a.replayedKB(spanDelta), "KiB"},
		"shard.states_ms":            {a.replayedMean(spanStates, time.Millisecond), "ms"},
		"shard.apply_delta_ms":       {a.replayedMean(spanApplyDelta, time.Millisecond), "ms"},
		"shard.samplek_shared_us":    {a.replayedMean(spanSharedK, time.Microsecond), "us"},
		"shard.samplek_rebuild_us":   {a.replayedMean(spanRebuildK, time.Microsecond), "us"},
		"snap.name_us":               {a.replayedMean(spanName, time.Microsecond), "us"},
		"snap.build_plan_ms":         {a.replayedMean(spanBuildPlan, time.Millisecond), "ms"},
		"snap.plan_samplek_us":       {a.replayedMean(spanPlanSampleK, time.Microsecond), "us"},
		"core.lp_ns_per_item":        {perItemNS(a.replayed(spanCoreLp), baseItems), "ns"},
		"misragries.ns_per_item":     {perItemNS(a.replayed(spanMisraGries), baseItems), "ns"},
		"unattributed_ms.ingest":     {a.unattributed(classIngest), "ms"},
		"unattributed_ms.query":      {a.unattributed(classQuery), "ms"},
		"unattributed_ms.node_query": {a.unattributed(classNodeQuery), "ms"},
		"trace.overhead_pct":         {a.overheadPct(), "%"},
	}
	for j := 0; j < 3; j++ {
		ms[fmt.Sprintf("agg.fetch_ms.node%d", j)] = metric{a.fetchMS(j), "ms"}
	}
	return ms
}

// rows is the printed layer table: per op class, the client phases,
// the server stages read from /metrics, and the replayed module calls.
func (a attribution) rows() []layerRow {
	var rows []layerRow
	for k, st := range a.client {
		rows = append(rows, layerRow{k.class, k.name, "client", float64(st.count), st.meanMS()})
	}
	for k, st := range a.replay {
		rows = append(rows, layerRow{k.class, k.name, "replay", float64(st.count), st.meanMS()})
	}
	stage := func(class, layer, name, labels string) {
		if m, c := a.nodeHist(name, labels, 1e3); c > 0 {
			rows = append(rows, layerRow{class, layer, "metrics", c, m})
		}
	}
	stage(classIngest, "node.ingest_read", "tp_ingest_read_seconds", "")
	stage(classIngest, "node.ingest_decode", "tp_ingest_decode_seconds", "")
	stage(classIngest, "node.ingest_process", "tp_ingest_process_seconds", "")
	stage("checkpoint", "node.ckpt_encode", "tp_checkpoint_encode_seconds", "")
	stage("checkpoint", "node.ckpt_diff", "tp_checkpoint_diff_seconds", "")
	stage("checkpoint", "store.put", "tp_store_op_seconds", `{op="put"}`)
	if a.b.fleet.agg != nil {
		for j := range a.b.fleet.nodes {
			c, _ := a.agg().hist("tp_agg_fetch_seconds", series("", "node", a.b.fleet.nodes[j].base))
			rows = append(rows, layerRow{classQuery, fmt.Sprintf("agg.fetch.node%d", j), "metrics", c, a.fetchMS(j)})
		}
		c, _ := a.agg().hist("tp_agg_merge_seconds", "")
		rows = append(rows, layerRow{classQuery, "agg.merge", "metrics", c, a.agg().histMean("tp_agg_merge_seconds", "", 1e3)})
	}
	for _, c := range []string{classIngest, classQuery, classNodeQuery} {
		if n := len(a.tr.open[c]); n > 0 {
			rows = append(rows, layerRow{c, "unattributed", "derived", float64(n), a.unattributed(c)})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].class != rows[j].class {
			return rows[i].class < rows[j].class
		}
		return rows[i].layer < rows[j].layer
	})
	return rows
}
