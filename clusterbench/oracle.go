package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/sample/serve"
)

// oracle checks every answer against the acknowledged stream in the
// ledger. Any violation fails the run; none is ever a metric.
type oracle struct {
	led    *ledger
	mass   [][]int64 // mass[j][p]: items in node j's first p batches
	checks []itemCheck
	errs   []string
	nerr   int
	// outcomes counts checked non-bottom sample outcomes, so a run whose
	// queries never returned an item cannot pass vacuously.
	outcomes int
}

// itemCheck defers one outcome's frequency check to the sweep in finish:
// item must have been sent to node within its first prefix batches, at
// least freq+1 times.
type itemCheck struct {
	node   int
	prefix int64
	item   int64
	freq   int64
}

// newOracle is built after the run, once the ledger is final.
func newOracle(led *ledger) *oracle {
	o := &oracle{led: led, mass: make([][]int64, len(led.nodes))}
	for j := range led.nodes {
		m := make([]int64, len(led.nodes[j].batches)+1)
		for p, b := range led.nodes[j].batches {
			m[p+1] = m[p] + int64(len(b))
		}
		o.mass[j] = m
		if f := led.nodes[j].failed.Load(); f > 0 {
			o.fail("node%d: %d ingest requests failed, so its acknowledged stream is not exactly known", j, f)
		}
	}
	return o
}

func (o *oracle) fail(format string, args ...any) {
	o.nerr++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// ackedMass is what node j acknowledged over the whole run.
func (o *oracle) ackedMass(j int) int64 { return o.mass[j][o.led.nodes[j].acked.Load()] }

// check verifies one successful request's answer.
func (o *oracle) check(r *record) {
	if r.failed() {
		return
	}
	o.checkBody(r.op.kind, r.op.node, r.body, r.batch, r.lo, r.hi)
}

// checkBody verifies one answer body. An ingest ack must count the
// batch and report the node's exact stream length after it (each node
// has one ingesting sender, so the prefix is known). A query's
// streamLen must lie between the mass acknowledged when it was sent
// (lo) and the mass sent when its reply arrived (hi), and each outcome
// must name an item sent to the node it hashes to. An outcome's freq is
// the sampler's after-count c (occurrences strictly after the sampled
// one, sample.Outcome.Freq), so the item must have been sent at least
// c+1 times: 1 ≤ c+1 ≤ its acknowledged count.
func (o *oracle) checkBody(kind opKind, node int, body []byte, batch int, lo, hi []int64) {
	if kind.class() == classIngest {
		var ack serve.IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			o.fail("node%d ingest: bad ack %q: %v", node, body, err)
			return
		}
		want := o.mass[node][batch+1]
		n := o.mass[node][batch+1] - o.mass[node][batch]
		if int64(ack.Accepted) != n || ack.StreamLen != want {
			o.fail("node%d ingest batch %d: ack accepted=%d streamLen=%d, want %d and %d", node, batch, ack.Accepted, ack.StreamLen, n, want)
		}
		return
	}
	var resp serve.SampleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		o.fail("%s: bad answer %q: %v", kind.class(), body, err)
		return
	}
	nodes := []int{node}
	where := fmt.Sprintf("node%d sample", node)
	if kind == opAggSample {
		nodes, where = nil, "aggregator samplek"
		for j := range o.mass {
			nodes = append(nodes, j)
		}
	}
	var min, max int64
	for _, j := range nodes {
		min += o.mass[j][lo[j]]
		max += o.mass[j][hi[j]]
	}
	if resp.StreamLen < min || resp.StreamLen > max {
		o.fail("%s: streamLen %d outside acknowledged [%d, %d]", where, resp.StreamLen, min, max)
	}
	for _, out := range resp.Outcomes {
		if out.Bottom {
			continue
		}
		o.outcomes++
		j := nodeOf(out.Item, len(o.mass))
		if kind != opAggSample && j != node {
			o.fail("%s: item %d hashes to node%d", where, out.Item, j)
			continue
		}
		if out.Freq < 0 {
			o.fail("%s: item %d freq %d < 0", where, out.Item, out.Freq)
			continue
		}
		o.checks = append(o.checks, itemCheck{node: j, prefix: hi[j], item: out.Item, freq: out.Freq})
	}
}

// finish runs the deferred frequency checks — one sweep per node over
// its batches, checks sorted by prefix — and returns every violation.
func (o *oracle) finish() error {
	sort.Slice(o.checks, func(a, b int) bool {
		ca, cb := o.checks[a], o.checks[b]
		if ca.node != cb.node {
			return ca.node < cb.node
		}
		return ca.prefix < cb.prefix
	})
	var counts map[int64]int64
	node, applied := -1, int64(0)
	for _, c := range o.checks {
		if c.node != node {
			node, applied, counts = c.node, 0, make(map[int64]int64)
		}
		for ; applied < c.prefix; applied++ {
			for _, it := range o.led.nodes[node].batches[applied] {
				counts[it]++
			}
		}
		if n := counts[c.item]; c.freq+1 > n {
			o.fail("node%d item %d: freq %d needs %d occurrences, %d were sent before the reply", node, c.item, c.freq, c.freq+1, n)
		}
	}
	if o.outcomes == 0 {
		o.fail("no query returned an item: the checks above were vacuous")
	}
	if o.nerr == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness violations: %s", o.nerr, strings.Join(o.errs, "; "))
}
