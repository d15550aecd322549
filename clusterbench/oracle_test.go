package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/sample/serve"
)

// ledgerOf builds a two-node ledger whose batches were all acknowledged.
func ledgerOf(batches ...[][]int64) *ledger {
	l := newLedger(len(batches))
	for j, bs := range batches {
		l.nodes[j].batches = bs
		l.nodes[j].sent.Store(int64(len(bs)))
		l.nodes[j].acked.Store(int64(len(bs)))
	}
	return l
}

func answer(t *testing.T, streamLen int64, outs ...serve.OutcomeJSON) []byte {
	t.Helper()
	b, err := json.Marshal(serve.SampleResponse{Outcomes: outs, Count: len(outs), StreamLen: streamLen})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracle(t *testing.T) {
	// Find one item per node under the two-node partition.
	var a, b int64 = -1, -1
	for it := int64(0); a < 0 || b < 0; it++ {
		if nodeOf(it, 2) == 0 && a < 0 {
			a = it
		} else if nodeOf(it, 2) == 1 && b < 0 {
			b = it
		}
	}
	led := func() *ledger { return ledgerOf([][]int64{{a, a}, {a}}, [][]int64{{b}}) }
	all := []int64{2, 1} // batches per node

	o := newOracle(led())
	o.checkBody(opIngestBinary, 0, []byte(`{"accepted":1,"streamLen":3}`), 1, nil, nil)
	o.checkBody(opAggSample, 0, answer(t, 4, serve.OutcomeJSON{Item: a, Freq: 2}, serve.OutcomeJSON{Item: b, Freq: 0}), -1, all, all)
	o.checkBody(opNodeSample, 1, answer(t, 1, serve.OutcomeJSON{Item: b}), -1, all, all)
	if err := o.finish(); err != nil {
		t.Fatalf("valid answers rejected: %v", err)
	}

	for name, c := range map[string]struct {
		kind opKind
		node int
		body []byte
		lo   []int64
		want string
	}{
		"wrong ack":         {opIngestBinary, 0, []byte(`{"accepted":1,"streamLen":2}`), nil, "ack"},
		"stale mass":        {opAggSample, 0, answer(t, 3, serve.OutcomeJSON{Item: a}), all, "outside"},
		"freq past count":   {opAggSample, 0, answer(t, 4, serve.OutcomeJSON{Item: a, Freq: 3}), all, "freq 3 needs 4"},
		"never sent":        {opAggSample, 0, answer(t, 4, serve.OutcomeJSON{Item: a}), []int64{0, 1}, "needs"},
		"wrong node":        {opNodeSample, 1, answer(t, 1, serve.OutcomeJSON{Item: a}), all, "hashes"},
		"no items returned": {opNodeSample, 1, answer(t, 1), all, "vacuous"},
	} {
		o := newOracle(led())
		o.checkBody(c.kind, c.node, c.body, 1, c.lo, c.lo)
		err := o.finish()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", name, err, c.want)
		}
	}
}
