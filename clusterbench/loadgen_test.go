package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/sample/serve"
)

// TestOpenLoopChargesStallToQueuedRequests runs the open loop against a
// stub aggregator that stalls one request on purpose. Every request
// scheduled during the stall waits behind it on the single connection,
// and its latency, timed from its intended send time, must include that
// wait: coordinated omission cannot hide the queue.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		n        = 60
		stallAt  = 10
		stall    = 150 * time.Millisecond
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(serve.SampleResponse{})
	}))
	defer srv.Close()

	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opAggSample, at: time.Duration(i) * interval}
	}
	s := &sender{client: newConnClient(), agg: srv.URL, start: time.Now(), ledger: newLedger(0)}
	recs := s.run(context.Background(), connPlan{open: ops}, time.Hour, time.Hour)
	if len(recs) != n {
		t.Fatalf("sent %d of %d requests", len(recs), n)
	}
	stalled := recs[stallAt]
	if stalled.latency() < stall {
		t.Fatalf("stalled request latency %v < stall %v", stalled.latency(), stall)
	}
	stallEnd := stalled.done
	queued := 0
	for _, r := range recs[stallAt+1:] {
		if r.intended >= stallEnd {
			break
		}
		queued++
		// Charged from its intended time: at least the rest of the stall.
		if want := stallEnd - r.intended; r.latency() < want {
			t.Errorf("request due at %v: latency %v hides %v of queueing", r.intended, r.latency(), want)
		}
		if r.lateness() <= 0 {
			t.Errorf("request due at %v reports no lateness", r.intended)
		}
	}
	if want := int(stall/interval) - 2; queued < want {
		t.Fatalf("%d requests queued behind the stall, want at least %d", queued, want)
	}
	// A closed loop over the same requests would have timed each from
	// when the connection freed up, reporting one slow request and no
	// queue; the open loop's latency distribution shows the backlog.
	var slow int
	for _, r := range recs {
		if r.latency() > stall/2 {
			slow++
		}
	}
	if slow < int(stall/interval)/2 {
		t.Fatalf("only %d requests over %v; the stall was not charged to the queue", slow, stall/2)
	}
}
