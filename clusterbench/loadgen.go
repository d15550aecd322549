package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/sample/serve"
)

// record is one request as the generator saw it. Times are offsets from
// the run's start. In the open loop, intended is the scheduled send time,
// so a stall is charged to every request queued behind it (the wrk2
// design); in the closed loop it is the moment the sender was free.
type record struct {
	op        *op
	closed    bool
	intended  time.Duration
	sent      time.Duration // the sender began the request
	wrote     time.Duration // request fully written (traced runs only)
	firstByte time.Duration // first response byte (traced runs only)
	done      time.Duration // response body fully read
	status    int
	err       error
	body      []byte
	// Oracle bookkeeping, read from the ledger: the ingest batch index
	// this request carried (ingest), or per node the batches acknowledged
	// when the request was sent (lo) and sent when its reply arrived (hi).
	batch  int
	lo, hi []int64
}

func (r *record) latency() time.Duration  { return r.done - r.intended }
func (r *record) lateness() time.Duration { return r.sent - r.intended }
func (r *record) failed() bool            { return r.err != nil || r.status != http.StatusOK }

// ledger is what the fleet was sent and what it acknowledged, per node,
// in send order. Each node has exactly one ingesting sender (the setup's
// preload, then at most one connection), so batches has a single writer;
// other senders read only the atomic counters.
type ledger struct {
	nodes []nodeLedger
}

type nodeLedger struct {
	batches [][]int64
	sent    atomic.Int64 // batches handed to the transport
	acked   atomic.Int64 // batches the node answered 200 for
	failed  atomic.Int64 // ingest requests that failed: exact accounting lost
}

func newLedger(nodes int) *ledger { return &ledger{nodes: make([]nodeLedger, nodes)} }

func (l *ledger) snapshot(acked bool) []int64 {
	out := make([]int64, len(l.nodes))
	for j := range l.nodes {
		if acked {
			out[j] = l.nodes[j].acked.Load()
		} else {
			out[j] = l.nodes[j].sent.Load()
		}
	}
	return out
}

// sender drives one connection: one goroutine, one TCP connection, at
// most one request in flight.
type sender struct {
	client *http.Client
	nodes  []string // node base URLs
	agg    string   // aggregator base URL
	start  time.Time
	trace  bool
	ledger *ledger
}

// newConnClient returns a client whose transport holds at most one
// connection, so a sender is exactly one connection.
func newConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			TLSNextProto:        map[string]func(string, *tls.Conn) http.RoundTripper{},
		},
	}
}

func (s *sender) since() time.Duration { return time.Since(s.start) }

// run sends plan's open-loop schedule — ops due before openEnd, or the
// whole schedule when the plan has no closed phase — then, until end,
// cycles plan.closed back to back.
func (s *sender) run(ctx context.Context, plan connPlan, openEnd, end time.Duration) []record {
	var recs []record
	wait := func(at time.Duration) bool {
		for ctx.Err() == nil {
			d := at - s.since()
			if d <= 0 {
				return true
			}
			// Go timers wake up to ~1ms late on an idle process, which an
			// open loop would charge to the program; nanosleep blocks just
			// this thread on a high-resolution timer. Sleep in slices so a
			// cancelled run stops promptly.
			ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
		}
		return false
	}
	for i := range plan.open {
		o := &plan.open[i]
		if (len(plan.closed) > 0 && o.at >= openEnd) || !wait(o.at) {
			break
		}
		recs = append(recs, s.do(ctx, o, o.at, false))
	}
	if len(plan.closed) == 0 || !wait(openEnd) {
		return recs
	}
	for i := 0; ctx.Err() == nil; i++ {
		now := s.since()
		if now >= end {
			break
		}
		recs = append(recs, s.do(ctx, &plan.closed[i%len(plan.closed)], now, true))
	}
	return recs
}

// do sends one request and reads its whole reply.
func (s *sender) do(ctx context.Context, o *op, intended time.Duration, closed bool) record {
	rec := record{op: o, closed: closed, intended: intended, batch: -1}
	var req *http.Request
	var err error
	switch o.kind {
	case opIngestJSON, opIngestBinary:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, s.nodes[o.node]+"/ingest", bytes.NewReader(o.body))
		if err == nil {
			ct := serve.ContentTypeJSON
			if o.kind == opIngestBinary {
				ct = serve.ContentTypeBinary
			}
			req.Header.Set("Content-Type", ct)
		}
	case opNodeSample:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.nodes[o.node]+"/sample?k="+strconv.Itoa(sampleK), nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.agg+"/samplek?k="+strconv.Itoa(sampleK), nil)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	// The transport calls WroteRequest from its own goroutine.
	var wrote, firstByte atomic.Int64
	if s.trace {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(s.since())) },
			GotFirstResponseByte: func() { firstByte.Store(int64(s.since())) },
		}))
	}
	ingest := o.kind.class() == classIngest
	var nl *nodeLedger
	if ingest {
		nl = &s.ledger.nodes[o.node]
		rec.batch = len(nl.batches)
		nl.batches = append(nl.batches, o.items)
		nl.sent.Add(1)
	} else {
		rec.lo = s.ledger.snapshot(true)
	}
	rec.sent = s.since()
	resp, err := s.client.Do(req)
	if err == nil {
		rec.status = resp.StatusCode
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.done = s.since()
	rec.err = err
	rec.wrote, rec.firstByte = time.Duration(wrote.Load()), time.Duration(firstByte.Load())
	switch {
	case !ingest:
		rec.hi = s.ledger.snapshot(false)
	case rec.failed():
		nl.failed.Add(1)
	default:
		nl.acked.Add(1)
	}
	return rec
}

// drive runs every plan on its own sender goroutine and returns each
// sender's records once all have finished.
func drive(ctx context.Context, senders []*sender, plans []connPlan, openEnd, end time.Duration) [][]record {
	out := make([][]record, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = senders[i].run(ctx, plans[i], openEnd, end)
		}(i)
	}
	wg.Wait()
	return out
}
