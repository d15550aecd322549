package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/wire"
	"repro/sample/serve"
)

// The paper's Lp sampler at p = 2 over universe [0, universe) is what
// every node serves (-sampler l2 -n 4096).
const (
	universe  = 4096
	zipfS     = 1.1
	sampleK   = 16
	smallSize = 128  // the common ingest batch
	largeSize = 4096 // the occasional bulk batch
	// Every block of blockLen ingest requests carries exactly two large
	// batches (one per codec), so each seed offers the same mean load.
	// A quarter of requests are large and an eighth are large JSON, so
	// p95 falls inside the large-JSON population instead of on the edge
	// between it and the rest, where it would jump from run to run.
	blockLen = 8
	// churnBlock is mixed-churn's block: one large binary batch in 16.
	churnBlock = 16
	// preloadBatch is the batch size preloads use: large enough that
	// setup time is dominated by the engines, not by request overhead.
	preloadBatch = 16384
)

// opKind is what one generated request does.
type opKind uint8

const (
	opIngestJSON   opKind = iota // POST /ingest, application/json
	opIngestBinary               // POST /ingest, application/x-tp-items
	opNodeSample                 // node GET /sample?k=16
	opAggSample                  // aggregator GET /samplek?k=16
)

// class is the op type latencies are reported under.
func (k opKind) class() string {
	switch k {
	case opIngestJSON, opIngestBinary:
		return classIngest
	case opNodeSample:
		return classNodeQuery
	}
	return classQuery
}

const (
	classIngest    = "ingest"
	classQuery     = "query"
	classNodeQuery = "node_query"
)

// op is one request of a workload's generated sequence. The program
// under test receives only body (and the path the kind implies).
type op struct {
	kind  opKind
	node  int           // target node; ignored for opAggSample
	at    time.Duration // intended send time, from the open loop's start
	items []int64       // ingest payload, kept for the oracle and the replay
	body  []byte
}

// connPlan is one sender's work: an open-loop schedule, then (when
// closed is set) a closed-loop phase cycling through closed. A plan
// without closed ops schedules its open loop through the closed-loop
// phase too (mixed-churn's churn connection keeps churning).
type connPlan struct {
	open   []op
	closed []op
}

// workload fixes one traffic mix. Rates are fixed constants, not fitted
// per run, so a faster program shows as lower latency at the same load.
type workload struct {
	name     string
	nodes    int
	agg      bool
	ckpt     bool   // nodes checkpoint every second into a DirStore
	headline string // op class p50_ms and capacity_per_s report
	// preloadItems is the total preloaded stream, split across the
	// nodes by item hash (0: the nodes start empty).
	preloadItems int
	// plan builds the sender plans for an open loop of length open plus
	// a closed loop of length closed.
	plan func(g *gen, open, closed time.Duration) []connPlan
}

var workloads = []*workload{
	{
		name:     "ingest",
		nodes:    2,
		ckpt:     true,
		headline: classIngest,
		plan: func(g *gen, open, closed time.Duration) []connPlan {
			const perConn = 300 // requests/s on each node's connection
			plans := make([]connPlan, 2)
			for j := range plans {
				offset := time.Duration(j) * time.Second / (2 * perConn)
				plans[j].open = g.ingestOps(j, perConn, offset, open)
				plans[j].closed = g.ingestOps(j, perConn, 0, time.Second)
			}
			return plans
		},
	},
	{
		name:         "query-steady",
		nodes:        3,
		agg:          true,
		headline:     classQuery,
		preloadItems: 1 << 20,
		plan: func(g *gen, open, closed time.Duration) []connPlan {
			const perConn = 45 // aggregator queries/s on each connection
			plans := make([]connPlan, 2)
			for j := range plans {
				offset := time.Duration(j) * time.Second / (2 * perConn)
				plans[j].open = g.aggOps(perConn, offset, open)
				plans[j].closed = g.aggOps(1, 0, time.Second)
			}
			return plans
		},
	},
	{
		name:         "mixed-churn",
		nodes:        2,
		agg:          true,
		headline:     classQuery,
		preloadItems: 1 << 20,
		plan: func(g *gen, open, closed time.Duration) []connPlan {
			const churnRate = 100 // node A: ingest+sample pairs/s
			const aggRate = 20    // aggregator queries/s
			churn := connPlan{open: g.churnOps(0, churnRate, open+closed)}
			queries := connPlan{
				open:   g.aggOps(aggRate, time.Second/(2*aggRate), open),
				closed: g.aggOps(1, 0, time.Second),
			}
			return []connPlan{churn, queries}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// gen derives every input of a run from its seed: the item universe's
// Zipf ranks, the rank→item permutation, batch sizes, codecs and
// schedules. The same seed gives byte-identical request sequences.
type gen struct {
	nodes int
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int64
}

func newGen(seed uint64, nodes int) *gen {
	r := rand.New(rand.NewPCG(seed, 0x636c757374657262))
	// The seed renames items but never reshapes the load: ranks go to
	// nodes round-robin (rank r to node r mod nodes while it has items
	// left), so every seed gives every node the same share of the Zipf
	// mass and the same skew. Only which items fill each node's ranks is
	// shuffled.
	byNode := make([][]int64, nodes)
	for it := int64(0); it < universe; it++ {
		j := nodeOf(it, nodes)
		byNode[j] = append(byNode[j], it)
	}
	for _, items := range byNode {
		r.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	}
	perm := make([]int64, 0, universe)
	for rank := 0; len(perm) < universe; rank++ {
		if j := rank % nodes; len(byNode[j]) > 0 {
			perm = append(perm, byNode[j][0])
			byNode[j] = byNode[j][1:]
		}
	}
	return &gen{nodes: nodes, rng: r, zipf: rand.NewZipf(r, zipfS, 1, universe-1), perm: perm}
}

// nodeOf is the front door's hash partition: every item lives on exactly
// one node, as snap.Merge requires for nonlinear measures.
func nodeOf(item int64, nodes int) int {
	x := uint64(item) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(nodes))
}

// item draws one Zipf item.
func (g *gen) item() int64 { return g.perm[g.zipf.Uint64()] }

// itemsFor draws n Zipf items that hash to node j — the node's share of
// one global Zipf stream.
func (g *gen) itemsFor(j, n int) []int64 {
	items := make([]int64, 0, n)
	for len(items) < n {
		if it := g.item(); nodeOf(it, g.nodes) == j {
			items = append(items, it)
		}
	}
	return items
}

// jitter returns size ± 25%.
func (g *gen) jitter(size int) int { return size - size/4 + g.rng.IntN(size/2+1) }

// ingestOps schedules ingest requests to node j at rate per second from
// offset until end. Codecs alternate, and each block of blockLen
// requests holds one large JSON and one large binary batch.
func (g *gen) ingestOps(j int, rate float64, offset, end time.Duration) []op {
	var ops []op
	var large [2]int
	for i := 0; ; i++ {
		at := offset + time.Duration(float64(i)*float64(time.Second)/rate)
		if at >= end {
			return ops
		}
		if i%blockLen == 0 {
			// One even and one odd slot, so each codec gets one large batch.
			large = [2]int{2 * g.rng.IntN(blockLen/2), 2*g.rng.IntN(blockLen/2) + 1}
		}
		size := smallSize
		if k := i % blockLen; k == large[0] || k == large[1] {
			size = largeSize
		}
		kind := opIngestBinary
		if i%2 == 0 {
			kind = opIngestJSON
		}
		ops = append(ops, g.ingestOp(kind, j, at, g.itemsFor(j, g.jitter(size))))
	}
}

func (g *gen) ingestOp(kind opKind, j int, at time.Duration, items []int64) op {
	o := op{kind: kind, node: j, at: at, items: items}
	if kind == opIngestJSON {
		o.body, _ = json.Marshal(serve.IngestRequest{Items: items}) // []int64 always marshals
	} else {
		o.body = wire.EncodeItems(items)
	}
	return o
}

// aggOps schedules aggregator queries at rate per second.
func (g *gen) aggOps(rate float64, offset, end time.Duration) []op {
	var ops []op
	for i := 0; ; i++ {
		at := offset + time.Duration(float64(i)*float64(time.Second)/rate)
		if at >= end {
			return ops
		}
		ops = append(ops, op{kind: opAggSample, at: at})
	}
}

// churnOps schedules rate pairs per second of (binary ingest, node
// query) to node j: every query follows a version bump.
func (g *gen) churnOps(j int, rate float64, end time.Duration) []op {
	var ops []op
	var large int
	for i := 0; ; i++ {
		at := time.Duration(float64(i) * float64(time.Second) / rate)
		if at >= end {
			return ops
		}
		if i%churnBlock == 0 {
			large = g.rng.IntN(churnBlock)
		}
		size := smallSize
		if i%churnBlock == large {
			size = largeSize
		}
		ops = append(ops,
			g.ingestOp(opIngestBinary, j, at, g.itemsFor(j, g.jitter(size))),
			op{kind: opNodeSample, node: j, at: at + time.Second/(2*time.Duration(rate))})
	}
}

// preload builds each preloaded node's share of a total-item Zipf stream
// as binary batches.
func (g *gen) preload(w *workload) [][]op {
	routed := make([][]int64, w.nodes)
	for n := 0; n < w.preloadItems; n++ {
		it := g.item()
		j := nodeOf(it, w.nodes)
		routed[j] = append(routed[j], it)
	}
	ops := make([][]op, w.nodes)
	for j, items := range routed {
		for len(items) > 0 {
			n := min(preloadBatch, len(items))
			ops[j] = append(ops[j], g.ingestOp(opIngestBinary, j, 0, items[:n:n]))
			items = items[n:]
		}
	}
	return ops
}

// inputs is everything one run sends, generated up front.
type inputs struct {
	preload [][]op
	plans   []connPlan
}

func generate(w *workload, seed uint64, open, closed time.Duration) inputs {
	g := newGen(seed, w.nodes)
	in := inputs{preload: g.preload(w)}
	in.plans = w.plan(g, open, closed)
	return in
}

// hash fingerprints the generated request sequence: every op's kind,
// target, intended time and body, in send order per connection.
func (in inputs) hash() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	add := func(ops []op) {
		put(uint64(len(ops)))
		for _, o := range ops {
			put(uint64(o.kind))
			put(uint64(o.node))
			put(uint64(o.at))
			put(uint64(len(o.body)))
			h.Write(o.body)
		}
	}
	for _, ops := range in.preload {
		add(ops)
	}
	for _, p := range in.plans {
		add(p.open)
		add(p.closed)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
