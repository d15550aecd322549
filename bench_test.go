// Benchmarks regenerating the paper's quantitative claims — one bench
// per experiment of DESIGN.md §3 (the paper has no empirical tables;
// these are its theorems). Custom metrics attach the experiment's
// measured quantity to the benchmark output:
//
//	tv          total-variation distance of the output law vs exact
//	noise       the matched-sample TV noise floor (tv ≈ noise ⇒ exact)
//	failrate    FAIL probability
//	bits        live sampler size
//	instances   parallel-instance count (the space driver)
//
// Run: go test -bench . -benchmem .
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/amssketch"
	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/matrixsampler"
	"repro/internal/measure"
	"repro/internal/perfectlp"
	"repro/internal/randorder"
	"repro/internal/rng"
	"repro/internal/smoothhist"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/turnstile"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
	"repro/sample/snap"
)

// lawBench runs b.N sampler constructions over items and reports the
// empirical TV vs the target law, the noise floor, and the FAIL rate.
func lawBench(b *testing.B, items []int64, target stats.Distribution,
	mk func(seed uint64) interface {
		Process(int64)
		Sample() (core.Outcome, bool)
	}) {
	b.Helper()
	h := stats.Histogram{}
	fails := 0
	for rep := 0; rep < b.N; rep++ {
		s := mk(uint64(rep) + 1)
		for _, it := range items {
			s.Process(it)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
		b.ReportMetric(stats.ExpectedTV(target, h.Total()), "noise")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE01FrameworkExactness(b *testing.B) {
	gen := stream.NewGenerator(rng.New(1))
	items := gen.Zipf(40, 600, 1.1)
	est := measure.L1L2{}
	target := stats.GDistribution(stream.Frequencies(items), est.G)
	lawBench(b, items, target, func(seed uint64) interface {
		Process(int64)
		Sample() (core.Outcome, bool)
	} {
		return core.NewMEstimatorSampler(est, 600, 0.1, seed)
	})
}

func BenchmarkE02LpSpaceScaling(b *testing.B) {
	// Report the instance count at n = 2^12 for p = 2 (Θ(√n)) while
	// timing construction+stream.
	gen := stream.NewGenerator(rng.New(2))
	items := gen.Zipf(1<<12, 1<<13, 1.2)
	var bits, instances int64
	for i := 0; i < b.N; i++ {
		s := core.NewLpSampler(2, 1<<12, 1<<13, 0.3, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		bits, instances = s.BitsUsed(), int64(s.Instances())
	}
	b.ReportMetric(float64(bits), "bits")
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(math.Pow(1<<12, 0.5), "n^{1-1/p}")
}

func BenchmarkE03LpSubOne(b *testing.B) {
	gen := stream.NewGenerator(rng.New(3))
	const m = 1 << 12
	items := gen.Zipf(256, m, 1.2)
	var instances int64
	for i := 0; i < b.N; i++ {
		s := core.NewLpSampler(0.5, 256, m, 0.3, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		instances = int64(s.Instances())
	}
	b.ReportMetric(float64(instances), "instances")
	b.ReportMetric(math.Sqrt(m), "m^{1-p}")
}

func BenchmarkE04UpdateTimeTrulyPerfect(b *testing.B) {
	s := core.NewLpSampler(2, 1<<14, int64(b.N)+1, 0.2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(int64(i & (1<<14 - 1)))
	}
}

func BenchmarkE04UpdateTimeBaseline(b *testing.B) {
	s := perfectlp.NewPrecision(2, 1<<14, 5, 512, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(int64(i & (1<<14 - 1)))
	}
}

func BenchmarkE04QueryTrulyPerfect(b *testing.B) {
	gen := stream.NewGenerator(rng.New(4))
	s := core.NewLpSampler(2, 1<<14, 1<<16, 0.2, 1)
	for _, it := range gen.Zipf(1<<14, 1<<16, 1.1) {
		s.Process(it)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkE04QueryBaseline(b *testing.B) {
	gen := stream.NewGenerator(rng.New(4))
	s := perfectlp.NewPrecision(2, 1<<14, 5, 512, 4, 1)
	for _, it := range gen.Zipf(1<<14, 1<<16, 1.1) {
		s.Process(it)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample()
	}
}

func BenchmarkE05MEstimators(b *testing.B) {
	gen := stream.NewGenerator(rng.New(5))
	items := gen.Zipf(64, 2000, 1.2)
	est := measure.Huber{Tau: 3}
	target := stats.GDistribution(stream.Frequencies(items), est.G)
	lawBench(b, items, target, func(seed uint64) interface {
		Process(int64)
		Sample() (core.Outcome, bool)
	} {
		return core.NewMEstimatorSampler(est, 2000, 0.05, seed)
	})
}

func BenchmarkE06MatrixRows(b *testing.B) {
	src := rng.New(6)
	const d, m = 8, 500
	z := rng.NewZipf(src, 1.2, 24)
	rows := map[int64][]int64{}
	var ups []matrixsampler.Entry
	for i := 0; i < m; i++ {
		r, c := z.Draw(), src.Intn(d)
		ups = append(ups, matrixsampler.Entry{Row: r, Col: c, Delta: 1})
		if rows[r] == nil {
			rows[r] = make([]int64, d)
		}
		rows[r][c]++
	}
	gm := matrixsampler.L2Rows{}
	w := map[int64]float64{}
	for r, v := range rows {
		w[r] = gm.G(v)
	}
	target := stats.NewDistribution(w)
	rInst := matrixsampler.Instances(gm, m, d, 0.2)
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		s := matrixsampler.New(gm, d, rInst, uint64(i)+1)
		for _, u := range ups {
			s.Process(u)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Row)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE07SlidingWindowG(b *testing.B) {
	gen := stream.NewGenerator(rng.New(7))
	const m, w = 1000, 250
	pre := gen.Zipf(10, m-w, 1.5)
	post := gen.Zipf(15, w, 1.0)
	for i := range post {
		post[i] += 20
	}
	items := append(pre, post...)
	est := measure.Huber{Tau: 3}
	target := stats.GDistribution(stream.WindowFrequencies(items, w), est.G)
	lawBench(b, items, target, func(seed uint64) interface {
		Process(int64)
		Sample() (core.Outcome, bool)
	} {
		return window.NewMEstimatorSampler(est, w, 0.1, seed)
	})
}

func BenchmarkE08SlidingWindowLp(b *testing.B) {
	gen := stream.NewGenerator(rng.New(8))
	const m, w = 800, 200
	items := gen.Zipf(32, m, 1.2)
	target := stats.GDistribution(stream.WindowFrequencies(items, w),
		measure.Lp{P: 2}.G)
	lawBench(b, items, target, func(seed uint64) interface {
		Process(int64)
		Sample() (core.Outcome, bool)
	} {
		return window.NewLpSampler(2, 64, w, 0.2, window.NormalizerMisraGries, seed)
	})
}

func BenchmarkE09F0(b *testing.B) {
	gen := stream.NewGenerator(rng.New(9))
	items := gen.Uniform(200, 3000)
	target := stats.GDistribution(stream.Frequencies(items),
		func(int64) float64 { return 1 })
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		s := f0.NewSampler(256, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
	b.ReportMetric(float64(f0.NewSampler(256, 1).BitsUsed()), "bits")
}

func BenchmarkE10Tukey(b *testing.B) {
	gen := stream.NewGenerator(rng.New(10))
	items := gen.Zipf(20, 400, 1.2)
	tk := measure.Tukey{Tau: 3}
	target := stats.GDistribution(stream.Frequencies(items), tk.G)
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		s := f0.NewTukeySampler(3, 1024, 0.2, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE11RandomOrderL2(b *testing.B) {
	freq := map[int64]int64{1: 40, 2: 25, 3: 15, 4: 10, 5: 5, 6: 5}
	gen := stream.NewGenerator(rng.New(11))
	target := stats.GDistribution(freq, measure.Lp{P: 2}.G)
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		items := gen.FromFrequencies(freq)
		s := randorder.NewL2(int64(len(items)), 64, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE12RandomOrderL3(b *testing.B) {
	freq := map[int64]int64{1: 30, 2: 20, 3: 12, 4: 8}
	gen := stream.NewGenerator(rng.New(12))
	target := stats.GDistribution(freq, measure.Lp{P: 3}.G)
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		items := gen.FromFrequencies(freq)
		s := randorder.NewLp(3, int64(len(items)), uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE13EqualityLB(b *testing.B) {
	gs := turnstile.NewGammaSampler(1.0/256, 0, 13)
	game := turnstile.NewEqualityGame(4096, gs, 17)
	ref, ver := game.Errors(b.N)
	b.ReportMetric(ref, "refutation")
	b.ReportMetric(ver, "verification")
	b.ReportMetric(turnstile.EffectiveInstanceSize(4096, 1.0/256), "nhat-bits")
}

func BenchmarkE14PerfectSubOne(b *testing.B) {
	gen := stream.NewGenerator(rng.New(14))
	items := gen.Zipf(20, 1500, 1.2)
	target := stats.GDistribution(stream.Frequencies(items), measure.Lp{P: 0.5}.G)
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		s := perfectlp.NewFastSubOne(0.5, 16, uint64(i)+1)
		for _, it := range items {
			s.Process(it)
		}
		item, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv(bias)")
		b.ReportMetric(stats.ExpectedTV(target, h.Total()), "noise")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkE15MultiPass(b *testing.B) {
	gen := stream.NewGenerator(rng.New(15))
	sl := gen.StrictTurnstile(1<<10, 4000, 1.2, 0.2)
	var passes int
	var bits int64
	for i := 0; i < b.N; i++ {
		mp := turnstile.NewMultipassLp(2, 0.5, 0.2, uint64(i)+1)
		mp.Sample(sl)
		passes, bits = mp.Passes, mp.BitsUsed()
	}
	b.ReportMetric(float64(passes), "passes")
	b.ReportMetric(float64(bits), "bits")
}

func BenchmarkE16TurnstileF0(b *testing.B) {
	gen := stream.NewGenerator(rng.New(16))
	sl := gen.StrictTurnstile(100, 1000, 0.8, 0.25)
	target := stats.GDistribution(stream.FrequencyVector(sl),
		func(int64) float64 { return 1 })
	h := stats.Histogram{}
	fails := 0
	for i := 0; i < b.N; i++ {
		s := f0.NewTurnstileSampler(100, uint64(i)+1)
		sl.Replay(func(u stream.Update) { s.Process(u) })
		out, ok := s.Sample()
		if !ok {
			fails++
			continue
		}
		h.Add(out.Item)
	}
	if h.Total() > 0 {
		b.ReportMetric(stats.TV(h, target), "tv")
	}
	b.ReportMetric(float64(fails)/float64(b.N), "failrate")
}

func BenchmarkF1SmoothHistogram(b *testing.B) {
	gen := stream.NewGenerator(rng.New(101))
	const w = 1 << 10
	items := gen.Zipf(64, 4*w, 1.1)
	var maxTS int
	for i := 0; i < b.N; i++ {
		h := smoothhist.New(smoothhist.Config{
			Window: w,
			Beta:   0.2,
			NewEstimator: func() amssketch.Estimator {
				return amssketch.NewExact(1, false)
			},
		})
		for _, it := range items {
			h.Process(it)
		}
		maxTS = h.MaxLiveTimestamps()
	}
	b.ReportMetric(float64(maxTS), "timestamps")
	b.ReportMetric(math.Log2(w), "log2(W)")
}

// --- E19: batch + sharded ingestion throughput (DESIGN.md §3) -----------

// ingestStream returns a fixed Zipf workload reused by the E19 family so
// every mode ingests the same item mix.
func ingestStream() []int64 {
	gen := stream.NewGenerator(rng.New(17))
	return gen.Zipf(1<<14, 1<<16, 1.1)
}

// BenchmarkE19IngestSingleProcess is the baseline: one L2 sampler, one
// goroutine, one Process call per update.
func BenchmarkE19IngestSingleProcess(b *testing.B) {
	items := ingestStream()
	mask := len(items) - 1
	s := core.NewLpSampler(2, 1<<14, int64(b.N)+1, 0.2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(items[i&mask])
	}
}

// BenchmarkE19IngestSingleBatch is the same sampler driven through the
// ProcessBatch fast path in 8192-update chunks.
func BenchmarkE19IngestSingleBatch(b *testing.B) {
	items := ingestStream()
	const chunk = 8192
	s := core.NewLpSampler(2, 1<<14, int64(b.N)+1, 0.2, 1)
	b.ResetTimer()
	for processed := 0; processed < b.N; {
		off := processed % (len(items) - chunk)
		end := chunk
		if rem := b.N - processed; rem < end {
			end = rem
		}
		s.ProcessBatch(items[off : off+end])
		processed += end
	}
}

// benchShardIngest drives the sharded coordinator with ProcessBatch and
// drains before the clock stops, so the reported ns/op is true ingest
// throughput, not buffering throughput.
func benchShardIngest(b *testing.B, shards int) {
	b.Helper()
	items := ingestStream()
	const chunk = 8192
	c := shard.NewLp(2, 1<<14, int64(b.N)+1, 0.2, 1, shard.Config{Shards: shards})
	defer c.Close()
	b.ResetTimer()
	for processed := 0; processed < b.N; {
		off := processed % (len(items) - chunk)
		end := chunk
		if rem := b.N - processed; rem < end {
			end = rem
		}
		c.ProcessBatch(items[off : off+end])
		processed += end
	}
	c.Drain()
}

func BenchmarkE19Shards1(b *testing.B) { benchShardIngest(b, 1) }
func BenchmarkE19Shards2(b *testing.B) { benchShardIngest(b, 2) }
func BenchmarkE19Shards4(b *testing.B) { benchShardIngest(b, 4) }
func BenchmarkE19Shards8(b *testing.B) { benchShardIngest(b, 8) }

// --- E20: independent multi-sample queries (DESIGN.md §3) ---------------

// benchSampleK measures merged SampleK(k) query latency on a 4-shard
// L1 coordinator provisioned with k query groups and a pre-ingested
// Zipf stream. The "draws/query" metric confirms every query returns
// its full complement of independent samples (L1 never FAILs).
func benchSampleK(b *testing.B, k int) {
	b.Helper()
	items := ingestStream()
	c := shard.NewL1(0.1, 1, shard.Config{Shards: 4, BatchSize: 8192, Queries: k})
	defer c.Close()
	stream.ForEachChunk(items, 8192, c.ProcessBatch)
	c.Drain()
	var draws int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n := c.SampleK(k)
		draws += int64(n)
	}
	b.ReportMetric(float64(draws)/float64(b.N), "draws/query")
}

func BenchmarkE20SampleK1(b *testing.B)   { benchSampleK(b, 1) }
func BenchmarkE20SampleK16(b *testing.B)  { benchSampleK(b, 16) }
func BenchmarkE20SampleK256(b *testing.B) { benchSampleK(b, 256) }

// BenchmarkE20Rebuild256 is the baseline SampleK replaces: the only way
// to get 256 independent draws from the old API was 256 coordinators,
// each rebuilt and re-fed the stream (TestClaimSampleKBeatsRebuild
// asserts the ≥10× separation; this bench measures it). One op = one
// independent draw, for direct ns/op comparison against
// BenchmarkE20SampleK256's per-query cost ÷ 256.
func BenchmarkE20Rebuild256(b *testing.B) {
	items := ingestStream()[:1<<15]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := shard.NewL1(0.1, uint64(i)+1, shard.Config{Shards: 4, BatchSize: 8192})
		stream.ForEachChunk(items, 8192, c.ProcessBatch)
		c.Sample()
		c.Close()
	}
}

// --- E21: snapshot codec (DESIGN.md §3) ---------------------------------

// snapSampler builds the E21 reference sampler: a p=2 Lp sampler (the
// richest snapshot payload — pool + heap + tracked table + Misra–Gries
// normalizer) over the shared ingest stream.
func snapSampler() sample.Sampler {
	items := ingestStream()
	s := sample.NewLp(2, 1<<14, int64(len(items))+1, 0.1, 1)
	s.ProcessBatch(items)
	return s
}

// BenchmarkE21Encode measures Snapshot on a fully-ingested Lp sampler;
// the bytes metric is the wire size the checkpoint pays per sampler.
func BenchmarkE21Encode(b *testing.B) {
	s := snapSampler()
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := snap.Snapshot(s)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkE21Decode measures Restore — decode, constructor re-run,
// invariant validation, state install — on the E21 snapshot.
func BenchmarkE21Decode(b *testing.B) {
	data, err := snap.Snapshot(snapSampler())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.Restore(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE21Merge measures the full cross-process composition: merge
// 4 per-shard L1 snapshots (decode ×4 + mixture wiring) and answer one
// merged query.
func BenchmarkE21Merge(b *testing.B) {
	items := ingestStream()
	snaps := make([][]byte, 4)
	for j := range snaps {
		s := sample.NewL1(0.1, uint64(j)+1)
		s.ProcessBatch(items[j*len(items)/4 : (j+1)*len(items)/4])
		data, err := snap.Snapshot(s)
		if err != nil {
			b.Fatal(err)
		}
		snaps[j] = data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := snap.Merge(uint64(i)+1, snaps...)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := m.Sample(); !ok {
			b.Fatal("merged L1 sample failed")
		}
	}
}

// --- E22: network serving layer (DESIGN.md §3) --------------------------

// BenchmarkE22IngestHTTP measures one 2048-item batch per iteration
// through a node's POST /ingest — the E19 in-process path plus HTTP
// framing and JSON. The items/req metric makes the per-update cost
// comparable to BenchmarkE19IngestSingleBatch.
func BenchmarkE22IngestHTTP(b *testing.B) {
	items := ingestStream()
	node := serve.NewNode(
		shard.NewLp(2, 1<<14, int64(len(items))*int64(b.N)+1<<20, 0.2, 1,
			shard.Config{Shards: 2}),
		serve.NodeConfig{})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	cl := serve.NewClient(srv.URL)
	batch := items[:2048]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Ingest(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(2048, "items/req")
}

// BenchmarkE22AggregateMerge measures one full global query: fetch 3
// nodes' snapshots over HTTP, explode each coordinator checkpoint into
// per-shard states, merge, and draw.
func BenchmarkE22AggregateMerge(b *testing.B) {
	items := ingestStream()
	var urls []string
	for j := 0; j < 3; j++ {
		node := serve.NewNode(
			shard.NewL1(0.2, uint64(j)+1, shard.Config{Shards: 2}),
			serve.NodeConfig{})
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
		if _, err := serve.NewClient(srv.URL).Ingest(context.Background(), items[j*len(items)/3:(j+1)*len(items)/3]); err != nil {
			b.Fatal(err)
		}
	}
	agg := serve.NewAggregator(99, urls...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, _, err := agg.Merge(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, got := merged.SampleK(1); got == 0 {
			b.Fatal("merged draw failed")
		}
	}
}

// --- E23: delta snapshots, wire v2 (DESIGN.md §3) -----------------------

// BenchmarkE23DeltaEncode measures SnapshotDelta on a slowly-churning
// pool: the E21 reference sampler (p=2 Lp, the richest state) is
// checkpointed after a 64k-update stream, fed 1k more updates, and
// delta'd against the checkpoint. fullB/deltaB report both wire
// sizes; the ≥5× reduction is asserted, since it is the headline
// economic claim of wire format v2.
func BenchmarkE23DeltaEncode(b *testing.B) {
	items := ingestStream()
	const churn = 1024
	s := sample.NewLp(2, 1<<14, int64(len(items)+churn)+1, 0.1, 1)
	s.ProcessBatch(items)
	base, err := snap.Snapshot(s)
	if err != nil {
		b.Fatal(err)
	}
	s.ProcessBatch(items[:churn])
	var delta []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, err = snap.SnapshotDelta(base, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	full, err := snap.Snapshot(s)
	if err != nil {
		b.Fatal(err)
	}
	if len(delta)*5 > len(full) {
		b.Fatalf("delta %d bytes vs full %d bytes — less than the claimed 5× reduction",
			len(delta), len(full))
	}
	b.ReportMetric(float64(len(full)), "fullB")
	b.ReportMetric(float64(len(delta)), "deltaB")
	b.ReportMetric(float64(len(full))/float64(len(delta)), "ratio")
}

// BenchmarkE23DeltaFetch measures one aggregator re-query against a
// slowly-churning sampler node (which the aggregator fetches through
// /snapshot; coordinator nodes ship acceptance summaries instead)
// through the snapshot cache: per iteration the node ingests a small
// batch and the aggregator merges — revalidating its cache and folding
// the served v2 delta instead of refetching the full snapshot. The
// counters assert the steady state performs zero full-snapshot fetches
// after the cold query; bytes/fetch reports the per-query transfer the
// delta path leaves.
func BenchmarkE23DeltaFetch(b *testing.B) {
	items := ingestStream()
	node := serve.NewSamplerNode(
		sample.NewLp(2, 1<<14, int64(len(items))+int64(b.N)*256+1<<20, 0.2, 1),
		serve.NodeConfig{})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	cl := serve.NewClient(srv.URL)
	if _, err := cl.IngestBinary(context.Background(), items); err != nil {
		b.Fatal(err)
	}
	agg := serve.NewAggregator(123, srv.URL)
	if _, _, err := agg.Merge(context.Background()); err != nil { // cold query: the one full fetch
		b.Fatal(err)
	}
	cold := agg.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.IngestBinary(context.Background(), items[(i*256)%(len(items)-256):(i*256)%(len(items)-256)+256]); err != nil {
			b.Fatal(err)
		}
		if _, _, err := agg.Merge(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c := agg.Counters()
	if c.FullFetches != cold.FullFetches {
		b.Fatalf("steady-state queries refetched full snapshots: %+v", c)
	}
	if c.DeltaFetches != int64(b.N) {
		b.Fatalf("%d queries made %d delta fetches", b.N, c.DeltaFetches)
	}
	b.ReportMetric(float64(c.BytesFetched-cold.BytesFetched)/float64(b.N), "bytes/fetch")
	b.ReportMetric(float64(cold.BytesFetched), "coldB")
}

// --- E24: dormant-kind snapshot codec (DESIGN.md §3) --------------------

// dormantBenchSamplers builds one fully-ingested sampler per formerly
// dormant kind (random-order L2/Lp, matrix rows L1/L2, turnstile F0,
// multipass Lp) over fixed packed streams — the battery the E24 codec
// benches encode and decode.
func dormantBenchSamplers() []struct {
	name string
	s    sample.Sampler
} {
	gen := stream.NewGenerator(rng.New(24))
	plain := gen.Zipf(64, 1<<12, 1.2)
	packedMatrix := gen.Zipf(256, 1<<12, 1.2) // d=16 packed entries
	var packedTurnstile []int64
	for i, it := range gen.Zipf(64, 1<<12, 1.2) {
		packedTurnstile = append(packedTurnstile, it)
		if i%3 == 2 { // delete the item inserted two positions earlier
			packedTurnstile = append(packedTurnstile, -packedTurnstile[len(packedTurnstile)-2]-1)
		}
	}
	battery := []struct {
		name  string
		s     sample.Sampler
		items []int64
	}{
		{"randorderl2", sample.NewRandomOrderL2(1<<13, 64, 1), plain},
		{"randorderlp", sample.NewRandomOrderLp(3, 1<<13, 2), plain},
		{"matrixrowsl1", sample.NewMatrixRowsL1(16, 1<<13, 0.1, 3).Stream(), packedMatrix},
		{"matrixrowsl2", sample.NewMatrixRowsL2(16, 1<<13, 0.1, 4).Stream(), packedMatrix},
		{"turnstilef0", sample.NewTurnstileF0(64, 0.1, 5).Stream(), packedTurnstile},
		{"multipasslp", sample.NewMultipassLp(2, 0.5, 0.1, 6).Stream(64), packedTurnstile[:512]},
	}
	out := make([]struct {
		name string
		s    sample.Sampler
	}, len(battery))
	for i, tc := range battery {
		tc.s.ProcessBatch(tc.items)
		out[i] = struct {
			name string
			s    sample.Sampler
		}{tc.name, tc.s}
	}
	return out
}

// BenchmarkE24DormantEncode measures Snapshot across all six dormant
// kinds per op; bytes is the summed wire size one checkpoint of the
// whole battery pays.
func BenchmarkE24DormantEncode(b *testing.B) {
	battery := dormantBenchSamplers()
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = 0
		for _, tc := range battery {
			data, err := snap.Snapshot(tc.s)
			if err != nil {
				b.Fatalf("%s: %v", tc.name, err)
			}
			size += len(data)
		}
	}
	b.ReportMetric(float64(size), "bytes")
	b.ReportMetric(float64(size)/float64(len(battery)), "bytes/kind")
}

// BenchmarkE24DormantDecode measures Restore — decode, constructor
// re-run, invariant validation, state install — across the same six
// frames.
func BenchmarkE24DormantDecode(b *testing.B) {
	var frames [][]byte
	for _, tc := range dormantBenchSamplers() {
		data, err := snap.Snapshot(tc.s)
		if err != nil {
			b.Fatalf("%s: %v", tc.name, err)
		}
		frames = append(frames, data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range frames {
			if _, err := snap.Restore(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E25: observability overhead (DESIGN.md §7) -------------------------

// benchE25Ingest is the shared body of the instrumented/uninstrumented
// pair: one 2048-item batch per iteration through POST /ingest,
// identical to BenchmarkE22IngestHTTP except for the observability
// toggle — so the ns/op difference between the two IS the cost of the
// metrics layer on the hot path (BENCH_E25.json records it; the
// acceptance bar is <5%).
func benchE25Ingest(b *testing.B, disable bool) {
	items := ingestStream()
	node := serve.NewNode(
		shard.NewLp(2, 1<<14, int64(len(items))*int64(b.N)+1<<20, 0.2, 1,
			shard.Config{Shards: 2}),
		serve.NodeConfig{DisableObservability: disable})
	defer node.Close()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	cl := serve.NewClient(srv.URL)
	batch := items[:2048]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Ingest(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(2048, "items/req")
}

// BenchmarkE25IngestInstrumented is the default configuration: stage
// histograms, counters and the tracing middleware all live.
func BenchmarkE25IngestInstrumented(b *testing.B) { benchE25Ingest(b, false) }

// BenchmarkE25IngestUninstrumented is the control arm:
// NodeConfig.DisableObservability leaves the metric bundle nil, so the
// hot path pays only nil checks.
func BenchmarkE25IngestUninstrumented(b *testing.B) { benchE25Ingest(b, true) }

// --- E26: binary ingest + request coalescing (DESIGN.md §8) -------------

// BenchmarkE26BinaryDecode isolates the binary item-frame codec: one
// 2048-item application/x-tp-items frame decoded per op into a reused
// destination — the steady state the ingest handler's buffer pool
// reaches, so allocs/op is the number the wirebound analyzer polices
// (0 after the first growth).
func BenchmarkE26BinaryDecode(b *testing.B) {
	items := ingestStream()[:2048]
	frame := wire.EncodeItems(items)
	dst := make([]int64, 0, len(items))
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = wire.DecodeItemsFrame(dst[:0], frame)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(dst) != len(items) {
		b.Fatalf("decoded %d items, want %d", len(dst), len(items))
	}
	b.ReportMetric(float64(len(items)), "items/op")
}

// BenchmarkE26JSONDecode is the codec control arm for E26BinaryDecode:
// the same 2048 items as an {"items":[…]} body through the JSON
// unmarshal the default ingest path pays.
func BenchmarkE26JSONDecode(b *testing.B) {
	items := ingestStream()[:2048]
	body, err := json.Marshal(serve.IngestRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req serve.IngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
		if len(req.Items) != len(items) {
			b.Fatalf("decoded %d items, want %d", len(req.Items), len(items))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(items)), "items/op")
}

// benchE26Fanout is the shared body of the E26 ingest arms: per op, 16
// concurrent writers each encode and POST one 128-item request (2048
// items total — the same workload mass as E22/E25, but fragmented the
// way a fleet of small producers fragments it). Requests are driven
// through the node's full handler chain in-process (ServeHTTP against
// a recorder, the way FuzzBinaryIngest drives it) rather than over a
// socket: kernel socket round-trips cost the same per request in every
// arm and — on the single-core boxes CI runs on — serialize into a
// floor that hides the ingest path these arms measure. E22/E25 already
// record the socket-inclusive figures for the same workload mass.
//
// Both arms go through the node's one ingest path, the group-commit
// batcher, which gathers writers that arrive during a flush into the
// next one. The JSON arm marshals each request client-side and has the
// node JSON-decode it; the binary arm speaks the item frame, decoded
// straight into the flush group's batch. BENCH_E26.json records the
// throughput ratio between the two arms as measured.
func benchE26Fanout(b *testing.B, binary bool) {
	items := ingestStream()[:2048]
	const writers = 16
	per := len(items) / writers
	node := serve.NewNode(
		shard.NewLp(2, 1<<14, int64(len(items))*int64(b.N)+1<<20, 0.2, 1,
			shard.Config{Shards: 2}),
		serve.NodeConfig{})
	defer node.Close()
	h := node.Handler()
	fail := make(chan int, writers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(part []int64) {
				defer wg.Done()
				var body []byte
				ct := serve.ContentTypeBinary
				if binary {
					body = wire.EncodeItems(part)
				} else {
					ct = serve.ContentTypeJSON
					body, _ = json.Marshal(serve.IngestRequest{Items: part})
				}
				req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
				req.Header.Set("Content-Type", ct)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					select {
					case fail <- rec.Code:
					default:
					}
				}
			}(items[w*per : (w+1)*per])
		}
		wg.Wait()
		select {
		case code := <-fail:
			b.Fatalf("ingest answered HTTP %d", code)
		default:
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(items)), "items/op")
	b.ReportMetric(writers, "reqs/op")
}

// BenchmarkE26IngestJSONPerRequest is the JSON arm: each small
// request is JSON-marshalled and JSON-decoded.
func BenchmarkE26IngestJSONPerRequest(b *testing.B) {
	benchE26Fanout(b, false)
}

// BenchmarkE26CoalescedIngest is the binary arm: each small request
// is one item frame.
func BenchmarkE26CoalescedIngest(b *testing.B) {
	benchE26Fanout(b, true)
}

// --- E27: query fast path (DESIGN.md §9) --------------------------------

// e27States explodes a fully-ingested 2-node fleet (two 2-shard L2
// coordinators on item-disjoint halves) into the per-shard sampler
// states an aggregator's snapshot cache holds — the input every global
// query used to re-merge from scratch, and the input the merge-plan
// cache now fingerprints.
func e27States(b *testing.B) []sample.State {
	b.Helper()
	items := ingestStream()
	var states []sample.State
	for j := 0; j < 2; j++ {
		var part []int64
		for _, it := range items {
			if int(it)%2 == j {
				part = append(part, it)
			}
		}
		c := shard.NewLp(2, 1<<14, int64(len(items))+1, 0.2, uint64(j)+1,
			shard.Config{Shards: 2, Queries: 16})
		c.ProcessBatch(part)
		data, err := c.Snapshot()
		c.Close()
		if err != nil {
			b.Fatal(err)
		}
		sts, err := shard.SamplerStates(data)
		if err != nil {
			b.Fatal(err)
		}
		states = append(states, sts...)
	}
	return states
}

// BenchmarkE27QueryColdMerge is the pre-plan-cache aggregator query:
// every op rebuilds the merge plan from the cached states (decode,
// constructor re-run, validation for each of the 4 per-shard pools)
// and then draws its k=16 answer — the work a query paid on every
// request before the fingerprint cache, with the node fetches already
// out of the picture (E23 measures those).
func BenchmarkE27QueryColdMerge(b *testing.B) {
	states := e27States(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := snap.BuildMergePlan(states...)
		if err != nil {
			b.Fatal(err)
		}
		if _, n := plan.SampleK(uint64(i)+1, 16); n == 0 {
			b.Fatal("every draw failed")
		}
	}
}

// BenchmarkE27QueryCachedPlan is the fast path: the plan is built (and
// its group tables materialized) once, and every op only pays the
// seeded mixture draw — what an aggregator query costs while no node's
// state name moves. The ratio against E27QueryColdMerge is the
// headline BENCH_E27.json records (acceptance: >= 5x).
func BenchmarkE27QueryCachedPlan(b *testing.B) {
	states := e27States(b)
	plan, err := snap.BuildMergePlan(states...)
	if err != nil {
		b.Fatal(err)
	}
	if _, n := plan.SampleK(1, 16); n == 0 { // materialize the group tables
		b.Fatal("every draw failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := plan.SampleK(uint64(i)+2, 16); n == 0 {
			b.Fatal("every draw failed")
		}
	}
}

// benchE27NodeSample is the shared body of the node-side pair: k=16
// merged draws per op against a fully-ingested 4-shard coordinator.
// The invalidate arm routes one update before each query, so every
// query pays the full drain-and-materialize a query always paid before
// snapshot sharing; the shared arm queries an unchanged coordinator
// and reuses the cached snapshot.
func benchE27NodeSample(b *testing.B, invalidate bool) {
	b.Helper()
	items := ingestStream()
	c := shard.NewL1(0.1, 7, shard.Config{Shards: 4, Queries: 16})
	defer c.Close()
	c.ProcessBatch(items)
	c.SampleK(16) // warm: the shared arm answers from this snapshot
	var builds, shares int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if invalidate {
			c.Process(items[i%len(items)])
		}
		_, n, _, shared := c.SampleKLenShared(16)
		if n != 16 {
			b.Fatalf("short answer: %d/16", n)
		}
		if shared {
			shares++
		} else {
			builds++
		}
	}
	b.StopTimer()
	if invalidate && shares != 0 {
		b.Fatalf("per-request arm shared %d snapshots", shares)
	}
	if !invalidate && builds != 0 {
		b.Fatalf("shared arm built %d snapshots past the warm-up", builds)
	}
}

// BenchmarkE27NodeSampleShared is the fast path: repeated queries on
// an unchanged coordinator share one drained snapshot.
func BenchmarkE27NodeSampleShared(b *testing.B) { benchE27NodeSample(b, false) }

// BenchmarkE27NodeSamplePerRequest is the control arm: a routed update
// per op invalidates the snapshot, so every query drains the workers
// and re-materializes its group tables.
func BenchmarkE27NodeSamplePerRequest(b *testing.B) { benchE27NodeSample(b, true) }

// --- ablations (DESIGN.md §4) -------------------------------------------

// BenchmarkAblationOffsetsShared measures the per-update cost of the
// shared offset table at two pool sizes: flat cost = O(1) per update.
func BenchmarkAblationOffsetsSharedR64(b *testing.B) {
	s := core.NewGSampler(measure.Lp{P: 1}, 64, 1, func() float64 { return 1 })
	for i := 0; i < b.N; i++ {
		s.Process(int64(i & 255))
	}
}

func BenchmarkAblationOffsetsSharedR8192(b *testing.B) {
	s := core.NewGSampler(measure.Lp{P: 1}, 8192, 1, func() float64 { return 1 })
	for i := 0; i < b.N; i++ {
		s.Process(int64(i & 255))
	}
}

// BenchmarkAblationNaivePool is the strawman: R independent
// CountingSamplers each touched on every update — O(R) per update.
func BenchmarkAblationNaivePoolR64(b *testing.B) {
	benchNaivePool(b, 64)
}

func BenchmarkAblationNaivePoolR1024(b *testing.B) {
	benchNaivePool(b, 1024)
}

func benchNaivePool(b *testing.B, r int) {
	b.Helper()
	src := rng.New(1)
	pool := make([]*naiveInstance, r)
	for i := range pool {
		pool[i] = &naiveInstance{src: src}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := int64(i & 255)
		for _, inst := range pool {
			inst.process(it)
		}
	}
}

// naiveInstance is Algorithm 1 without skip-sampling or shared counting.
type naiveInstance struct {
	src   *rng.PCG
	item  int64
	after int64
	t     int64
}

func (n *naiveInstance) process(item int64) {
	n.t++
	if n.src.Intn(int(n.t)) == 0 {
		n.item, n.after = item, 0
		return
	}
	if item == n.item {
		n.after++
	}
}

// BenchmarkAblationNormalizer compares acceptance rates with the
// Misra–Gries Z against an exact ‖f‖∞ oracle: the deterministic sketch
// costs only a constant-factor acceptance loss.
func BenchmarkAblationNormalizer(b *testing.B) {
	gen := stream.NewGenerator(rng.New(42))
	items := gen.Zipf(1<<10, 1<<14, 1.3)
	freq := stream.Frequencies(items)
	var trueMax int64
	for _, f := range freq {
		if f > trueMax {
			trueMax = f
		}
	}
	var accMG, accOracle, inst int
	for i := 0; i < b.N; i++ {
		mg := core.NewLpSampler(2, 1<<10, 1<<14, 0.3, uint64(i)+1)
		inst = mg.Instances()
		oracle := core.NewGSampler(measure.Lp{P: 2}, inst, uint64(i)+7,
			func() float64 { return 2 * math.Pow(float64(trueMax), 1) })
		for _, it := range items {
			mg.Process(it)
			oracle.Process(it)
		}
		accMG += len(mg.SampleAll())
		accOracle += len(oracle.SampleAll())
	}
	b.ReportMetric(float64(accMG)/float64(b.N*inst), "accept-mg")
	b.ReportMetric(float64(accOracle)/float64(b.N*inst), "accept-oracle")
}

// BenchmarkAblationCheckpoints contrasts the W-spaced checkpoint rule
// (suffix ≤ 2W, activity ≥ 1/2) with 2W spacing (suffix ≤ 3W, activity
// ≥ 1/3): fewer pools, lower per-query success.
func BenchmarkAblationCheckpoints(b *testing.B) {
	gen := stream.NewGenerator(rng.New(43))
	const w = 256
	items := gen.Zipf(32, 4*w, 1.2)
	var okW, okTwoW int
	for i := 0; i < b.N; i++ {
		sw := window.NewGSampler(measure.Lp{P: 1}, w, 4, uint64(i)+1)
		sw2 := window.NewGSampler(measure.Lp{P: 1}, 2*w, 4, uint64(i)+9)
		for _, it := range items {
			sw.Process(it)
			sw2.Process(it)
		}
		if out, ok := sw.Sample(); ok && !out.Bottom {
			okW++
		}
		// The 2W-spaced sampler answers W-window queries by filtering to
		// the last W positions of its (up to 3W long) suffix.
		if out, ok := sw2.Sample(); ok && !out.Bottom &&
			out.Position > int64(len(items))-w {
			okTwoW++
		}
	}
	b.ReportMetric(float64(okW)/float64(b.N), "success-W-spacing")
	b.ReportMetric(float64(okTwoW)/float64(b.N), "success-2W-spacing")
}
