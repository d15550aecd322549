// Command clusterbench is the repository's benchmark: it launches the
// shipped tpserve binary as a node/aggregator fleet on loopback ports,
// drives it from this one generator process with an open loop (latency
// timed from each request's intended send time), then a closed-loop
// saturation phase, checks every answer against the acknowledged
// stream, and prints the end-to-end metrics. With -trace 1 it instead
// attributes time to layers from outside the program: client spans per
// request, /metrics deltas from every fleet process, and an in-process
// replay of the run's exact request bodies through each module's public
// functions. See README.md.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Any correctness
// violation or a generator running late exits 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many times an untraced run launches and fills a fleet,
// timed; setup_s is their median. The host's speed drifts over seconds,
// so half of them run before the load (the last of those fleets is
// measured) and half after it. One untimed setup comes first: it pages
// in the binary and takes the first fleet's extra costs.
const setups = 21

// maxLateness bounds how late the generator may run: a run whose p99 of
// actual minus intended send time exceeds it is rejected, because the
// offered rate was past capacity.
const maxLateness = 100 * time.Millisecond

type options struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	tpserve  string
	workdir  string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest | query-steady | mixed-churn")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer attribution")
		tpserve = flag.String("tpserve", "", "path to a built tpserve binary")
		workdir = flag.String("workdir", "", "scratch directory for fleet logs, stores and spans")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*tpserve == "" || *workdir == "") {
		err = errors.New("-tpserve and -workdir are required (run.sh sets them)")
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A hung fleet must fail the run, not stall it: the load stops at the
	// deadline and the run exits 1.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(*seconds)*time.Second+2*time.Minute)
	res, err := run(ctx, options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tpserve: *tpserve, workdir: *workdir})
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state.
type bench struct {
	opt    options
	w      *workload
	in     inputs
	t      timing
	m      int64
	fleet  *fleet
	setups int // fleets launched so far
	led    *ledger
	checks []*record    // every answered request, for the oracle
	admin  *http.Client // scrapes, stats and readiness, outside the timed path
	out    *bufio.Writer
}

func run(ctx context.Context, opt options) (*result, error) {
	w := opt.workload
	b := &bench{opt: opt, w: w, t: phases(opt), admin: &http.Client{Timeout: 30 * time.Second}, out: bufio.NewWriter(os.Stdout)}
	defer b.out.Flush()
	b.in = generate(w, opt.seed, b.t.openEnd(), b.t.closed)
	b.m = streamBound(w, b.in)
	b.hostReport()

	busy0, steal0 := cpuTicks()
	defer func() {
		// Steal is CPU time the hypervisor gave to other guests: on a
		// shared host it is the first suspect when two runs disagree.
		busy1, steal1 := cpuTicks()
		b.printf("host cpu during run: busy %.1fs, steal %.1fs\n", float64(busy1-busy0)/100, float64(steal1-steal0)/100)
	}()
	defer func() {
		if b.fleet != nil {
			b.fleet.stop()
		}
	}()
	_, err := b.setup(ctx, 1)
	var setupTimes []float64
	if err == nil {
		setupTimes, err = b.setup(ctx, setups-setups/2)
	}
	if err != nil {
		return nil, err
	}
	if opt.trace {
		return b.traced(ctx, setupTimes)
	}
	return b.untraced(ctx, setupTimes)
}

// warmup is the unmeasured start of every open loop: the first
// checkpoints into a fresh store and the processes' heap growth happen
// here, not in the figures.
const warmup = 2 * time.Second

// timing is how a run spends its time, as offsets from the load's start:
// warm-up, the measured open loop, then the closed loop.
type timing struct{ warm, open, closed time.Duration }

func (t timing) openEnd() time.Duration { return t.warm + t.open }
func (t timing) end() time.Duration     { return t.openEnd() + t.closed }

// phases splits a run's measured seconds: untraced runs spend 60% in the
// open loop and 40% in the closed loop; traced runs send the open-loop
// schedule twice, untraced then traced, half the time each.
func phases(opt options) timing {
	total := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		return timing{warm: warmup, open: total / 2}
	}
	return timing{warm: warmup, open: total * 6 / 10, closed: total * 4 / 10}
}

// streamBound is each node's -m: an upper bound on what the run can
// send it (closed-loop ingest is capped by the engines' speed).
func streamBound(w *workload, in inputs) int64 {
	m := int64(w.preloadItems)
	for _, p := range in.plans {
		for _, o := range p.open {
			m += int64(len(o.items))
		}
	}
	return 2*m + 1<<26
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// hostReport records what a run needs to be reproduced.
func (b *bench) hostReport() {
	b.printf("clusterbench workload=%s seed=%d seconds=%d trace=%v requests=%s\n",
		b.w.name, b.opt.seed, b.opt.seconds, b.opt.trace, b.in.hash())
	b.printf("host goos=%s goarch=%s cpu=%q nproc=%d go=%s gomaxprocs=%d\n",
		runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.Version(), runtime.GOMAXPROCS(0))
}

// cpuTicks reads the host-wide busy and steal CPU time from /proc/stat,
// in clock ticks (USER_HZ, 100 per second on Linux); zeros if absent.
func cpuTicks() (busy, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// newSender returns a sender on its own connection to the current fleet.
func (b *bench) newSender(start time.Time, trace bool) *sender {
	s := &sender{client: newConnClient(), start: start, trace: trace, ledger: b.led}
	for _, p := range b.fleet.nodes {
		s.nodes = append(s.nodes, p.base)
	}
	if b.fleet.agg != nil {
		s.agg = b.fleet.agg.base
	}
	return s
}

// newSenders returns one sender per plan, all timed from one start.
func (b *bench) newSenders(trace bool) []*sender {
	start := time.Now()
	ss := make([]*sender, len(b.in.plans))
	for i := range ss {
		ss[i] = b.newSender(start, trace)
	}
	return ss
}

// setup launches, preloads and warms a fleet n times, each replacing the
// last; it returns each setup's duration: fleet launch until every
// /readyz is 200, the preload is acknowledged and one cold query is
// answered.
func (b *bench) setup(ctx context.Context, n int) ([]float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		b.setups++
		if b.fleet != nil {
			b.fleet.stop()
			b.fleet = nil
		}
		b.led = newLedger(b.w.nodes)
		b.checks = nil
		dir := filepath.Join(b.opt.workdir, fmt.Sprintf("fleet%d", b.setups))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		f, err := launch(ctx, fleetConfig{bin: b.opt.tpserve, dir: dir, nodes: b.w.nodes, agg: b.w.agg,
			ckpt: b.w.ckpt, streamM: b.m, seed: b.opt.seed})
		if err != nil {
			return nil, err
		}
		b.fleet = f
		if err := b.preload(ctx); err != nil {
			return nil, err
		}
		// One cold query fills the caches before timing: the
		// aggregator's when there is one, else each node's.
		if err := b.queryAll(ctx, b.fleet.agg != nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// preload sends every node's preload batches over one connection.
func (b *bench) preload(ctx context.Context) error {
	s := b.newSender(time.Now(), false)
	var recs []record
	for _, ops := range b.in.preload {
		for i := range ops {
			recs = append(recs, s.do(ctx, &ops[i], 0, false))
		}
	}
	if err := b.keep(recs); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// queryAll sends one k=16 query to the aggregator (agg) or to every node,
// sequentially, and keeps the answers for the oracle.
func (b *bench) queryAll(ctx context.Context, agg bool) error {
	s := b.newSender(time.Now(), false)
	var recs []record
	if agg {
		recs = append(recs, s.do(ctx, &op{kind: opAggSample}, 0, false))
	} else {
		for j := range b.fleet.nodes {
			recs = append(recs, s.do(ctx, &op{kind: opNodeSample, node: j}, 0, false))
		}
	}
	return b.keep(recs)
}

// keep queues answered requests for the oracle; a failed one is an error.
func (b *bench) keep(recs []record) error {
	for i := range recs {
		r := &recs[i]
		if r.failed() {
			return fmt.Errorf("%s request failed: status %d, %v, %.200s", r.op.kind.class(), r.status, r.err, r.body)
		}
		b.checks = append(b.checks, r)
	}
	return nil
}

// finish runs the post-run checks — every node's /stats streamLen
// equals what it acknowledged, and one more query per surface — then
// the oracle over every answer of the run.
func (b *bench) finish(ctx context.Context, runs ...[][]record) error {
	for _, rs := range runs {
		for _, recs := range rs {
			for i := range recs {
				if !recs[i].failed() {
					b.checks = append(b.checks, &recs[i])
				}
			}
		}
	}
	if err := b.queryAll(ctx, false); err != nil {
		return err
	}
	if b.fleet.agg != nil {
		if err := b.queryAll(ctx, true); err != nil {
			return err
		}
	}
	o := newOracle(b.led)
	for j, p := range b.fleet.nodes {
		var st struct {
			StreamLen int64 `json:"streamLen"`
		}
		if err := b.getJSON(ctx, p.base+"/stats", &st); err != nil {
			return err
		}
		if want := o.ackedMass(j); st.StreamLen != want {
			o.fail("node%d /stats streamLen %d, acknowledged %d", j, st.StreamLen, want)
		}
	}
	for _, r := range b.checks {
		o.check(r)
	}
	return o.finish()
}

func (b *bench) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := b.admin.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// measured splits a run's records by op class: open-loop latencies
// (ops due before openEnd, in intended-send order) and closed-loop
// completions.
type measured struct {
	open      map[string][]time.Duration
	closed    map[string][]*record
	lateness  []time.Duration
	attempted int
	failed    int
	closedEnd time.Duration
}

func measure(runs [][]record, t timing) measured {
	m := measured{open: map[string][]time.Duration{}, closed: map[string][]*record{}}
	all := sortedBy(runs, func(r *record) time.Duration { return r.intended })
	for _, r := range all {
		m.attempted++
		if r.failed() {
			m.failed++
			continue
		}
		c := r.op.kind.class()
		switch {
		case r.closed:
			m.closed[c] = append(m.closed[c], r)
			m.closedEnd = max(m.closedEnd, r.done)
		case r.intended >= t.warm && r.intended < t.openEnd():
			m.open[c] = append(m.open[c], r.latency())
			m.lateness = append(m.lateness, r.lateness())
		}
	}
	return m
}

// checkLateness rejects a run whose generator fell behind its schedule.
func (b *bench) checkLateness(m measured) error {
	late := newDist(m.lateness)
	b.printf("generator lateness (actual - intended send): %s\n", late)
	if p := late.q(0.99); p > float64(maxLateness)/float64(time.Millisecond) {
		return fmt.Errorf("generator ran late: lateness p99 %.3fms exceeds %v; the offered rate is past capacity", p, maxLateness)
	}
	return nil
}

// untraced is the end-to-end run: open loop, then closed loop.
func (b *bench) untraced(ctx context.Context, setupTimes []float64) (*result, error) {
	runs := drive(ctx, b.newSenders(false), b.in.plans, b.t.openEnd(), b.t.end())
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	rss, err := b.fleet.peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := measure(runs, b.t)
	res := &result{Attempted: m.attempted, Failed: m.failed}
	oerr := b.finish(ctx, runs)
	res.Correct = oerr == nil
	more, err := b.setup(ctx, setups/2)
	if err != nil {
		return nil, err
	}
	setupTimes = append(setupTimes, more...)

	b.printf("%-22s %s\n", "setup_s", fmtSamples(setupTimes, "s"))
	var headline dist
	for _, c := range []string{classIngest, classQuery, classNodeQuery} {
		if len(m.open[c]) == 0 {
			continue
		}
		d := newDist(m.open[c])
		if c == b.w.headline {
			headline = d
		}
		b.printf("%-22s %.4f ms (n=%d)\n", c+"_p50_ms", d.q(0.5), d.n())
		for _, q := range tailQuantiles {
			if d.ok(q) {
				b.printf("%-22s %.4f ms (n=%d, %d beyond)\n", c+"_p"+pctLabel(q)+"_ms", d.q(q), d.n(), beyond(d.n(), q))
			}
		}
	}
	capacity, unit := b.capacity(m)
	b.printf("%-22s %.1f %s (closed loop, %d requests)\n", capacityName(b.w), capacity, unit, len(m.closed[b.w.headline]))
	b.printf("%-22s %.6f (%d of %d)\n", "failed_ratio", float64(m.failed)/float64(max(1, m.attempted)), m.failed, m.attempted)
	b.printf("%-22s %.2f MB (%d processes)\n", "fleet_rss_mb", rss, len(b.fleet.all))

	errs := []error{oerr}
	if err := b.checkLateness(m); err != nil {
		errs = append(errs, err)
	}
	if !headline.ok(tailQ) {
		errs = append(errs, fmt.Errorf("%s: %d samples leave fewer than %d beyond p95", b.w.headline, headline.n(), minBeyond))
	}
	// One-second windows at most: on ingest each then holds one
	// checkpoint per node.
	lat, maxWin := m.open[b.w.headline], int(b.t.open/time.Second)
	p50w, tailw := windowQuantiles(lat, 0.5, maxWin), windowQuantiles(lat, tailQ, maxWin)
	b.printf("%-22s %.4f ms (median over windows of the %s p50): %.3f\n", "p50_ms", median(p50w), b.w.headline, p50w)
	b.printf("%-22s %.4f ms (median over windows of the %s p95, n=%d; printed, not gated): %.3f\n", "p95_ms", median(tailw), b.w.headline, headline.n(), tailw)
	res.Metrics = map[string]metric{
		"setup_s":        {median(setupTimes), "s"},
		"p50_ms":         {median(p50w), "ms"},
		"capacity_per_s": {capacity, "1/s"},
		"fleet_rss_mb":   {rss, "MB"},
	}
	return res, errors.Join(errs...)
}

// capacity is the closed-loop throughput of the headline op: items/s
// acknowledged for ingest, answered queries/s otherwise; the median over
// one-second windows.
func (b *bench) capacity(m measured) (float64, string) {
	recs := m.closed[b.w.headline]
	times, weights := make([]time.Duration, len(recs)), make([]float64, len(recs))
	unit := "queries/s"
	for i, r := range recs {
		times[i], weights[i] = r.done, 1
		if b.w.headline == classIngest {
			weights[i], unit = float64(len(r.op.items)), "items/s"
		}
	}
	return windowedRate(times, weights, b.t.openEnd(), m.closedEnd, max(1, int(b.t.closed/time.Second))), unit
}

func capacityName(w *workload) string {
	if w.headline == classIngest {
		return "ingest_items_per_s"
	}
	return "queries_per_s"
}

func fmtSamples(xs []float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return fmt.Sprintf("%.4f %s (median of %d: %s)", median(xs), unit, len(xs), strings.Join(parts, " "))
}

// sortedBy flattens every sender's records, ordered by key.
func sortedBy(runs [][]record, key func(*record) time.Duration) []*record {
	var all []*record
	for _, recs := range runs {
		for i := range recs {
			all = append(all, &recs[i])
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return key(all[i]) < key(all[j]) })
	return all
}
