package repro

// Headline claims for global queries from node acceptance summaries
// (DESIGN.md §9): an aggregator that mixes the nodes' summaries under
// one ζ = max_j ζ_j, thinning node j's acceptances with
// Bernoulli(ζ_j/ζ) coins, answers with exactly the law one sampler
// would have on the union stream — marginally per draw, with the k
// draws of one query mutually independent, and with nodes that serve
// only snapshots mixed in.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/sample"
	"repro/sample/serve"
	"repro/sample/shard"
	"repro/sample/snap"
)

// summaryLaw collects one fleet size's answers: every drawn item, the
// ordered pairs of consecutive draws within one answer, and how many
// draws were asked.
type summaryLaw struct {
	items, pairs stats.Histogram
	asked        int64
}

func (l *summaryLaw) add(outs []serve.OutcomeJSON, n int64, k int) {
	l.asked += int64(k)
	for i, o := range outs {
		if o.Bottom {
			continue
		}
		l.items.Add(o.Item)
		if i%2 == 1 && !outs[i-1].Bottom {
			l.pairs.Add(outs[i-1].Item*n + o.Item)
		}
	}
}

// check runs the chi-square tests against the exact law: the draws'
// marginal, and the pairs' product law (independence across groups).
// Thresholds are TestClaimQueryPlanLaw's: p < 1e-3 fails, and at least
// 80% of the asked draws must succeed.
func (l *summaryLaw) check(t *testing.T, name string, target stats.Distribution, n int64) {
	t.Helper()
	product := stats.Distribution{}
	for a, pa := range target {
		for b, pb := range target {
			product[a*n+b] = pa * pb
		}
	}
	for _, h := range []struct {
		what string
		h    stats.Histogram
		d    stats.Distribution
	}{{"marginal", l.items, target}, {"pairs", l.pairs, product}} {
		chi, dof, p := stats.ChiSquare(h.h, h.d, 5)
		t.Logf("%s %s: N=%d chi2=%.2f dof=%d p=%.4f", name, h.what, h.h.Total(), chi, dof, p)
		if p < 1e-3 {
			t.Errorf("%s %s law deviates from the exact distribution: chi2=%.2f dof=%d p=%.5f",
				name, h.what, chi, dof, p)
		}
	}
	if l.items.Total() < l.asked*8/10 {
		t.Errorf("%s queries failed too often: %d/%d", name, l.items.Total(), l.asked)
	}
}

// snapshotOnlyNode serves fixed snapshot bytes on /snapshot and
// nothing else — a peer that does not summarize.
func snapshotOnlyNode(t *testing.T, data []byte) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// Claim (summary law): 3-node fleets whose nodes partition the items
// with skew — node 0 holds the heavy hitters — answer k = 256 draws per
// query with the exact law, marginally and pairwise. For L1 every ζ_j
// is 1 and no thinning coin is drawn; for Lp with p = 2 the light
// nodes' Misra–Gries bounds give ζ_j < ζ, so their acceptances are
// thinned, and the test asserts that they were (a light node reported
// ζ_j < ζ and accepted trials in the groups the query read). A third
// arm mixes two coordinator nodes with a node that serves only a bare
// sampler's snapshot, which the aggregator summarizes itself.
func TestClaimSummaryLaw(t *testing.T) {
	const (
		n      = int64(32)
		m      = 2400
		delta  = 0.2
		k      = 256
		fleets = 12
	)
	gen := stream.NewGenerator(rng.New(97))
	items := gen.Zipf(n, m, 1.3)
	freq := stream.Frequencies(items)
	owner := func(it int64) int {
		if it < 3 {
			return 0 // the heavy hitters
		}
		return 1 + int(it)%2
	}
	var parts [3][]int64
	for _, it := range items {
		parts[owner(it)] = append(parts[owner(it)], it)
	}
	ctx := context.Background()
	for _, arm := range []struct {
		name  string
		g     func(f int64) float64
		coord func(seed uint64) *shard.Coordinator
		bare  func(seed uint64) sample.Sampler // node 2, when set
		thin  bool
	}{
		{name: "l1", g: func(f int64) float64 { return float64(f) },
			coord: func(seed uint64) *shard.Coordinator {
				return shard.NewL1(delta, seed, shard.Config{Shards: 2, Queries: k})
			}},
		{name: "lp2", g: func(f int64) float64 { return float64(f * f) }, thin: true,
			coord: func(seed uint64) *shard.Coordinator {
				return shard.NewLp(2, n, m, delta, seed, shard.Config{Shards: 2, Queries: k})
			}},
		{name: "l1-mixed", g: func(f int64) float64 { return float64(f) },
			coord: func(seed uint64) *shard.Coordinator {
				return shard.NewL1(delta, seed, shard.Config{Shards: 2, Queries: k})
			},
			bare: func(seed uint64) sample.Sampler { return sample.NewL1(delta, seed, sample.Queries(k)) }},
	} {
		law := &summaryLaw{items: stats.Histogram{}, pairs: stats.Histogram{}}
		thinned := 0
		for fleet := 0; fleet < fleets; fleet++ {
			base := uint64(fleet)*16 + 3
			var urls []string
			for j := 0; j < 3; j++ {
				if j == 2 && arm.bare != nil {
					s := arm.bare(base + uint64(j))
					s.ProcessBatch(parts[j])
					data, err := snap.Snapshot(s)
					if err != nil {
						t.Fatal(err)
					}
					urls = append(urls, snapshotOnlyNode(t, data))
					continue
				}
				node := serve.NewNode(arm.coord(base+uint64(j)), serve.NodeConfig{})
				srv := httptest.NewServer(node.Handler())
				defer srv.Close()
				defer node.Close()
				node.Coordinator().ProcessBatch(parts[j])
				urls = append(urls, srv.URL)
			}
			agg := serve.NewAggregator(base+11, urls...)
			aggSrv := httptest.NewServer(agg.Handler())
			resp, err := serve.NewClient(aggSrv.URL).SampleK(ctx, k)
			aggSrv.Close()
			if err != nil {
				t.Fatalf("%s fleet %d: %v", arm.name, fleet, err)
			}
			coords, pools, snapshots := urls, 6, int64(0)
			if arm.bare != nil {
				coords, pools, snapshots = urls[:2], 5, 1
			}
			if resp.Pools != pools {
				t.Fatalf("%s fleet %d: %d pools, want %d", arm.name, fleet, resp.Pools, pools)
			}
			law.add(resp.Outcomes, n, k)
			if c := agg.Counters(); c.SummaryFetches != int64(len(coords)) || c.FullFetches != snapshots {
				t.Fatalf("%s fleet %d: counters %+v, want %d summaries and %d snapshots",
					arm.name, fleet, c, len(coords), snapshots)
			}

			// The summaries the aggregator mixed, as the nodes serve them.
			var sums []*snap.Summary
			zeta := 0.0
			for _, u := range coords {
				res, err := serve.NewClient(u).Summary(ctx, k, "")
				if err != nil {
					t.Fatal(err)
				}
				sum, err := snap.DecodeSummary(res.Data)
				if err != nil {
					t.Fatal(err)
				}
				sums = append(sums, sum)
				zeta = max(zeta, sum.Zeta)
			}
			for _, sum := range sums {
				if sum.Zeta == zeta {
					continue
				}
				for _, group := range sum.Groups {
					for _, accs := range group {
						thinned += len(accs)
					}
				}
			}
		}
		target := stats.GDistribution(freq, arm.g)
		law.check(t, arm.name, target, n)
		if arm.thin && thinned == 0 {
			t.Errorf("%s: no node had ζ_j < ζ with acceptances to thin", arm.name)
		}
		if !arm.thin && thinned != 0 {
			t.Errorf("%s: %d acceptances under ζ_j < ζ, want none", arm.name, thinned)
		}
		t.Logf("%s: %d acceptances thinned", arm.name, thinned)
	}
}
