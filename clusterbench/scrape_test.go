package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrapeOf renders a real internal/obs registry the way GET /metrics
// serves it and parses it back.
func scrapeOf(t *testing.T, reg *obs.Registry) exposition {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(b.String())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	return e
}

func TestMetricDeltaAgainstObsRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reqs := reg.Counter("tp_ingest_requests_total", "requests")
	full := reg.Counter("tp_checkpoints_total", "by kind", obs.Label{Key: "kind", Value: "full"})
	delta := reg.Counter("tp_checkpoints_total", "by kind", obs.Label{Key: "kind", Value: "delta"})
	read := reg.Histogram("tp_ingest_read_seconds", "read", nil)
	// A label value with every character the exposition escapes.
	url := `http://127.0.0.1:8081/a"b\c`
	fetch := reg.Histogram("tp_agg_fetch_seconds", "fetch", nil, obs.Label{Key: "node", Value: url})
	put := reg.Histogram("tp_store_op_seconds", "store", nil, obs.Label{Key: "op", Value: "put"})

	reqs.Add(3)
	full.Inc()
	read.Observe(0.5)
	before := scrapeOf(t, reg)

	reqs.Add(4)
	delta.Add(2)
	read.Observe(0.001)
	read.Observe(0.003)
	fetch.Observe(0.010)
	fetch.Observe(0.030)
	put.Observe(0.2)
	after := scrapeOf(t, reg)

	d := metricDelta{before: before, after: after}
	if got := d.get("tp_ingest_requests_total"); got != 4 {
		t.Errorf("counter delta = %v, want 4", got)
	}
	if got := d.get(series("tp_checkpoints_total", "kind", "delta")); got != 2 {
		t.Errorf("labelled counter delta = %v, want 2", got)
	}
	if got := d.get(series("tp_checkpoints_total", "kind", "full")); got != 0 {
		t.Errorf("unchanged labelled counter delta = %v, want 0", got)
	}
	if c, s := d.hist("tp_ingest_read_seconds", ""); c != 2 || math.Abs(s-0.004) > 1e-12 {
		t.Errorf("histogram delta count=%v sum=%v, want 2 and 0.004", c, s)
	}
	if got := d.histMean("tp_ingest_read_seconds", "", 1e6); math.Abs(got-2000) > 1e-6 {
		t.Errorf("histogram mean = %vµs, want 2000", got)
	}
	// A series first registered between the scrapes counts from zero.
	if got := d.histMean("tp_agg_fetch_seconds", series("", "node", url), 1e3); math.Abs(got-20) > 1e-9 {
		t.Errorf("labelled histogram mean = %vms, want 20", got)
	}
	if got := d.histMean("tp_store_op_seconds", `{op="put"}`, 1e3); math.Abs(got-200) > 1e-9 {
		t.Errorf("store put mean = %vms, want 200", got)
	}
	if got := d.histMean("tp_absent_seconds", "", 1e3); got != 0 {
		t.Errorf("absent histogram mean = %v, want 0", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, text := range []string{"tp_x", "tp_x notanumber"} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("parseExposition(%q) succeeded", text)
		}
	}
}
