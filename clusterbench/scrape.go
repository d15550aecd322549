package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// exposition is one parsed Prometheus text scrape: each series, keyed by
// its name plus rendered label set exactly as the exposition prints it
// (e.g. `tp_store_op_seconds_sum{op="put"}`), maps to its value.
type exposition map[string]float64

// parseExposition reads the text format internal/obs writes: comment
// lines, then one `series value` line per sample.
func parseExposition(text string) (exposition, error) {
	e := exposition{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		e[line[:i]] = v
	}
	return e, nil
}

// series renders a series key the way the exposition does: labels
// sorted by key, values quoted and escaped. kv alternates keys and values.
func series(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k + `="` + labelEscaper.Replace(p.v) + `"`)
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// metricDelta is the change of every series between two scrapes of one
// process.
type metricDelta struct{ before, after exposition }

// get returns the change of one series (a series absent from a scrape
// counts as zero there).
func (d metricDelta) get(key string) float64 { return d.after[key] - d.before[key] }

// hist returns the change of a histogram's observation count and sum.
// labels is the rendered label set ("" or `{op="put"}`).
func (d metricDelta) hist(name, labels string) (count, sum float64) {
	return d.get(name + "_count" + labels), d.get(name + "_sum" + labels)
}

// histMean returns a histogram's mean observation over the interval,
// scaled by unit (1e3 for milliseconds), or 0 with no observations.
func (d metricDelta) histMean(name, labels string, unit float64) float64 {
	c, s := d.hist(name, labels)
	if c == 0 {
		return 0
	}
	return s / c * unit
}

func scrapeMetrics(ctx context.Context, client *http.Client, base string) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	return parseExposition(string(body))
}
