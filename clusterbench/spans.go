package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of a traced run: a phase of one client
// request, or one replayed module call. Spans of one request share req;
// parent indexes the enclosing span in the same log (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Class  string        `json:"class"` // op class the span serves
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type spanLog struct {
	spans []span
}

// add appends s and returns its index, for use as a child's parent.
func (l *spanLog) add(s span) int {
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval its children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(kids[i], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerKey names one row of the layer table.
type layerKey struct{ class, name string }

// layerStat is one layer's span count and summed self time.
type layerStat struct {
	count int
	self  time.Duration
}

func (s layerStat) meanMS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / float64(time.Millisecond)
}

// summarize sums self time per (class, span name).
func summarize(spans []span) map[layerKey]layerStat {
	self := selfTimes(spans)
	out := make(map[layerKey]layerStat)
	for i, s := range spans {
		k := layerKey{s.Class, s.Name}
		st := out[k]
		st.count++
		st.self += self[i]
		out[k] = st
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
