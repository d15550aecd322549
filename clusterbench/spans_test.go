package main

import (
	"testing"
	"time"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Class: "q", Parent: -1, Start: ms(0), End: ms(100)},    // 0
		{Name: "a", Class: "q", Parent: 0, Start: ms(10), End: ms(40)},        // 1
		{Name: "b", Class: "q", Parent: 0, Start: ms(30), End: ms(60)},        // 2: overlaps a
		{Name: "c", Class: "q", Parent: 0, Start: ms(90), End: ms(120)},       // 3: runs past root
		{Name: "a.child", Class: "q", Parent: 1, Start: ms(15), End: ms(25)},  // 4
		{Name: "a.child", Class: "q", Parent: 1, Start: ms(20), End: ms(30)},  // 5: overlaps 4
		{Name: "other", Class: "x", Parent: -1, Start: ms(200), End: ms(210)}, // 6
	}
	self := selfTimes(spans)
	// root: 100 minus the union of [10,60) and [90,100) = 100 - 60 = 40.
	// a: 30 minus the union [15,30) = 15. b, c, leaves: their duration.
	want := []time.Duration{ms(40), ms(15), ms(30), ms(30), ms(10), ms(10), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	sum := summarize(spans)
	if st := sum[layerKey{"q", "a.child"}]; st.count != 2 || st.self != ms(20) {
		t.Errorf("a.child summary = %+v, want count 2, self 20ms", st)
	}
	if got := sum[layerKey{"q", "root"}].meanMS(); got != 40 {
		t.Errorf("root mean self = %vms, want 40", got)
	}
}

func TestCovered(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ivs := [][2]time.Duration{{ms(5), ms(8)}, {ms(0), ms(3)}, {ms(2), ms(6)}}
	if got := covered(ivs, ms(1), ms(7)); got != ms(6) {
		t.Fatalf("covered = %v, want 6ms", got)
	}
	if got := covered(nil, 0, ms(5)); got != 0 {
		t.Fatalf("covered(nil) = %v", got)
	}
}
