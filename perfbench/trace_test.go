package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{parent: -1, name: "request", start: 0, dur: 100},
		{parent: 0, name: "a", start: 10, dur: 30},   // 10..40
		{parent: 0, name: "b", start: 30, dur: 20},   // 30..50, overlaps a
		{parent: 0, name: "c", start: 90, dur: 20},   // 90..110, sticks out of the parent
		{parent: 0, name: "n", nested: true, dur: 5}, // timed beside the parent
		{parent: 1, name: "a.child", start: 15, dur: 10},
	}
	self := selfTimes(spans)
	// request: 100 - |10..50 ∪ 90..100| (50) - nested 5 = 45
	want := []int64{45, 20, 20, 20, 5, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].name, self[i], want[i])
		}
	}
}

func TestSelfTimeFloorsAtZero(t *testing.T) {
	spans := []span{
		{parent: -1, name: "collect", start: 0, dur: 10},
		{parent: 0, name: "vendor", nested: true, dur: 25},
	}
	if s := selfTimes(spans)[0]; s != 0 {
		t.Errorf("self %d, want 0", s)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	i := tr.begin(0, -1, "request", 1)
	tr.end(i)
	tr.nestedSpan(0, i, "x", 5, 1)
	sw := stopwatch{on: tr.on}
	sw.start()
	sw.stop()
	if len(tr.spans) != 0 || sw.n != 0 || i != -1 {
		t.Errorf("untraced tracer recorded %d spans, stopwatch %d calls", len(tr.spans), sw.n)
	}
}
