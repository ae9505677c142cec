package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// request share req; parent indexes the enclosing span (-1 for a root).
// A nested span times a layer that the program only reaches from inside
// another (seq inside fleet.Authorize, say): the benchmark calls that
// layer's own public function on the same inputs, outside the parent's
// interval, so its duration is summed rather than placed on the timeline.
type span struct {
	req    int32
	parent int32
	name   string
	nested bool
	start  int64 // ns since the tracer's epoch
	dur    int64 // ns
	n      int32 // items the call covered (per-item metrics divide by it)
}

// tracer keeps spans in memory; when off, begin and end record nothing and
// read no clock, so an untraced replay runs the identical calls and the
// difference between the two replays is the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(req int, parent int, name string, n int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{req: int32(req), parent: int32(parent), name: name, n: int32(n),
		start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].dur = int64(time.Since(t.epoch)) - t.spans[i].start
}

// nestedSpan records a nested span of accumulated duration d over n calls.
func (t *tracer) nestedSpan(req, parent int, name string, d time.Duration, n int) {
	if !t.on || n == 0 {
		return
	}
	t.spans = append(t.spans, span{req: int32(req), parent: int32(parent), name: name, nested: true,
		start: int64(time.Since(t.epoch)), dur: int64(d), n: int32(n)})
}

// stopwatch accumulates the duration of repeated calls for one nested
// span; it reads no clock when tracing is off.
type stopwatch struct {
	on    bool
	total time.Duration
	n     int
	t0    time.Time
}

func (s *stopwatch) start() {
	if s.on {
		s.t0 = time.Now()
	}
}

func (s *stopwatch) stop() {
	if s.on {
		s.total += time.Since(s.t0)
		s.n++
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its timed children (overlapping children count
// once) minus the durations of its nested children, floored at zero.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int32][]iv)
	nested := make(map[int32]int64)
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		if s.nested {
			nested[s.parent] += s.dur
		} else {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.start + s.dur})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		lo, hi := s.start, s.start+s.dur
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		var covered, curA, curB int64
		open := false
		for _, c := range ivs {
			a, b := max(c.a, lo), min(c.b, hi)
			if a >= b {
				continue
			}
			if open && a <= curB {
				curB = max(curB, b)
				continue
			}
			if open {
				covered += curB - curA
			}
			curA, curB, open = a, b, true
		}
		if open {
			covered += curB - curA
		}
		self := s.dur - covered - nested[int32(i)]
		if self < 0 {
			self = 0
		}
		out[i] = self
	}
	return out
}

// layerStat aggregates every span of one name.
type layerStat struct {
	Name   string
	Spans  int
	Items  int64
	Total  int64 // ns, inclusive
	Self   int64 // ns
	Nested bool
}

// aggregate sums spans by name, in first-seen order.
func aggregate(spans []span) []layerStat {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []layerStat
	for i, s := range spans {
		k, ok := idx[s.name]
		if !ok {
			k = len(out)
			idx[s.name] = k
			out = append(out, layerStat{Name: s.name, Nested: s.nested})
		}
		out[k].Spans++
		out[k].Items += int64(s.n)
		out[k].Total += s.dur
		out[k].Self += self[i]
	}
	return out
}

// writeSpans writes the spans as tab-separated lines: request, index,
// parent, name, nested, start ns, duration ns, items.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tnested\tstart_ns\tdur_ns\titems")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%t\t%d\t%d\t%d\n", s.req, i, s.parent, s.name, s.nested, s.start, s.dur, s.n)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
