package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// call. Spans of one benchmark operation share op.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for a root
	op         int
}

// tracer keeps spans in memory; they are analysed and written out only
// when the run ends. Safe for concurrent use (the dataset build's flow
// cells run on several workers).
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// breakdown is the analysed trace: self time per span name (the span's
// duration minus the part of it its children cover), plus the total and
// uncovered time of the root spans — the end-to-end operations.
type breakdown struct {
	self      map[string]time.Duration
	rootTotal time.Duration
	rootSelf  time.Duration
}

// coverage is the share of end-to-end (root) time covered by child spans.
func (b breakdown) coverage() float64 {
	if b.rootTotal == 0 {
		return 0
	}
	return 1 - float64(b.rootSelf)/float64(b.rootTotal)
}

// sum adds the self times of the named spans.
func (b breakdown) sum(names ...string) time.Duration {
	var t time.Duration
	for _, n := range names {
		t += b.self[n]
	}
	return t
}

func (t *tracer) analyze() breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	b := breakdown{self: map[string]time.Duration{}}
	for i, s := range t.spans {
		self := s.end - s.start - t.covered(s, children[i])
		b.self[s.name] += self
		if s.parent < 0 {
			b.rootTotal += s.end - s.start
			b.rootSelf += self
		}
	}
	return b
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's (children on parallel workers may overlap each other).
func (t *tracer) covered(parent span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(t.spans[k].start, parent.start), min(t.spans[k].end, parent.end)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// writeChrome writes the spans as a Chrome trace (one lane per operation).
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op, Args: map[string]int{"id": i, "parent": s.parent, "op": s.op}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
