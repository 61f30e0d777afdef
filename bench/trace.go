package main

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (the layers themselves are not instrumented for it). Op groups
// the spans of one operation; Parent is the ID of the enclosing span, 0
// for an operation's root.
type Span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Name: name, Op: op, ID: id, Parent: parent, Start: now})
	return id
}

// end closes span id with the number of items it processed.
func (t *tracer) end(id, items int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Items = items
}

// adopt appends spans another process recorded, renumbering their IDs.
// Their times keep that process's origin.
func (t *tracer) adopt(spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := len(t.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes maps span ID to its self time: its duration minus the part of
// it that its children's intervals cover.
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.Dur() - time.Duration(covered)
	}
	return self
}

// durationsMS groups span durations, in milliseconds, by span name.
func durationsMS(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.Dur()))
	}
	return out
}

// writeSpans saves a traced run's spans and per-layer table to
// dir/<workload>.spans.json.
func writeSpans(dir, workload string, spans []Span, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, workload+".spans.json"), struct {
		Workload string             `json:"workload"`
		Layers   map[string]float64 `json:"layers"`
		Spans    []Span             `json:"spans"`
	}{workload, layers, spans})
}
