package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one job share
// Trace (the job's canonical ID), so a job's client, HTTP and store
// spans can be read together.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`     // "<layer>.<operation>"
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// adoptParent marks a span whose caller cannot know its parent (a store
// call made from a scheduler goroutine): resolve parents it to the
// narrowest span of another layer in the same trace that contains it.
const adoptParent = -1

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span being timed; end records it.
type openSpan struct {
	t *tracer
	s span
}

// start opens a span named name in trace under parent (0 = root,
// adoptParent = resolve by containment).
func (t *tracer) start(name, trace string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))}}
}

// id returns the span's ID (0 for an untraced run).
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// setTrace names the span's trace once the caller learns it (a client
// learns the job ID from the POST response).
func (o *openSpan) setTrace(trace string) {
	if o != nil {
		o.s.Trace = trace
	}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// resolve fills in what the call sites could not know: spans without a
// trace inherit their parent's, and adoptParent spans get the narrowest
// containing span of another layer in the same trace (or none).
func resolve(spans []span) {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	for i := range spans {
		for p := spans[i].Parent; spans[i].Trace == "" && p > 0; {
			j, ok := byID[p]
			if !ok {
				break
			}
			spans[i].Trace, p = spans[j].Trace, spans[j].Parent
		}
	}
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != adoptParent {
			continue
		}
		s.Parent = 0
		best := int64(-1)
		for _, j := range byTrace[s.Trace] {
			c := spans[j]
			if c.layer() == s.layer() || c.Start > s.Start || c.End < s.End {
				continue
			}
			if d := c.End - c.Start; best < 0 || d < best {
				best, s.Parent = d, c.ID
			}
		}
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by its children (overlapping
// children count once; parts of a child outside the parent count not at
// all).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerSelfSeconds sums self time per layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	ns := map[string]int64{}
	for _, s := range spans {
		ns[s.layer()] += self[s.ID]
	}
	out := make(map[string]float64, len(ns))
	for layer, v := range ns {
		out[layer] = float64(v) / 1e9
	}
	return out
}

// finish resolves the recorded spans, writes them to path as JSON lines
// and returns them.
func (t *tracer) finish(path string) ([]span, error) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	resolve(spans)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return spans, f.Close()
}
