package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. "bench" is the benchmark's own work
// (checks, polling, decoding responses); the rest are program modules.
const (
	layerBench    = "bench"
	layerService  = "service"
	layerPipeline = "pipeline"
	layerStore    = "store"
	layerPersist  = "persist"
)

var allLayers = []string{layerBench, layerService, layerPipeline, layerStore, layerPersist}

// span is one timed call. Spans of one operation share Op; Parent is the
// span that caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// StartUS and DurUS are microseconds since the recorder started.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`

	start, end time.Time
}

// recorder keeps spans in memory; they are written out as JSON when the
// run ends. A nil *recorder records nothing, which is how untraced runs
// pay nothing but a nil check.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	nextOp atomic.Int64
	// current is the span the persistence probes attribute their calls
	// to: the writer's in-flight request. Calls the service makes in the
	// background (the index warmer) land under whatever request is in
	// flight at the time.
	current atomic.Pointer[active]

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is an open span.
type active struct {
	rec   *recorder
	id    int64
	op    int64
	start time.Time
	name  string
	layer string
	par   int64
	prev  *active // the span current pointed at before enter
}

// newOp allocates an operation ID.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	return r.nextOp.Add(1)
}

// begin opens a span under parent (nil for an operation's root).
func (r *recorder) begin(op int64, parent *active, layer, name string) *active {
	if r == nil {
		return nil
	}
	a := &active{rec: r, id: r.nextID.Add(1), op: op, start: time.Now(), name: name, layer: layer}
	if parent != nil {
		a.par = parent.id
	}
	return a
}

// child opens a span under the current writer request; used by the
// persistence probes, which cannot see who called them.
func (r *recorder) child(layer, name string) *active {
	if r == nil {
		return nil
	}
	cur := r.current.Load()
	if cur == nil {
		return r.begin(0, nil, layer, name)
	}
	return r.begin(cur.op, cur, layer, name)
}

// enter makes a the span probes attribute calls to, until it ends.
func (a *active) enter() *active {
	if a != nil {
		a.prev = a.rec.current.Swap(a)
	}
	return a
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.rec.current.CompareAndSwap(a, a.prev)
	a.rec.record(a.id, a.op, a.par, a.layer, a.name, a.start, time.Now())
}

// add records a finished span with explicit times (spans imported from
// the server's /v1/traces, or pipeline stage observations).
func (r *recorder) add(op, parent int64, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.record(r.nextID.Add(1), op, parent, layer, name, start, end)
}

func (r *recorder) record(id, op, parent int64, layer, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, start: start, end: end}
	s.StartUS = float64(start.Sub(r.t0).Nanoseconds()) / 1e3
	s.DurUS = float64(end.Sub(start).Nanoseconds()) / 1e3
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations lists the durations in seconds of the spans accepted by keep.
func (r *recorder) durations(keep func(s, parent *span) bool) []float64 {
	spans := r.snapshot()
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var out []float64
	for i := range spans {
		if keep(&spans[i], byID[spans[i].Parent]) {
			out = append(out, spans[i].end.Sub(spans[i].start).Seconds())
		}
	}
	return out
}

// selfDurations is each span's duration minus the part of its interval
// its child spans cover (children may overlap each other, as concurrent
// pipeline workers do; their union is subtracted once).
func selfDurations(spans []span) map[int64]time.Duration {
	children := make(map[int64][]*span)
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
		}
	}
	type interval struct{ a, b time.Time }
	self := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		var ivs []interval
		for _, c := range children[s.ID] {
			a, b := c.start, c.end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, interval{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		covered := time.Duration(0)
		var cur interval
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.a.After(cur.b):
				covered += cur.b.Sub(cur.a)
				cur = v
			case v.b.After(cur.b):
				cur.b = v.b
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		self[s.ID] = s.end.Sub(s.start) - covered
	}
	return self
}

// selfOf lists the self times in seconds of the spans keep accepts.
func (r *recorder) selfOf(keep func(s *span) bool) []float64 {
	spans := r.snapshot()
	self := selfDurations(spans)
	var out []float64
	for i := range spans {
		if keep(&spans[i]) {
			out = append(out, self[spans[i].ID].Seconds())
		}
	}
	return out
}

// writeJSON writes every span to path.
func (r *recorder) writeJSON(path string) error {
	body, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// selfMetrics reports each layer's self time per operation, in ms, over
// the operations whose root span name starts with op (the measured ones:
// commits, dataset resolves — not the restarts of set-up).
func (r *recorder) selfMetrics(op string, into map[string]metric) {
	spans := r.snapshot()
	self := selfDurations(spans)
	measured := make(map[int64]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Op > 0 && strings.HasPrefix(s.Name, op) {
			measured[s.Op] = true
		}
	}
	byLayer := make(map[string]time.Duration)
	for _, s := range spans {
		if measured[s.Op] {
			byLayer[s.Layer] += self[s.ID]
		}
	}
	for _, layer := range allLayers {
		into["self."+layer+"_ms"] = metric{1e3 * byLayer[layer].Seconds() / float64(max(len(measured), 1)), "ms"}
	}
	into["trace.spans"] = metric{float64(len(spans)), "count"}
}
