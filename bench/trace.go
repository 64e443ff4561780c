package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records a span around each call the bench makes into a
// layer. Spans live in memory and are written once, at exit; nothing in
// the measured program is instrumented, so the untraced run is the same
// binary doing the same work minus the bookkeeping below.

// span is one timed call. Parent is the id of the span that caused it (0
// for a root); Req groups the spans of one request — one ladder iteration
// or one client request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span under parent and returns its id. A root
// span (parent 0) opens a new request.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	req := 0
	if parent == 0 {
		t.reqs++
		req = t.reqs
	} else {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	return id
}

// open reserves a span whose end is not known yet, so children can name it
// as their parent; done closes it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, now, now, parent)
}

func (t *tracer) done(id int) {
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) durationNs(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].End - t.spans[id-1].Start
}

// nameSummary aggregates the spans of one name. Self time is a span's
// duration minus the part its children cover.
type nameSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	SelfP50us float64 `json:"self_p50_us"`
	TotalMs   float64 `json:"total_ms"`
}

func (t *tracer) summary() []nameSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1) // time covered by children, by parent id
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur := make(map[string]samples)
	self := make(map[string]samples)
	for _, s := range t.spans {
		d := s.End - s.Start
		dur[s.Name] = append(dur[s.Name], d)
		self[s.Name] = append(self[s.Name], d-child[s.ID])
	}
	out := make([]nameSummary, 0, len(dur))
	for name, d := range dur {
		var total int64
		for _, x := range d {
			total += x
		}
		out = append(out, nameSummary{
			Name: name, Count: len(d),
			P50us: p50us(d), SelfP50us: p50us(self[name]),
			TotalMs: float64(total) / 1e6,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxClientSpans caps the client section of trace.json: a window of tens
// of thousands of requests is cut after this many spans, and the summary
// still covers every span recorded. The ladder's spans are never cut.
const maxClientSpans = 20000

// doc renders one tracer: the per-name summary and at most limit spans
// (limit <= 0 keeps all).
func (t *tracer) doc(limit int) map[string]any {
	sum := t.summary()
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	total := len(spans)
	if limit > 0 && len(spans) > limit {
		spans = spans[:limit]
	}
	return map[string]any{
		"spans_total":   total,
		"spans_written": len(spans),
		"summary":       sum,
		"spans":         spans,
	}
}

// writeTrace writes trace.json: the in-process ladder's spans and the
// client's per-request spans from the server-driven window.
func writeTrace(path string, meta map[string]any, ladder, client *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"meta":   meta,
		"ladder": ladder.doc(0),
		"client": client.doc(maxClientSpans),
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
