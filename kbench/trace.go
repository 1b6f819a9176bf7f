package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span: a call the benchmark made into a layer.
// Times are nanoseconds since the recorder started; Parent 0 means a
// root. Spans of one request share Req.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 from a nil recorder).
func (r *recorder) start(name string, parent int, req string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// span runs fn inside a span and returns the span's duration.
func (r *recorder) span(name string, parent int, fn func(id int)) time.Duration {
	id := r.start(name, parent, "")
	t := time.Now()
	fn(id)
	d := time.Since(t)
	r.end(id)
	return d
}

// layerSummary aggregates the spans of one name: count, total time,
// and self time (each span minus the part of it its children cover).
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize computes per-name totals and self times.
func (r *recorder) summarize() []layerSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := map[string]*layerSummary{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
		}
		d := s.End - s.Start
		l.Count++
		l.TotalMS += float64(d) / 1e6
		l.SelfMS += float64(d-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write saves every span plus the per-name summary as one JSON file.
func (r *recorder) write(path string) error {
	summary := r.summarize()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans   []spanRec      `json:"spans"`
		Summary []layerSummary `json:"summary"`
	}{r.spans, summary})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
