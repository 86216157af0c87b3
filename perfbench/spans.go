package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API, recorded from the
// benchmark's own code. Spans of one operation (a simulator rep or a
// fleet job) share op; parent is the index of the enclosing span in the
// same recorder, or -1.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// setOp tags the spans that follow with an operation identifier.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent,
		StartUs: float64(time.Since(r.t0).Nanoseconds()) / 1e3})
	r.open = append(r.open, id)
	err := fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].EndUs = float64(time.Since(r.t0).Nanoseconds()) / 1e3
	return err
}

// spanDurations returns every span's duration in ms, by span name.
func spanDurations(recs ...*recorder) map[string][]float64 {
	d := map[string][]float64{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		for _, s := range r.spans {
			d[s.Name] = append(d[s.Name], (s.EndUs-s.StartUs)/1e3)
		}
	}
	return d
}

// writeSpans writes every recorded span to path as JSON.
func writeSpans(path string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		if r != nil {
			all = append(all, r.spans...)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].StartUs < all[j].StartUs })
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median returns the middle value of xs (mean of the middle two), 0 for
// an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
