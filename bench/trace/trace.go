// Package trace records spans around calls into the program's layers.
// The spans are recorded from the benchmark's own files, around each
// layer's public functions; nothing inside the program is edited. They
// are kept in memory and written out when the run ends.
package trace

import (
	"encoding/json"
	"os"
	"time"
)

// Span is one timed call. Spans of one request share Req; Parent is the
// id of the span that caused this one (0 for a request's root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, which is how
// the untraced pass runs the same code.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// New returns a recorder with room for capacity spans.
func New(capacity int) *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.t0))
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteFile writes the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []Span `json:"spans"`
	}{Unit: "ns since the trace began", Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
