package trace

import "testing"

func TestSpansNestAndClose(t *testing.T) {
	r := New(4)
	root := r.Begin("request", 0, 7)
	child := r.Begin("run", root, 7)
	r.End(child)
	r.End(root)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[0].Parent != 0 || spans[1].Req != 7 {
		t.Errorf("wrong links: %+v", spans)
	}
	// The child opened after and closed before its parent.
	if spans[1].Start < spans[0].Start || spans[1].End > spans[0].End || spans[1].End < spans[1].Start {
		t.Errorf("child not inside parent: %+v", spans)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	r.End(r.Begin("x", 0, 0))
}
