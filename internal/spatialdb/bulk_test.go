package spatialdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

// bulkItems returns n deterministic random items inside the 100×100
// universe.
func bulkItems(n int, seed int64) []BulkItem {
	rng := rand.New(rand.NewSource(seed))
	items := make([]BulkItem, n)
	for i := range items {
		x, y := rng.Float64()*90, rng.Float64()*90
		w, h := rng.Float64()*8+0.5, rng.Float64()*8+0.5
		items[i] = BulkItem{
			Name: fmt.Sprintf("o%d", i),
			Reg:  region.FromBox(rect(x, y, x+w, y+h)),
		}
	}
	return items
}

// searchIDSet runs one containment query and returns the matched names.
func searchNames(l *Layer, b bbox.Box) map[string]bool {
	out := map[string]bool{}
	l.Search(bbox.RangeSpec{K: b.K, Lower: bbox.Empty(b.K), Upper: b}, func(o Object) bool {
		out[o.Name] = true
		return true
	})
	return out
}

// TestBulkInsertMatchesLooped checks, for every backend, that a bulk
// load answers range queries exactly like per-object insertion and bumps
// the epoch once for the whole batch.
func TestBulkInsertMatchesLooped(t *testing.T) {
	items := bulkItems(300, 11)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			u := rect(0, 0, 100, 100)
			looped := NewStore(u, kind)
			for _, it := range items {
				if _, err := looped.Insert("objs", it.Name, it.Reg); err != nil {
					t.Fatal(err)
				}
			}
			bulk := NewStore(u, kind)
			before := bulk.Epoch()
			rep, err := bulk.BulkInsert("objs", items, BulkAtomic)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Inserted != len(items) {
				t.Fatalf("inserted %d of %d", rep.Inserted, len(items))
			}
			if got := bulk.Epoch(); got != before+1 {
				t.Errorf("epoch bumped %d times, want 1", got-before)
			}
			for i, res := range rep.Results {
				if res.Err != nil || res.Object.ID == 0 {
					t.Fatalf("result %d: %+v", i, res)
				}
			}
			// Several probe queries must agree exactly.
			for _, q := range []bbox.Box{rect(0, 0, 100, 100), rect(10, 10, 40, 40), rect(70, 5, 95, 30)} {
				want := searchNames(looped.Layer("objs"), q)
				got := searchNames(bulk.Layer("objs"), q)
				if len(want) != len(got) {
					t.Fatalf("query %v: %d names vs %d", q, len(got), len(want))
				}
				for n := range want {
					if !got[n] {
						t.Fatalf("query %v: missing %q", q, n)
					}
				}
			}
		})
	}
}

// TestBulkInsertIntoNonEmptyLayer checks the packed rebuild keeps the
// pre-batch objects intact.
func TestBulkInsertIntoNonEmptyLayer(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), RTree)
	s.MustInsert("objs", "pre", region.FromBox(rect(1, 1, 2, 2)))
	if _, err := s.BulkInsert("objs", bulkItems(50, 3), BulkAtomic); err != nil {
		t.Fatal(err)
	}
	l := s.Layer("objs")
	if l.Len() != 51 {
		t.Fatalf("Len = %d, want 51", l.Len())
	}
	if !searchNames(l, rect(0, 0, 3, 3))["pre"] {
		t.Error("pre-batch object lost by the bulk rebuild")
	}
	if _, ok := l.GetByName("o49"); !ok {
		t.Error("bulk object not reachable by name")
	}
}

// TestBulkInsertTrickleBatch: a batch much smaller than the layer takes
// the incremental path (no packed rebuild) and must still leave the
// index answering exactly.
func TestBulkInsertTrickleBatch(t *testing.T) {
	for _, kind := range []IndexKind{RTree, Grid, ZOrderIdx} {
		t.Run(kind.String(), func(t *testing.T) {
			s := NewStore(rect(0, 0, 100, 100), kind)
			if _, err := s.BulkInsert("objs", bulkItems(400, 31), BulkAtomic); err != nil {
				t.Fatal(err)
			}
			trickle := []BulkItem{
				{Name: "tr1", Reg: region.FromBox(rect(50, 50, 51, 51))},
				{Name: "tr2", Reg: region.FromBox(rect(60, 60, 61, 61))},
			}
			rep, err := s.BulkInsert("objs", trickle, BulkAtomic)
			if err != nil || rep.Inserted != 2 {
				t.Fatalf("trickle batch: %v, inserted %d", err, rep.Inserted)
			}
			got := searchNames(s.Layer("objs"), rect(49, 49, 62, 62))
			if !got["tr1"] || !got["tr2"] {
				t.Errorf("trickle objects unsearchable: %v", got)
			}
		})
	}
}

// TestBulkInsertAtomicInvalidMidBatch: an empty region in the middle of
// an atomic batch aborts the whole batch and leaves the store unchanged.
func TestBulkInsertAtomicInvalidMidBatch(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			s := NewStore(rect(0, 0, 100, 100), kind)
			s.MustInsert("objs", "pre", region.FromBox(rect(1, 1, 2, 2)))
			epoch := s.Epoch()
			items := bulkItems(10, 5)
			items[4].Reg = region.Empty(2)
			rep, err := s.BulkInsert("objs", items, BulkAtomic)
			if err == nil {
				t.Fatal("atomic batch with an empty region succeeded")
			}
			if rep.Results[4].Err == nil {
				t.Error("invalid item not attributed")
			}
			if rep.Inserted != 0 || s.Layer("objs").Len() != 1 {
				t.Errorf("atomic abort inserted %d objects (layer has %d)",
					rep.Inserted, s.Layer("objs").Len())
			}
			if s.Epoch() != epoch {
				t.Errorf("epoch moved on an aborted batch: %d -> %d", epoch, s.Epoch())
			}
		})
	}
}

// TestBulkInsertBestEffortInvalidMidBatch: the same batch in best-effort
// mode inserts the nine valid objects and reports the empty one.
func TestBulkInsertBestEffortInvalidMidBatch(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), RTree)
	items := bulkItems(10, 5)
	items[4].Reg = region.Empty(2)
	rep, err := s.BulkInsert("objs", items, BulkBestEffort)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserted != 9 || s.Layer("objs").Len() != 9 {
		t.Errorf("inserted %d (layer %d), want 9", rep.Inserted, s.Layer("objs").Len())
	}
	if rep.Results[4].Err == nil {
		t.Error("invalid item not attributed")
	}
	if _, ok := s.Layer("objs").GetByName("o5"); !ok {
		t.Error("valid item after the invalid one was not inserted")
	}
}

// TestBulkInsertRefusesOutOfUniverse: the store refuses a box outside the
// universe on every backend. Validation attributes the refusal to the
// exact object before anything touches the index, so an atomic batch
// leaves the layer and its index as they were, and a best-effort batch
// inserts the rest.
func TestBulkInsertRefusesOutOfUniverse(t *testing.T) {
	u := rect(0, 0, 100, 100)
	mk := func(kind IndexKind) (*Store, []BulkItem) {
		s := NewStore(u, kind)
		s.MustInsert("objs", "pre", region.FromBox(rect(1, 1, 2, 2)))
		items := bulkItems(10, 9)
		items[6] = BulkItem{Name: "outside", Reg: region.FromBox(rect(90, 90, 150, 150))}
		return s, items
	}

	t.Run("atomic", func(t *testing.T) {
		for _, kind := range allKinds {
			s, items := mk(kind)
			epoch := s.Epoch()
			rep, err := s.BulkInsert("objs", items, BulkAtomic)
			if err == nil {
				t.Fatalf("%v: atomic batch with an out-of-universe box succeeded", kind)
			}
			if rep.Results[6].Err == nil {
				t.Errorf("%v: refusal not attributed to the offending object", kind)
			}
			l := s.Layer("objs")
			if l.Len() != 1 {
				t.Fatalf("%v: aborted batch left %d objects, want 1", kind, l.Len())
			}
			// The index still answers queries for the survivor.
			if !searchNames(l, rect(0, 0, 5, 5))["pre"] {
				t.Errorf("%v: pre-batch object unsearchable after the aborted batch", kind)
			}
			if s.Epoch() != epoch {
				t.Errorf("%v: epoch moved on an aborted batch: %d -> %d", kind, epoch, s.Epoch())
			}
		}
	})

	t.Run("best-effort", func(t *testing.T) {
		for _, kind := range allKinds {
			s, items := mk(kind)
			rep, err := s.BulkInsert("objs", items, BulkBestEffort)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if rep.Inserted != 9 {
				t.Errorf("%v: inserted %d, want 9", kind, rep.Inserted)
			}
			if rep.Results[6].Err == nil {
				t.Errorf("%v: refusal not attributed", kind)
			}
			l := s.Layer("objs")
			if l.Len() != 10 { // pre + 9 valid
				t.Errorf("%v: layer has %d objects, want 10", kind, l.Len())
			}
			if _, ok := l.GetByName("outside"); ok {
				t.Errorf("%v: refused object reachable by name", kind)
			}
		}
	})
}

// TestBulkInsertCreatesLayer: bulk insert into a missing layer creates
// it, and the creation bumps the epoch even when the batch is empty.
func TestBulkInsertCreatesLayer(t *testing.T) {
	s := NewStore(rect(0, 0, 100, 100), RTree)
	epoch := s.Epoch()
	if _, err := s.BulkInsert("fresh", nil, BulkAtomic); err != nil {
		t.Fatal(err)
	}
	if !s.HasLayer("fresh") {
		t.Fatal("layer not created")
	}
	if s.Epoch() == epoch {
		t.Error("layer creation did not bump the epoch")
	}
}

// TestSnapshotRoundTripBulkLoaded: a store filled through BulkInsert
// snapshots and reloads like any other, across index backends.
func TestSnapshotRoundTripBulkLoaded(t *testing.T) {
	src := NewStore(rect(0, 0, 100, 100), RTree)
	if _, err := src.BulkInsert("a", bulkItems(80, 21), BulkAtomic); err != nil {
		t.Fatal(err)
	}
	if _, err := src.BulkInsert("b", bulkItems(40, 22), BulkBestEffort); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, kind := range allKinds {
		got, err := Load(bytes.NewReader(buf.Bytes()), kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, layer := range []string{"a", "b"} {
			if got.Layer(layer).Len() != src.Layer(layer).Len() {
				t.Fatalf("%v: layer %q has %d objects, want %d",
					kind, layer, got.Layer(layer).Len(), src.Layer(layer).Len())
			}
			q := rect(10, 10, 60, 60)
			want := searchNames(src.Layer(layer), q)
			have := searchNames(got.Layer(layer), q)
			if len(want) != len(have) {
				t.Fatalf("%v: layer %q query returns %d names, want %d", kind, layer, len(have), len(want))
			}
		}
	}
}
