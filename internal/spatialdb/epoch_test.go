package spatialdb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

func TestEpochBumpsOnEveryMutation(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 100, 100), RTree)
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", s.Epoch())
	}
	s.Layer("a") // creation is a mutation
	e1 := s.Epoch()
	if e1 == 0 {
		t.Error("layer creation did not bump the epoch")
	}
	s.Layer("a") // already exists: no bump
	if s.Epoch() != e1 {
		t.Error("re-fetching a layer bumped the epoch")
	}
	s.MustInsert("a", "x", region.FromBox(bbox.Rect(1, 1, 2, 2)))
	e2 := s.Epoch()
	if e2 <= e1 {
		t.Error("insert did not bump the epoch")
	}
	if ok, err := s.Remove("a", "x"); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	if s.Epoch() <= e2 {
		t.Error("remove did not bump the epoch")
	}
	if ok, _ := s.Remove("a", "x"); ok {
		t.Error("second Remove reported success")
	}
}

func TestRemoveRebuildsEveryIndexBackend(t *testing.T) {
	for _, kind := range []IndexKind{Scan, RTree, PointRTree, Grid, ZOrderIdx} {
		t.Run(kind.String(), func(t *testing.T) {
			s := NewStore(bbox.Rect(0, 0, 100, 100), kind)
			for i := 0; i < 8; i++ {
				x := float64(i * 10)
				s.MustInsert("objs", fmt.Sprintf("o%d", i),
					region.FromBox(bbox.Rect(x, 0, x+5, 5)))
			}
			if ok, err := s.Remove("objs", "o3"); err != nil || !ok {
				t.Fatalf("Remove = %v, %v", ok, err)
			}
			l := s.Layer("objs")
			if l.Len() != 7 {
				t.Errorf("Len = %d after remove", l.Len())
			}
			if _, ok := l.GetByName("o3"); ok {
				t.Error("GetByName still finds the removed object")
			}
			// The rebuilt index must neither return the removed object nor
			// lose any survivor.
			spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2)}
			var names []string
			l.Search(spec, func(o Object) bool {
				names = append(names, o.Name)
				return true
			})
			if len(names) != 7 {
				t.Errorf("Search returned %d objects: %v", len(names), names)
			}
			for _, n := range names {
				if n == "o3" {
					t.Error("Search returned the removed object")
				}
			}
		})
	}
}

func TestUpsertByNameReplaces(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 100, 100), RTree)
	s.MustInsert("a", "x", region.FromBox(bbox.Rect(1, 1, 2, 2)))
	o, replaced, err := s.Upsert("a", "x", region.FromBox(bbox.Rect(50, 50, 60, 60)))
	if err != nil || !replaced {
		t.Fatalf("Upsert = %v, replaced=%v", err, replaced)
	}
	got, ok := s.Layer("a").GetByName("x")
	if !ok || got.ID != o.ID || got.Box.Lo[0] != 50 {
		t.Errorf("GetByName after upsert = %+v, %v", got, ok)
	}
	if s.Layer("a").Len() != 1 {
		t.Errorf("Len = %d", s.Layer("a").Len())
	}
	if _, _, err := s.Upsert("a", "x", region.Empty(2)); err == nil {
		t.Error("Upsert accepted an empty region")
	}
	if s.Layer("a").Len() != 1 {
		t.Error("failed upsert mutated the layer")
	}
}

func TestUpsertKeepsOldOnRefusal(t *testing.T) {
	// The store refuses boxes outside the universe on every backend; a
	// refused replacement must keep the old object and leave the epoch
	// alone.
	for _, kind := range allKinds {
		s := NewStore(bbox.Rect(0, 0, 100, 100), kind)
		s.MustInsert("a", "x", region.FromBox(bbox.Rect(1, 1, 2, 2)))
		epoch := s.Epoch()
		if _, _, err := s.Upsert("a", "x", region.FromBox(bbox.Rect(90, 90, 200, 200))); err == nil {
			t.Fatalf("%v: Upsert accepted an out-of-universe box", kind)
		}
		if s.Epoch() != epoch {
			t.Errorf("%v: failed upsert bumped the epoch: %d -> %d", kind, epoch, s.Epoch())
		}
		o, ok := s.Layer("a").GetByName("x")
		if !ok || o.Box.Lo[0] != 1 {
			t.Fatalf("%v: old object lost by failed upsert: %+v, %v", kind, o, ok)
		}
		// The old object must still be indexed.
		spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2)}
		found := 0
		s.Layer("a").Search(spec, func(Object) bool { found++; return true })
		if found != 1 {
			t.Errorf("%v: old object not searchable: found %d", kind, found)
		}
	}
}

func TestConcurrentUpsertsLeaveOneObject(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 100, 100), RTree)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				x := float64(w*10 + i%10)
				if _, _, err := s.Upsert("a", "x",
					region.FromBox(bbox.Rect(x, x, x+1, x+1))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Layer("a").Len(); got != 1 {
		t.Errorf("Len = %d after concurrent upserts of one name, want 1", got)
	}
}

func TestRemoveRepointsToOlderDuplicateName(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 100, 100), RTree)
	old := s.MustInsert("a", "x", region.FromBox(bbox.Rect(1, 1, 2, 2)))
	s.MustInsert("a", "x", region.FromBox(bbox.Rect(50, 50, 60, 60)))
	if ok, err := s.Remove("a", "x"); err != nil || !ok {
		t.Fatalf("Remove = %v, %v", ok, err)
	}
	// The older duplicate must remain reachable (and removable) by name.
	got, ok := s.Layer("a").GetByName("x")
	if !ok || got.ID != old.ID {
		t.Fatalf("GetByName after removing newest duplicate = %+v, %v", got, ok)
	}
	if ok, err := s.Remove("a", "x"); err != nil || !ok {
		t.Errorf("second Remove = %v, %v", ok, err)
	}
	if s.Layer("a").Len() != 0 {
		t.Errorf("Len = %d", s.Layer("a").Len())
	}
}

// TestConcurrentInsertAndGuardedRead exercises the store-level guard
// directly (without the HTTP layer): writers insert while readers hold
// RLock and walk the layers. Meaningful under -race.
func TestConcurrentInsertAndGuardedRead(t *testing.T) {
	s := NewStore(bbox.Rect(0, 0, 1000, 1000), RTree)
	s.Layer("objs")
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				x := float64((w*50 + i) % 990)
				s.MustInsert("objs", fmt.Sprintf("w%d-%d", w, i),
					region.FromBox(bbox.Rect(x, x, x+5, x+5)))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.RLock()
				l, ok := s.LayerIfExists("objs")
				if !ok {
					s.RUnlock()
					t.Error("layer vanished")
					return
				}
				n := 0
				l.All(func(Object) bool { n++; return true })
				s.RUnlock()
				if n > 150 {
					t.Errorf("saw %d objects, more than ever inserted", n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Layer("objs").Len(); got != 150 {
		t.Errorf("final Len = %d, want 150", got)
	}
	// 1 layer creation + 150 inserts.
	if got := s.Epoch(); got != 151 {
		t.Errorf("final epoch = %d, want 151", got)
	}
}
