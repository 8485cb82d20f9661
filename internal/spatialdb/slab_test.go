package spatialdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bbox"
	"repro/internal/region"
)

// slabModel is the reference a layer's slab bookkeeping is checked
// against: the layer's objects keyed by id.
type slabModel map[int64]Object

func (m slabModel) add(objs ...Object) {
	for _, o := range objs {
		m[o.ID] = o
	}
}

// newest returns the id of the newest object with the given name.
func (m slabModel) newest(name string) (int64, bool) {
	best := int64(0)
	for id, o := range m {
		if o.Name == name && id > best {
			best = id
		}
	}
	return best, best != 0
}

// randomSpec draws a spec over [0,100]² mixing every bound shape: an empty
// or boxed Lower, a Univ, empty or boxed Upper, and zero to three witnesses.
func randomSpec(rng *rand.Rand) bbox.RangeSpec {
	box := func(maxSide float64) bbox.Box {
		x, y := rng.Float64()*100, rng.Float64()*100
		return rect(x, y, x+rng.Float64()*maxSide, y+rng.Float64()*maxSide)
	}
	spec := bbox.RangeSpec{K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2)}
	if rng.Intn(3) == 0 {
		spec.Lower = box(2)
	}
	switch rng.Intn(4) {
	case 0:
		spec.Upper = bbox.Empty(2)
	case 1:
		spec.Upper = box(70)
	}
	for i := rng.Intn(4); i > 0; i-- {
		spec.Overlaps = append(spec.Overlaps, box(30))
	}
	return spec
}

// checkSlab asserts that layer agrees with the model: SearchInto visits
// exactly the model's matching ids in ascending order for random specs,
// and Get, GetByName, All and Objects return the model's objects.
func checkSlab(t *testing.T, s *Store, layer string, m slabModel, rng *rand.Rand, step string) {
	t.Helper()
	l, ok := s.LayerIfExists(layer)
	if !ok {
		t.Fatalf("%s: no layer %q", step, layer)
	}
	ids := slices.Sorted(maps.Keys(m))
	var slots []int64
	for trial := 0; trial < 40; trial++ {
		spec := randomSpec(rng)
		var want, got []int64
		for _, id := range ids {
			if spec.Matches(m[id].Box) {
				want = append(want, id)
			}
		}
		st := l.SearchInto(spec, &slots, func(o Object) bool {
			got = append(got, o.ID)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %v: spec %+v visited %v, want %v", step, s.Kind(), spec, got, want)
		}
		if st.Returned != len(want) {
			t.Fatalf("%s: %v: Returned %d, want %d", step, s.Kind(), st.Returned, len(want))
		}
	}
	if l.Len() != len(ids) {
		t.Fatalf("%s: Len %d, model %d", step, l.Len(), len(ids))
	}
	var all []int64
	l.All(func(o Object) bool {
		all = append(all, o.ID)
		return true
	})
	var objs []int64
	for _, o := range l.Objects() {
		objs = append(objs, o.ID)
	}
	if !slices.Equal(all, ids) || !slices.Equal(objs, ids) {
		t.Fatalf("%s: All %v, Objects %v, model %v", step, all, objs, ids)
	}
	for _, id := range ids {
		o, ok := l.Get(id)
		if !ok || o.ID != id || o.Name != m[id].Name || !o.Box.Equal(m[id].Box) {
			t.Fatalf("%s: Get(%d) = %+v, %v; model %+v", step, id, o, ok, m[id])
		}
		want, _ := m.newest(o.Name)
		if byName, ok := l.GetByName(o.Name); !ok || byName.ID != want {
			t.Fatalf("%s: GetByName(%q) = %d, %v; want %d", step, o.Name, byName.ID, ok, want)
		}
	}
	if _, ok := l.Get(s.NextID() + 1); ok {
		t.Fatalf("%s: Get of an unassigned id succeeded", step)
	}
}

// TestSearchAgainstDirectFilter drives a seeded history of every kind of
// layer change through each backend — inserts, fresh and replacing
// upserts, removes, a packed and a looped bulk insert, atomic batches
// aborted mid-way, best-effort batches with refused objects, and a JSON
// and a binary snapshot round trip — and after every step checks the
// slab, its slots and the index against a map model (checkSlab).
func TestSearchAgainstDirectFilter(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind) + 41))
			s := NewStore(rect(0, 0, 100, 100), kind)
			m := slabModel{}
			const layer = "objs"
			n := 0
			item := func() BulkItem {
				n++
				x, y := rng.Float64()*90, rng.Float64()*90
				w, h := rng.Float64()*8+0.5, rng.Float64()*8+0.5
				return BulkItem{Name: fmt.Sprintf("o%d", n%23), Reg: region.FromBox(rect(x, y, x+w, y+h))}
			}
			outside := BulkItem{Name: "outside", Reg: region.FromBox(rect(150, 150, 160, 160))}
			bulk := func(items []BulkItem, mode BulkMode) {
				t.Helper()
				rep, err := s.BulkInsert(layer, items, mode)
				if err != nil {
					return // an aborted batch changes nothing
				}
				for _, r := range rep.Results {
					if r.Err == nil {
						m.add(r.Object)
					}
				}
			}
			check := func(step string) { t.Helper(); checkSlab(t, s, layer, m, rng, step) }

			for i := 0; i < 12; i++ {
				it := item()
				m.add(s.MustInsert(layer, it.Name, it.Reg))
			}
			check("inserts")
			it := item()
			it.Name = "fresh"
			o, replaced, err := s.Upsert(layer, it.Name, it.Reg)
			if err != nil || replaced {
				t.Fatalf("fresh upsert: replaced=%v err=%v", replaced, err)
			}
			m.add(o)
			check("fresh upsert")
			victim := m[slices.Min(slices.Collect(maps.Keys(m)))]
			old, _ := m.newest(victim.Name)
			o, replaced, err = s.Upsert(layer, victim.Name, item().Reg)
			if err != nil || !replaced {
				t.Fatalf("replacing upsert: replaced=%v err=%v", replaced, err)
			}
			delete(m, old)
			m.add(o)
			check("replacing upsert")
			for i := 0; i < 3; i++ {
				ids := slices.Sorted(maps.Keys(m))
				victim := m[ids[rng.Intn(len(ids))]]
				if ok, err := s.Remove(layer, victim.Name); err != nil || !ok {
					t.Fatalf("remove %q: ok=%v err=%v", victim.Name, ok, err)
				}
				id, _ := m.newest(victim.Name)
				delete(m, id)
				check(fmt.Sprintf("remove %d", i))
			}
			packed := make([]BulkItem, 0, len(m))
			for range cap(packed) {
				packed = append(packed, item())
			}
			bulk(packed, BulkAtomic)
			check("packed bulk insert")
			bulk([]BulkItem{item(), item(), item()}, BulkAtomic)
			check("looped bulk insert")
			bulk([]BulkItem{item(), {Name: "empty", Reg: region.Empty(2)}, item()}, BulkAtomic)
			check("atomic batch with an invalid object")
			// The store refuses a box outside the universe on every backend:
			// the atomic batch aborts, the best-effort one skips it.
			bulk([]BulkItem{item(), item(), outside, item()}, BulkAtomic)
			check("atomic batch with an out-of-universe box")
			bulk([]BulkItem{outside, item(), outside, item(), item()}, BulkBestEffort)
			check("best-effort batch with out-of-universe boxes")

			var js bytes.Buffer
			if err := s.Save(&js); err != nil {
				t.Fatal(err)
			}
			if s, err = Load(&js, kind); err != nil {
				t.Fatal(err)
			}
			check("JSON snapshot round trip")
			for i := 0; i < 2; i++ {
				it := item()
				m.add(s.MustInsert(layer, it.Name, it.Reg))
			}
			check("inserts after the JSON load")
			var bin bytes.Buffer
			if err := s.SaveBinary(&bin); err != nil {
				t.Fatal(err)
			}
			if s, err = LoadBinary(&bin, kind); err != nil {
				t.Fatal(err)
			}
			check("binary snapshot round trip")
			ids := slices.Sorted(maps.Keys(m))
			victim = m[ids[len(ids)/2]]
			if ok, err := s.Remove(layer, victim.Name); err != nil || !ok {
				t.Fatalf("remove after load: ok=%v err=%v", ok, err)
			}
			id, _ := m.newest(victim.Name)
			delete(m, id)
			bulk([]BulkItem{item(), item()}, BulkBestEffort)
			check("remove and bulk insert after the binary load")
		})
	}
}

// Snapshots listing a layer's objects in descending id order — hand-built,
// no writer produces them — load with the slab in ascending id order.
func TestLoadersSortLayerByID(t *testing.T) {
	boxes := []bbox.Box{rect(1, 1, 2, 2), rect(5, 5, 9, 9), rect(20, 20, 22, 23)}
	ids := []int64{30, 20, 10}
	doc := snapshot{Version: 2, NextID: 30, Universe: toSnapBox(rect(0, 0, 100, 100)),
		Layers: []snapLayer{{Name: "towns"}}}
	for i, b := range boxes {
		doc.Layers[0].Objects = append(doc.Layers[0].Objects,
			snapObject{ID: ids[i], Name: fmt.Sprintf("t%d", ids[i]), Boxes: []snapBox{toSnapBox(b)}})
	}
	js, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	// The binary v1 layout of the same store, objects in the same order.
	var objs []MutObject
	for i, b := range boxes {
		objs = append(objs, MutObject{ID: ids[i], Name: fmt.Sprintf("t%d", ids[i]), Boxes: []bbox.Box{b}})
	}
	bin := binSnapV1(rect(0, 0, 100, 100), 30, "towns", objs)

	for _, kind := range allKinds {
		for _, tc := range []struct {
			name string
			load func() (*Store, error)
		}{
			{"json", func() (*Store, error) { return Load(bytes.NewReader(js), kind) }},
			{"binary", func() (*Store, error) { return LoadBinary(bytes.NewReader(bin), kind) }},
		} {
			s, err := tc.load()
			if err != nil {
				t.Fatalf("%v %s: %v", kind, tc.name, err)
			}
			m := slabModel{}
			for i, b := range boxes {
				m.add(Object{ID: ids[i], Name: fmt.Sprintf("t%d", ids[i]), Box: b})
			}
			checkSlab(t, s, "towns", m, rand.New(rand.NewSource(7)), fmt.Sprintf("%v %s load", kind, tc.name))
		}
	}
}

// parcelStore bulk-loads side² unit-gap parcels on a 20-unit grid.
func parcelStore(tb testing.TB, kind IndexKind, side int) *Store {
	tb.Helper()
	s := NewStore(rect(0, 0, float64(20*side), float64(20*side)), kind)
	items := make([]BulkItem, 0, side*side)
	for i := range side * side {
		x, y := float64(i%side)*20, float64(i/side)*20
		items = append(items, BulkItem{Name: fmt.Sprintf("p%d", i), Reg: region.FromBox(rect(x+1, y+1, x+19, y+19))})
	}
	if _, err := s.BulkInsert("parcels", items, BulkAtomic); err != nil {
		tb.Fatal(err)
	}
	return s
}

// probeSpecs are the two probe shapes of the retrieval steps: a narrow
// containment P <= W and an overlap P & W != 0, around the window
// [x, x+w]².
func probeSpecs(x, w float64) map[string]bbox.RangeSpec {
	win := rect(x, x, x+w, x+w)
	return map[string]bbox.RangeSpec{
		"inside":  {K: 2, Lower: bbox.Empty(2), Upper: win},
		"overlap": {K: 2, Lower: bbox.Empty(2), Upper: bbox.Univ(2), Overlaps: []bbox.Box{win}},
	}
}

// A warm SearchInto — its slot buffer grown by a first call — allocates
// nothing on any backend.
func TestSearchIntoAllocFree(t *testing.T) {
	for _, kind := range allKinds {
		l := parcelStore(t, kind, 40).Layer("parcels")
		for name, spec := range probeSpecs(205, 90) {
			var slots []int64
			n := 0
			visit := func(Object) bool { n++; return true }
			l.SearchInto(spec, &slots, visit)
			if n == 0 {
				t.Fatalf("%v %s: the probe matched nothing", kind, name)
			}
			if allocs := testing.AllocsPerRun(50, func() { l.SearchInto(spec, &slots, visit) }); allocs != 0 {
				t.Errorf("%v %s: warm SearchInto allocates %.1f times", kind, name, allocs)
			}
		}
	}
}

// A spec with an empty upper bound matches no stored box (they are never
// empty), so every backend answers it without touching the index.
func TestEmptyUpperTouchesNothing(t *testing.T) {
	for _, kind := range allKinds {
		l := parcelStore(t, kind, 20).Layer("parcels")
		for _, spec := range []bbox.RangeSpec{
			{K: 2, Lower: bbox.Empty(2), Upper: bbox.Empty(2)},
			{K: 2, Lower: bbox.Empty(2), Upper: bbox.Empty(2), Overlaps: []bbox.Box{rect(0, 0, 50, 50)}},
		} {
			st := l.SearchStats(spec, func(Object) bool {
				t.Fatalf("%v: visited a match of an empty upper bound", kind)
				return false
			})
			if st.Touched != 0 || st.Scanned != 0 || st.Returned != 0 {
				t.Errorf("%v: empty upper bound cost %+v", kind, st)
			}
		}
	}
}

// BenchmarkLayerSearch times one warm probe of a 200k-parcel layer per
// backend: a narrow containment (about nine matches) and an overlap of the
// same window (about sixteen).
func BenchmarkLayerSearch(b *testing.B) {
	for _, kind := range allKinds {
		l := parcelStore(b, kind, 448).Layer("parcels")
		specs := probeSpecs(4405, 60)
		for _, name := range []string{"inside", "overlap"} {
			spec := specs[name]
			b.Run(kind.String()+"/"+name, func(b *testing.B) {
				var slots []int64
				visit := func(Object) bool { return true }
				b.ReportAllocs()
				for b.Loop() {
					l.SearchInto(spec, &slots, visit)
				}
			})
		}
	}
}
