package spatialdb

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/bbox"
)

// The JSON snapshot format: a versioned document with the universe and
// every layer's objects as disjoint box lists. It is the debug and
// interchange codec — human-readable and diff-able; the production write
// path persists the binary codec in binsnap.go instead. Indexes and
// planner statistics are derived state, rebuilt on load, so snapshots are
// portable across index backends and a reloaded store plans exactly like
// the saver.
//
// Version 2 (written) carries object ids and the store's id counter, so a
// reloaded store resolves WAL records (Remove/Upsert by id) exactly as the
// saver did. Version 1 documents (no ids) still load, with ids assigned
// afresh. Version 3 documents, written while statistics were still
// serialized, load too: their per-layer "stats" member is ignored.

type snapshot struct {
	Version  int         `json:"version"`
	NextID   int64       `json:"next_id,omitempty"` // v2: highest id handed out
	Universe snapBox     `json:"universe"`
	Layers   []snapLayer `json:"layers"`
}

type snapLayer struct {
	Name    string       `json:"name"`
	Objects []snapObject `json:"objects"`
}

type snapObject struct {
	ID    int64     `json:"id,omitempty"` // v2: stable object id
	Name  string    `json:"name,omitempty"`
	Boxes []snapBox `json:"boxes"`
}

type snapBox struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// snapshotVersion is the version Save writes; Load reads it and every
// version up to snapshotMaxVersion.
const (
	snapshotVersion    = 2
	snapshotMaxVersion = 3
)

// Save writes the store's contents as JSON (format version 2: object ids
// and the id counter are preserved across a reload). Save holds the
// store's read guard, so it snapshots a consistent state even while
// writers are active.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := snapshot{
		Version:  snapshotVersion,
		NextID:   s.nextID,
		Universe: toSnapBox(s.universe),
	}
	for _, name := range s.names {
		layer := s.layers[name]
		sl := snapLayer{Name: name}
		for _, o := range layer.Objects() {
			so := snapObject{ID: o.ID, Name: o.Name}
			for _, b := range o.Reg.Boxes() {
				so.Boxes = append(so.Boxes, toSnapBox(b))
			}
			sl.Objects = append(sl.Objects, so)
		}
		snap.Layers = append(snap.Layers, sl)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load reads a snapshot written by Save into a fresh store with the given
// index backend. Version 2 snapshots restore object ids and the id
// counter; version 1 snapshots (written before ids were persisted) load
// with ids assigned afresh in listed order. Each layer is applied in
// ascending id order, whatever order the document lists it in.
func Load(r io.Reader, kind IndexKind) (*Store, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("spatialdb: decoding snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotMaxVersion {
		return nil, fmt.Errorf("spatialdb: unsupported snapshot version %d", snap.Version)
	}
	universe, err := fromSnapBox(snap.Universe)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: universe: %w", err)
	}
	if universe.IsEmpty() {
		return nil, fmt.Errorf("spatialdb: snapshot has an empty universe")
	}
	store := NewStore(universe, kind)
	store.mu.Lock() // the fresh store is private until Load returns
	defer store.mu.Unlock()
	seen := make(map[int64]bool)
	for _, sl := range snap.Layers {
		objs := make([]Object, 0, len(sl.Objects))
		for _, so := range sl.Objects {
			mo := MutObject{ID: so.ID, Name: so.Name, Boxes: make([]bbox.Box, 0, len(so.Boxes))}
			for _, sb := range so.Boxes {
				b, err := fromSnapBox(sb)
				if err != nil {
					return nil, fmt.Errorf("spatialdb: layer %q object %q: %w", sl.Name, so.Name, err)
				}
				mo.Boxes = append(mo.Boxes, b)
			}
			if snap.Version == 1 {
				// v1 carries no ids; assign the next free one.
				mo.ID = store.nextID + int64(len(objs)) + 1
			}
			var err error
			if objs, err = store.loadObject(objs, mo, seen); err != nil {
				return nil, fmt.Errorf("spatialdb: layer %q: %w", sl.Name, err)
			}
		}
		if err := store.loadLayerLocked(sl.Name, objs); err != nil {
			return nil, fmt.Errorf("spatialdb: layer %q: %w", sl.Name, err)
		}
	}
	store.nextID = max(store.nextID, snap.NextID)
	return store, nil
}

// loadObject is both snapshot loaders' step for one object: its id must
// be new to the snapshot (seen holds the ids so far), and newObject builds
// it onto objs.
func (s *Store) loadObject(objs []Object, mo MutObject, seen map[int64]bool) ([]Object, error) {
	if seen[mo.ID] {
		return objs, fmt.Errorf("object %q: duplicate id %d", mo.Name, mo.ID)
	}
	seen[mo.ID] = true
	o, err := s.newObject(0, mo, nil)
	if err != nil {
		return objs, fmt.Errorf("object %q: %w", mo.Name, err)
	}
	return append(objs, o), nil
}

// loadLayerLocked applies one loaded layer in one bulk insert, in the
// ascending id order its slab keeps, whatever order the snapshot lists.
func (s *Store) loadLayerLocked(name string, objs []Object) error {
	slices.SortFunc(objs, func(a, b Object) int { return cmp.Compare(a.ID, b.ID) })
	if err := s.applyMutationLocked(OpBulkInsert, name, objs, 0); err != nil {
		return err
	}
	s.epoch.Add(1)
	return nil
}

func toSnapBox(b bbox.Box) snapBox {
	return snapBox{
		Lo: append([]float64(nil), b.Lo...),
		Hi: append([]float64(nil), b.Hi...),
	}
}

func fromSnapBox(sb snapBox) (bbox.Box, error) {
	return bbox.Make(sb.Lo, sb.Hi)
}
