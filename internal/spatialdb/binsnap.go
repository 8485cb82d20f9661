package spatialdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/bbox"
)

// The compact binary snapshot format — the production counterpart of the
// JSON codec in persist.go (which stays as the debug/interchange format).
// Unlike JSON it preserves object ids and the id counter exactly, so a
// store restored from it resolves WAL records (Remove/Upsert by id)
// identically to the store that wrote it. Layout (all integers
// little-endian or uvarint, floats as IEEE-754 bit patterns):
//
//	magic    "BQSN"                      4 bytes
//	version  uint16                      1 (written); 2 also read
//	k        uint16                      dimensionality
//	nextID   uint64                      highest object id handed out
//	universe 2·k float64                 lo then hi
//	layers   uvarint count, per layer:
//	  name    string (uvarint len + bytes)
//	  objects uvarint count, per object (ascending id order):
//	    id     uvarint
//	    name   string
//	    boxes  uvarint count, 2·k float64 each (lo then hi)
//	  stats   uvarint len + planner statistics blob   (v2 only; skipped)
//	crc32    uint32 (IEEE) of every preceding byte
//
// Indexes and planner statistics are derived state: both are rebuilt on
// load through the packed bulk path, so binary snapshots are portable
// across index backends and a loaded store plans exactly like the one
// that wrote it. Version 2 snapshots, written while statistics were
// still serialized, load with their per-layer statistics blob skipped.

var binSnapMagic = [4]byte{'B', 'Q', 'S', 'N'}

// binSnapVersion is the version SaveBinary writes; LoadBinary reads it
// and every version up to binSnapMaxVersion.
const (
	binSnapVersion    = 1
	binSnapMaxVersion = 2
)

// SaveBinary writes the store as a binary snapshot under the store's
// read guard, so it captures a consistent state even while writers are
// active.
func (s *Store) SaveBinary(w io.Writer) error {
	return s.SaveBinaryMark(w, nil)
}

// SaveBinaryMark is SaveBinary with a hook: if mark is non-nil it runs
// inside the same read-guard critical section that serializes the state.
// Mutations append their WAL records under the write lock, so the WAL
// checkpointer uses mark to read the last logged position and gets a
// snapshot↔log boundary that is exact, not approximate.
func (s *Store) SaveBinaryMark(w io.Writer, mark func()) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if mark != nil {
		mark()
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	var scratch [binary.MaxVarintLen64]byte // a uvarint id ≥ 2^56 takes 9–10 bytes
	writeU16 := func(v uint16) {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		bw.Write(scratch[:2])
	}
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		bw.Write(scratch[:8])
	}
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	writeFloats := func(vs []float64) {
		for _, v := range vs {
			writeU64(math.Float64bits(v))
		}
	}

	bw.Write(binSnapMagic[:])
	writeU16(binSnapVersion)
	writeU16(uint16(s.universe.K))
	writeU64(uint64(s.nextID))
	writeFloats(s.universe.Lo)
	writeFloats(s.universe.Hi)
	writeUvarint(uint64(len(s.names)))
	for _, name := range s.names {
		l := s.layers[name]
		writeString(name)
		writeUvarint(uint64(len(l.slab)))
		for _, o := range l.slab {
			writeUvarint(uint64(o.ID))
			writeString(o.Name)
			writeUvarint(uint64(o.Reg.NumBoxes()))
			for i := range o.Reg.NumBoxes() {
				b := o.Reg.Box(i)
				writeFloats(b.Lo)
				writeFloats(b.Hi)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("spatialdb: writing binary snapshot: %w", err)
	}
	// The checksum trails everything it covers; write it to w alone.
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := w.Write(scratch[:4]); err != nil {
		return fmt.Errorf("spatialdb: writing binary snapshot: %w", err)
	}
	return nil
}

// LoadBinary reads a snapshot written by SaveBinary into a fresh store
// with the given index backend, verifying the trailing checksum before
// trusting any of the content.
func LoadBinary(r io.Reader, kind IndexKind) (*Store, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: reading binary snapshot: %w", err)
	}
	if len(raw) < len(binSnapMagic)+4 {
		return nil, errors.New("spatialdb: binary snapshot: too short")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("spatialdb: binary snapshot: checksum mismatch (%08x != %08x)", got, want)
	}
	d := &mutDecoder{buf: body}
	var magic [4]byte
	for i := range magic {
		if magic[i], err = d.byte(); err != nil {
			return nil, errors.New("spatialdb: binary snapshot: truncated header")
		}
	}
	if magic != binSnapMagic {
		return nil, fmt.Errorf("spatialdb: binary snapshot: bad magic %q", magic[:])
	}
	version, err := d.u16()
	if err != nil {
		return nil, err
	}
	if version < 1 || version > binSnapMaxVersion {
		return nil, fmt.Errorf("spatialdb: binary snapshot: unsupported version %d", version)
	}
	k16, err := d.u16()
	if err != nil {
		return nil, err
	}
	k := int(k16)
	if k == 0 {
		return nil, errors.New("spatialdb: binary snapshot: zero dimensionality")
	}
	nextID, err := d.u64()
	if err != nil {
		return nil, err
	}
	lo, err := d.floats(k)
	if err != nil {
		return nil, err
	}
	hi, err := d.floats(k)
	if err != nil {
		return nil, err
	}
	universe, err := bbox.Make(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: binary snapshot: universe: %w", err)
	}
	if universe.IsEmpty() {
		return nil, errors.New("spatialdb: binary snapshot: empty universe")
	}
	store := NewStore(universe, kind)
	store.mu.Lock() // the fresh store is private until LoadBinary returns
	defer store.mu.Unlock()
	numLayers, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	seen := make(map[int64]bool)
	for li := uint64(0); li < numLayers; li++ {
		name, err := d.string()
		if err != nil {
			return nil, err
		}
		numObjs, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if numObjs > uint64(len(d.buf)) {
			return nil, fmt.Errorf("spatialdb: binary snapshot: impossible object count %d", numObjs)
		}
		objs := make([]Object, 0, numObjs)
		for oi := uint64(0); oi < numObjs; oi++ {
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			oname, err := d.string()
			if err != nil {
				return nil, err
			}
			numBoxes, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if numBoxes > uint64(len(d.buf)) {
				return nil, fmt.Errorf("spatialdb: binary snapshot: impossible box count %d", numBoxes)
			}
			mo := MutObject{ID: int64(id), Name: oname, Boxes: make([]bbox.Box, 0, numBoxes)}
			for bi := uint64(0); bi < numBoxes; bi++ {
				blo, err := d.floats(k)
				if err != nil {
					return nil, err
				}
				bhi, err := d.floats(k)
				if err != nil {
					return nil, err
				}
				b, err := bbox.Make(blo, bhi)
				if err != nil {
					return nil, fmt.Errorf("spatialdb: binary snapshot: layer %q object %q: %w", name, oname, err)
				}
				mo.Boxes = append(mo.Boxes, b)
			}
			if objs, err = store.loadObject(objs, mo, seen); err != nil {
				return nil, fmt.Errorf("spatialdb: binary snapshot: layer %q: %w", name, err)
			}
		}
		if err := store.loadLayerLocked(name, objs); err != nil {
			return nil, fmt.Errorf("spatialdb: binary snapshot: layer %q: %w", name, err)
		}
		if version >= 2 {
			blobLen, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if blobLen > uint64(len(d.buf)) {
				return nil, fmt.Errorf("spatialdb: binary snapshot: impossible stats length %d", blobLen)
			}
			d.buf = d.buf[blobLen:]
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("spatialdb: binary snapshot: %d trailing bytes", len(d.buf))
	}
	store.nextID = max(store.nextID, int64(nextID))
	return store, nil
}

// ---- little decoder extensions for the fixed-width snapshot fields ----

func (d *mutDecoder) u16() (uint16, error) {
	if len(d.buf) < 2 {
		return 0, errShortRecord
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v, nil
}

func (d *mutDecoder) u64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, errShortRecord
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *mutDecoder) floats(k int) ([]float64, error) {
	if len(d.buf) < 8*k {
		return nil, errShortRecord
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
		d.buf = d.buf[8:]
		if math.IsNaN(out[i]) {
			return nil, errors.New("spatialdb: binary snapshot: NaN coordinate")
		}
	}
	return out, nil
}
