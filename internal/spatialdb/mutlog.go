package spatialdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bbox"
	"repro/internal/region"
)

// This file is the store side of the durable write path (DESIGN.md §6):
// every mutating entry point (Insert, Upsert, Remove, CreateLayer,
// BulkInsert) already funnels through one epoch-bumping critical section,
// and here each of them also emits a Mutation — a self-contained,
// replayable description of what changed, carrying the assigned object
// ids — to an optional sink. internal/wal appends the encoded records to
// an append-only log and feeds them back through ApplyReplicated on
// recovery; the same record stream is what a read replica applies. Local
// writes and applied records change layers through one function,
// applyMutationLocked, and build objects through one validator,
// newObject.

// MutOp identifies a mutation record type.
type MutOp uint8

// Mutation record types. The numeric values are the on-disk encoding;
// never renumber them.
const (
	OpCreateLayer MutOp = 1 // layer created (no objects)
	OpInsert      MutOp = 2 // one object inserted
	OpUpsert      MutOp = 3 // one object replacing any same-named one
	OpRemove      MutOp = 4 // one object removed, by id
	OpBulkInsert  MutOp = 5 // a batch of objects inserted atomically
)

// String returns the record type name.
func (op MutOp) String() string {
	switch op {
	case OpCreateLayer:
		return "create_layer"
	case OpInsert:
		return "insert"
	case OpUpsert:
		return "upsert"
	case OpRemove:
		return "remove"
	case OpBulkInsert:
		return "bulk_insert"
	default:
		return fmt.Sprintf("MutOp(%d)", uint8(op))
	}
}

// MutObject is one object of a mutation record: the id the store
// assigned, the name, and the region as its disjoint box list.
type MutObject struct {
	ID    int64
	Name  string
	Boxes []bbox.Box
}

// Mutation is one replayable store mutation. Objects is the single
// affected object for OpInsert/OpUpsert and the inserted batch (only the
// objects that were actually inserted, in batch order) for OpBulkInsert;
// RemoveID identifies the object for OpRemove.
type Mutation struct {
	Op       MutOp
	Layer    string
	Objects  []MutObject
	RemoveID int64
}

// ErrDurability wraps sink failures: the mutation was applied in memory
// but could not be durably logged. Callers should surface it as a server
// error, not a client error; the in-memory state stays ahead of the log
// until the next successful append or checkpoint.
var ErrDurability = errors.New("spatialdb: mutation not durably logged")

// ErrDegraded marks degraded read-only mode: the durable write path is
// down and being repaired in the background, so mutations are rejected —
// before touching memory — while reads keep serving. Callers should
// surface it as 503 + Retry-After, distinct from ErrDurability's 500: the
// condition is expected to clear without operator action. The sink wraps
// ErrDegraded into the error of the mutation that triggered the
// transition, so that one (which WAS applied in memory) matches both
// ErrDurability and ErrDegraded.
var ErrDegraded = errors.New("spatialdb: store is degraded to read-only")

// ErrReplica marks replica mode: the store applies its primary's record
// stream and nothing else, so local mutations are rejected before they
// touch memory. Callers should surface it as 503 plus the primary's
// address (the client's write belongs there), distinct from ErrDegraded:
// a replica is healthy, it is just not the writer.
var ErrReplica = errors.New("spatialdb: store is a read-only replica")

// SetDegraded flips the store's degraded read-only gate. The durable
// write path (internal/wal) raises it when WAL retries are exhausted and
// lowers it after its recovery probe has re-armed the log and
// reconciled state; while raised, every mutating entry point fails with
// ErrDegraded without applying anything, so no further memory/log
// divergence accrues.
func (s *Store) SetDegraded(on bool) { s.degraded.Store(on) }

// Degraded reports whether the degraded read-only gate is raised.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// SetReplica raises the replica gate: local mutating entry points fail
// with ErrReplica while shipped records keep applying through
// ApplyReplicated. internal/repl raises it on a store built from the
// primary's snapshot and lowers it on promotion.
func (s *Store) SetReplica(on bool) { s.replica.Store(on) }

// IsReplica reports whether the replica gate is raised.
func (s *Store) IsReplica() bool { return s.replica.Load() }

// admitMutationLocked is the admission gate every LOCAL mutating entry
// point passes before changing state: a replica rejects the write
// outright (it belongs on the primary), and while the store is degraded
// the mutation is rejected up front, keeping memory and log convergent
// during repair. The replicated-apply path (ApplyReplicated) must NOT
// pass this gate — shipped records keep applying in both modes. The
// caller must hold the write lock (the gate must be ordered against the
// SetDegraded(true) a failing sink call triggers under that lock).
//
//boolq:locked mu
func (s *Store) admitMutationLocked() error {
	if s.replica.Load() {
		return ErrReplica
	}
	if s.degraded.Load() {
		return ErrDegraded
	}
	return nil
}

// SetMutationSink installs fn as the store's mutation sink. fn is invoked
// inside the mutating critical section (the store's write lock), after
// the mutation has been applied and the epoch bumped, so the sink
// observes mutations in exactly apply order and may safely keep
// single-threaded state (e.g. an encode buffer). A non-nil error from fn
// is wrapped in ErrDurability and returned to the mutating caller.
// Passing nil detaches the sink.
func (s *Store) SetMutationSink(fn func(*Mutation) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = fn
}

// logMutation hands m to the sink, if any. The caller must hold the
// write lock.
//
//boolq:locked mu
func (s *Store) logMutation(m *Mutation) error {
	if s.sink == nil {
		return nil
	}
	if err := s.sink(m); err != nil {
		// %w twice: a sink failure that degraded the store must keep
		// matching ErrDegraded through the ErrDurability wrap.
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// mutObject converts a stored object to its record form.
func mutObject(o Object) MutObject {
	return MutObject{ID: o.ID, Name: o.Name, Boxes: o.Reg.Boxes()}
}

// ---- apply ----

// ApplyReplicated applies one logged record to the store without
// re-logging it: WAL recovery replays the log tail through it, and a
// replica applies its primary's record stream the same way. Object ids
// are restored exactly as recorded, so ids stay stable across restarts
// and later records (OpRemove, OpUpsert) resolve against the same
// objects they were logged against.
//
// Replay is deterministic: applied to the state the record was logged
// against, it reproduces the original effect down to ids and NextID. A
// record that does not fit the store — wrong dimensionality, a NaN
// coordinate, an empty region, a box outside the universe, ids not
// ascending above NextID, a missing remove target — reports an error and
// leaves the store unchanged.
//
// It bypasses admitMutationLocked — the gate exists to turn LOCAL writes
// away, while shipped records must keep applying in replica mode — and
// it never re-logs, because the record is already durable.
//
//boolq:mutation replica
func (s *Store) ApplyReplicated(m *Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if (m.Op == OpInsert || m.Op == OpUpsert) && len(m.Objects) != 1 {
		return fmt.Errorf("spatialdb: apply %s %q: %d objects, want 1", m.Op, m.Layer, len(m.Objects))
	}
	objs := make([]Object, 0, len(m.Objects))
	after := s.nextID
	for _, mo := range m.Objects {
		o, err := s.newObject(after, mo, nil)
		if err != nil {
			return fmt.Errorf("spatialdb: apply %s %q/%q: %w", m.Op, m.Layer, mo.Name, err)
		}
		objs = append(objs, o)
		after = o.ID
	}
	if err := s.applyMutationLocked(m.Op, m.Layer, objs, m.RemoveID); err != nil {
		return fmt.Errorf("spatialdb: apply %s %q: %w", m.Op, m.Layer, err)
	}
	s.epoch.Add(1)
	return nil
}

// newObject validates one object against the store and builds it; it is
// the only place an Object is made. The id must exceed after: local
// writes and records pass the store's id counter (and, within a batch,
// the previous object's id), so ids ascend above every id in the store;
// the snapshot loaders pass 0 and check uniqueness themselves. Every box
// must have the store's dimensionality and no NaN coordinate, the region
// they cover must be non-empty, and its bounding box must lie inside the
// universe (closed containment, as zorder.Index.Insert checks): the
// paper's regions are elements of the universe's Boolean algebra, and
// the §4 box bounds assume it, so an object reaching outside could be
// missed by a planned run that the naive executor finds.
//
// reg is the object's region when the caller built one (the local write
// paths): the object keeps it, since a Region is immutable, and its boxes
// are what is checked. Records and snapshots pass nil, and the region is
// built from mo.Boxes once they have passed the dimension and NaN checks.
// Either way the region is built once and checked once.
func (s *Store) newObject(after int64, mo MutObject, reg *region.Region) (Object, error) {
	if mo.ID <= after {
		return Object{}, fmt.Errorf("object id %d not above %d", mo.ID, after)
	}
	if reg == nil {
		for _, b := range mo.Boxes {
			if err := s.checkBox(b); err != nil {
				return Object{}, err
			}
		}
		reg = region.FromBoxes(s.universe.K, mo.Boxes...)
	} else {
		for i := range reg.NumBoxes() {
			if err := s.checkBox(reg.Box(i)); err != nil {
				return Object{}, err
			}
		}
	}
	if reg.IsEmpty() {
		return Object{}, errors.New("empty region")
	}
	box := reg.BoundingBox()
	if !s.universe.Contains(box) {
		return Object{}, fmt.Errorf("bounding box %v outside the universe %v", box, s.universe)
	}
	return Object{ID: mo.ID, Name: mo.Name, Reg: reg, Box: box}, nil
}

// checkBox is newObject's test of one box: the store's dimensionality and
// no NaN coordinate.
func (s *Store) checkBox(b bbox.Box) error {
	if b.K != s.universe.K {
		return fmt.Errorf("box dimensionality %d in a %d-dimensional store", b.K, s.universe.K)
	}
	for i := range b.Lo {
		if math.IsNaN(b.Lo[i]) || math.IsNaN(b.Hi[i]) {
			return errors.New("NaN coordinate")
		}
	}
	return nil
}

// applyMutationLocked is the one function that changes a layer's
// contents: the local entry points, ApplyReplicated and both snapshot
// loaders all apply through it. op acts on the named layer with objs,
// built by newObject in ascending id order, or, for OpRemove, on the
// object removeID. A layer it creates is installed only when it
// succeeds; an upsert inserts the new object before it removes the one it
// replaces. nextID rises to the largest id applied. On error the store is
// exactly as it was. The caller admits, bumps the epoch and logs.
//
//boolq:locked mu
func (s *Store) applyMutationLocked(op MutOp, name string, objs []Object, removeID int64) error {
	l, existed := s.layers[name]
	if !existed {
		if op == OpRemove {
			return fmt.Errorf("no layer %q", name)
		}
		l = newLayer(name, s.universe.K, s.kind, s.universe)
	}
	switch op {
	case OpCreateLayer:
	case OpRemove:
		if err := l.remove(removeID); err != nil {
			return err
		}
	case OpInsert, OpUpsert, OpBulkInsert:
		var prev Object
		replacing := false
		if op == OpUpsert {
			prev, replacing = l.GetByName(objs[0].Name)
		}
		if err := l.bulkInsert(objs); err != nil {
			return err
		}
		if replacing {
			if err := l.remove(prev.ID); err != nil {
				return err // unreachable: the layer held prev a moment ago
			}
		}
		if n := len(objs); n > 0 {
			s.nextID = max(s.nextID, objs[n-1].ID)
		}
	default:
		return fmt.Errorf("unknown mutation op %d", op)
	}
	if !existed {
		s.layers[name] = l
		s.names = append(s.names, name)
	}
	return nil
}

// NextID returns the highest object id the store has applied; the next
// local write takes NextID()+1. Snapshots persist it so ids of removed
// objects never repeat across restarts.
func (s *Store) NextID() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// ---- binary record codec ----
//
// A mutation encodes as:
//
//	op        uint8
//	layer     string        (uvarint length + bytes)
//	payload   op-dependent:
//	  create_layer              (nothing)
//	  insert | upsert           one object
//	  bulk_insert               uvarint count, then objects
//	  remove                    uvarint id
//
// and an object as:
//
//	id        uvarint
//	name      string
//	boxes     uvarint count, then per box:
//	            k     uvarint
//	            lo,hi 2·k little-endian float64 bit patterns
//
// The framing (length prefix, CRC) is the WAL's job; this codec only
// defines the payload. Decode rejects trailing bytes, so a corrupted
// record cannot silently drop its tail.

// AppendMutation appends the binary encoding of m to dst and returns the
// extended slice.
func AppendMutation(dst []byte, m *Mutation) []byte {
	dst = append(dst, byte(m.Op))
	dst = appendString(dst, m.Layer)
	switch m.Op {
	case OpCreateLayer:
	case OpInsert, OpUpsert:
		dst = appendMutObject(dst, m.Objects[0])
	case OpBulkInsert:
		dst = binary.AppendUvarint(dst, uint64(len(m.Objects)))
		for _, mo := range m.Objects {
			dst = appendMutObject(dst, mo)
		}
	case OpRemove:
		dst = binary.AppendUvarint(dst, uint64(m.RemoveID))
	}
	return dst
}

// DecodeMutation parses one encoded mutation. It is strict: unknown ops,
// malformed varints, impossible counts and trailing bytes are all errors
// (the WAL's CRC has already vouched for the bytes; a decode failure
// means a format bug or version skew, not disk corruption).
func DecodeMutation(data []byte) (*Mutation, error) {
	d := &mutDecoder{buf: data}
	m := &Mutation{}
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	m.Op = MutOp(op)
	if m.Layer, err = d.string(); err != nil {
		return nil, err
	}
	switch m.Op {
	case OpCreateLayer:
	case OpInsert, OpUpsert:
		mo, err := d.object()
		if err != nil {
			return nil, err
		}
		m.Objects = []MutObject{mo}
	case OpBulkInsert:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(d.buf)) { // each object takes ≥ 1 byte
			return nil, fmt.Errorf("spatialdb: mutation record: impossible object count %d", n)
		}
		m.Objects = make([]MutObject, 0, n)
		for i := uint64(0); i < n; i++ {
			mo, err := d.object()
			if err != nil {
				return nil, err
			}
			m.Objects = append(m.Objects, mo)
		}
	case OpRemove:
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		m.RemoveID = int64(id)
	default:
		return nil, fmt.Errorf("spatialdb: mutation record: unknown op %d", op)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("spatialdb: mutation record: %d trailing bytes", len(d.buf))
	}
	return m, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendMutObject(dst []byte, mo MutObject) []byte {
	dst = binary.AppendUvarint(dst, uint64(mo.ID))
	dst = appendString(dst, mo.Name)
	dst = binary.AppendUvarint(dst, uint64(len(mo.Boxes)))
	for _, b := range mo.Boxes {
		dst = binary.AppendUvarint(dst, uint64(b.K))
		for _, v := range b.Lo {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		for _, v := range b.Hi {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// mutDecoder is a cursor over an encoded record.
type mutDecoder struct{ buf []byte }

var errShortRecord = errors.New("spatialdb: mutation record: truncated")

func (d *mutDecoder) byte() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errShortRecord
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *mutDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errShortRecord
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *mutDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", errShortRecord
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}

func (d *mutDecoder) object() (MutObject, error) {
	var mo MutObject
	id, err := d.uvarint()
	if err != nil {
		return mo, err
	}
	mo.ID = int64(id)
	if mo.Name, err = d.string(); err != nil {
		return mo, err
	}
	nb, err := d.uvarint()
	if err != nil {
		return mo, err
	}
	if nb > uint64(len(d.buf)) {
		return mo, fmt.Errorf("spatialdb: mutation record: impossible box count %d", nb)
	}
	mo.Boxes = make([]bbox.Box, 0, nb)
	for i := uint64(0); i < nb; i++ {
		k, err := d.uvarint()
		if err != nil {
			return mo, err
		}
		if k > uint64(len(d.buf))/16 { // 16·k could wrap
			return mo, errShortRecord
		}
		lo := make([]float64, k)
		hi := make([]float64, k)
		for j := range lo {
			lo[j] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
			d.buf = d.buf[8:]
		}
		for j := range hi {
			hi[j] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
			d.buf = d.buf[8:]
		}
		b, err := bbox.Make(lo, hi)
		if err != nil {
			return mo, fmt.Errorf("spatialdb: mutation record: %w", err)
		}
		mo.Boxes = append(mo.Boxes, b)
	}
	return mo, nil
}
