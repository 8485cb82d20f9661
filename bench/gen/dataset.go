// Package gen makes the benchmark's inputs from a seed: the datasets the
// servers are loaded with and the request streams the clients send. The
// same seed gives byte-identical datasets and streams; the program under
// test sees only what is generated here.
package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// BulkBatch is how many objects one objects:bulk request (and one
// in-process BulkInsert) carries.
const BulkBatch = 10000

// Object is one named region as the boxes that go on the wire.
type Object struct {
	Name  string
	Boxes []bbox.Box
}

// Region returns the object's region, built the way the server builds
// it from the wire boxes.
func (o Object) Region() *region.Region { return region.FromBoxes(2, o.Boxes...) }

// Layer is a named list of objects.
type Layer struct {
	Name    string
	Objects []Object
}

// Dataset is everything a server is loaded with before a run.
type Dataset struct {
	Name     string
	Universe bbox.Box
	Layers   []Layer
}

// Objects returns the total object count.
func (d *Dataset) Objects() int {
	n := 0
	for _, l := range d.Layers {
		n += len(l.Objects)
	}
	return n
}

// UniverseFlag renders the universe for boolqd's -universe flag.
func (d *Dataset) UniverseFlag() string {
	u := d.Universe
	return fmt.Sprintf("%g,%g,%g,%g", u.Lo[0], u.Lo[1], u.Hi[0], u.Hi[1])
}

// round2 keeps two decimals, so wire bodies stay short and every float
// survives the JSON round trip exactly.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func rect(x0, y0, x1, y1 float64) bbox.Box {
	return bbox.Rect(round2(x0), round2(y0), round2(x1), round2(y1))
}

// CitySide is the side of the city universe.
const CitySide = 10000

// City is the large dataset: parcels are small one-box regions, roads
// two-box L-shapes (so the exact filter does real region algebra), zones
// large boxes that each cover many parcels.
func City(seed uint64) *Dataset {
	const parcels, roads, zones = 200000, 40000, 2000
	rng := workload.NewRNG(seed ^ 0xc17)
	d := &Dataset{Name: "city", Universe: bbox.Rect(0, 0, CitySide, CitySide)}
	d.Layers = []Layer{
		{Name: "parcels", Objects: ParcelObjects(rng, parcels, "p")},
		{Name: "roads", Objects: make([]Object, roads)},
		{Name: "zones", Objects: make([]Object, zones)},
	}
	for i := range d.Layers[1].Objects {
		length, width := rng.Range(50, 400), rng.Range(2, 6)
		sx, sy := rng.Range(width, CitySide-width), rng.Range(width, CitySide-width)
		tx := clampTo(sx+signed(rng, length), width, CitySide-width)
		ty := clampTo(sy+signed(rng, length), width, CitySide-width)
		h := rect(math.Min(sx, tx)-width/2, sy-width/2, math.Max(sx, tx)+width/2, sy+width/2)
		v := rect(tx-width/2, math.Min(sy, ty)-width/2, tx+width/2, math.Max(sy, ty)+width/2)
		d.Layers[1].Objects[i] = Object{Name: "r" + strconv.Itoa(i), Boxes: []bbox.Box{h, v}}
	}
	for i := range d.Layers[2].Objects {
		w, h := rng.Range(100, 600), rng.Range(100, 600)
		x, y := rng.Range(0, CitySide-w), rng.Range(0, CitySide-h)
		d.Layers[2].Objects[i] = Object{Name: "z" + strconv.Itoa(i), Boxes: []bbox.Box{rect(x, y, x+w, y+h)}}
	}
	return d
}

// ParcelObjects returns n one-box regions of side 1–12 in the city
// universe, named prefix0..prefix(n-1).
func ParcelObjects(rng *workload.RNG, n int, prefix string) []Object {
	objs := make([]Object, n)
	for i := range objs {
		objs[i] = Object{Name: prefix + strconv.Itoa(i), Boxes: []bbox.Box{ParcelBox(rng)}}
	}
	return objs
}

// ParcelBox draws one parcel-sized box.
func ParcelBox(rng *workload.RNG) bbox.Box {
	w, h := rng.Range(1, 12), rng.Range(1, 12)
	x, y := rng.Range(0, CitySide-w), rng.Range(0, CitySide-h)
	return rect(x, y, x+w, y+h)
}

// IngestPreload is how many parcels the durable-ingest server holds
// before the first write, so checkpoints and recovery have a store of
// some size to write and read whatever the write rate turns out to be.
const IngestPreload = 20000

// Ingest is the preload of the durable-ingest workload.
func Ingest(seed uint64) *Dataset {
	rng := workload.NewRNG(seed ^ 0x1296e57)
	return &Dataset{
		Name:     "ingest",
		Universe: bbox.Rect(0, 0, CitySide, CitySide),
		Layers:   []Layer{{Name: "parcels", Objects: ParcelObjects(rng, IngestPreload, "p")}},
	}
}

// Town is the deliberately tiny dataset: execution over it takes tens of
// microseconds, so on a plan-cache miss compilation dominates the
// request. It is the repo's own generators shrunk: a 2×2-state map and
// an 8/8/8 VLSI layout over the same universe.
func Town(seed uint64) *Dataset {
	m := workload.GenMap(workload.MapConfig{
		Seed: seed, StatesX: 2, StatesY: 2, Towns: 4, Interior: 4, Roads: 8,
	})
	v := workload.GenVLSI(workload.VLSIConfig{Seed: seed + 1, Metal1: 8, Metal2: 8, Vias: 8})
	d := &Dataset{Name: "town", Universe: m.Config.Universe}
	add := func(layer, prefix string, regs ...[]*region.Region) {
		l := Layer{Name: layer}
		for _, rs := range regs {
			for _, r := range rs {
				o := Object{Name: prefix + strconv.Itoa(len(l.Objects))}
				for _, b := range r.Boxes() {
					o.Boxes = append(o.Boxes, rect(b.Lo[0], b.Lo[1], b.Hi[0], b.Hi[1]))
				}
				l.Objects = append(l.Objects, o)
			}
		}
		d.Layers = append(d.Layers, l)
	}
	add("towns", "t", m.Towns, m.Decoys)
	add("roads", "r", m.Roads)
	add("states", "s", m.States)
	add("metal1", "m", v.Metal1)
	add("metal2", "n", v.Metal2)
	add("vias", "v", v.Vias)
	return d
}

func signed(rng *workload.RNG, v float64) float64 {
	if rng.Uint64()&1 == 0 {
		return -v
	}
	return v
}

func clampTo(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// AppendBoxes appends the wire form of a region: [{"lo":[..],"hi":[..]},..].
func AppendBoxes(dst []byte, boxes []bbox.Box) []byte {
	dst = append(dst, '[')
	for i, b := range boxes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"lo":[`...)
		dst = appendFloats(dst, b.Lo)
		dst = append(dst, `],"hi":[`...)
		dst = appendFloats(dst, b.Hi)
		dst = append(dst, `]}`...)
	}
	return append(dst, ']')
}

func appendFloats(dst []byte, vs []float64) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	return dst
}

// BulkBody is one pre-encoded objects:bulk request.
type BulkBody struct {
	Layer   string
	Objects int
	NDJSON  []byte
}

// BulkBodies encodes the dataset as NDJSON bulk requests of at most
// BulkBatch objects, in layer order.
func (d *Dataset) BulkBodies() []BulkBody {
	var out []BulkBody
	for _, l := range d.Layers {
		for lo := 0; lo < len(l.Objects); lo += BulkBatch {
			hi := min(lo+BulkBatch, len(l.Objects))
			var body []byte
			for _, o := range l.Objects[lo:hi] {
				body = append(body, `{"name":"`...)
				body = append(body, o.Name...)
				body = append(body, `","boxes":`...)
				body = AppendBoxes(body, o.Boxes)
				body = append(body, "}\n"...)
			}
			out = append(out, BulkBody{Layer: l.Name, Objects: hi - lo, NDJSON: body})
		}
	}
	return out
}

// Populate loads the dataset into an in-process store with one
// BulkInsert per batch objects of a layer (batch ≤ 0: per whole layer).
// With BulkBatch these are the calls, in the order, that the HTTP bulk
// endpoint makes for BulkBodies — so the index is built the same way and
// object ids match a server loaded over the wire.
func (d *Dataset) Populate(store *spatialdb.Store, batch int) error {
	for _, l := range d.Layers {
		step := batch
		if step <= 0 {
			step = max(len(l.Objects), 1)
		}
		for lo := 0; lo < len(l.Objects); lo += step {
			hi := min(lo+step, len(l.Objects))
			items := make([]spatialdb.BulkItem, 0, hi-lo)
			for _, o := range l.Objects[lo:hi] {
				items = append(items, spatialdb.BulkItem{Name: o.Name, Reg: o.Region()})
			}
			if _, err := store.BulkInsert(l.Name, items, spatialdb.BulkAtomic); err != nil {
				return fmt.Errorf("populating %s/%s: %w", d.Name, l.Name, err)
			}
		}
	}
	return nil
}

// NewStore returns an in-process store loaded the way a server is.
func (d *Dataset) NewStore(kind spatialdb.IndexKind) (*spatialdb.Store, error) {
	store := spatialdb.NewStore(d.Universe, kind)
	return store, d.Populate(store, BulkBatch)
}

// Digest is a hash over the dataset's wire encoding.
func (d *Dataset) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %s\n", d.Name, d.UniverseFlag())
	for _, b := range d.BulkBodies() {
		fmt.Fprintf(h, "%s %d\n", b.Layer, b.Objects)
		h.Write(b.NDJSON)
	}
	return hex.EncodeToString(h.Sum(nil))
}
