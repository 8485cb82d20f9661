package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bbox"
	"repro/internal/race"
	"repro/internal/region"
	"repro/internal/spatialdb"
)

// bulkObject is one object of a POST /layers/{layer}/objects:bulk body
// (an element of the JSON array, or one NDJSON line) as encoding/json
// sees it: the reference decoder's type, and the tests' way to write one.
type bulkObject struct {
	Name  string    `json:"name"`
	Boxes []jsonBox `json:"boxes"`
}

// refObject is one object the reference decoder read: its name and the
// result of converting its boxes.
type refObject struct {
	name string
	reg  *region.Region
	err  error
}

// refDecodeBulk is the objects:bulk decoder the handler used before it
// had its own: encoding/json with DisallowUnknownFields over the array or
// NDJSON form (chosen by the first non-space byte), then
// jsonRegion.toRegion per object. It ignored anything after an array's
// closing bracket; trailing reports whether there was any.
func refDecodeBulk(body []byte, k int) (objs []refObject, trailing bool, err error) {
	rest := bytes.TrimLeft(body, " \t\r\n")
	if len(rest) == 0 {
		return nil, false, nil
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	add := func(bo bulkObject) {
		reg, err := jsonRegion{Boxes: bo.Boxes}.toRegion(k)
		objs = append(objs, refObject{name: bo.Name, reg: reg, err: err})
	}
	if rest[0] == '[' {
		if _, err := dec.Token(); err != nil {
			return nil, false, err
		}
		for dec.More() {
			var bo bulkObject
			if err := dec.Decode(&bo); err != nil {
				return nil, false, err
			}
			add(bo)
		}
		if _, err := dec.Token(); err != nil {
			return nil, false, err
		}
		tail := bytes.TrimLeft(rest[dec.InputOffset():], " \t\r\n")
		return objs, len(tail) > 0, nil
	}
	for {
		var bo bulkObject
		if err := dec.Decode(&bo); err == io.EOF {
			return objs, false, nil
		} else if err != nil {
			return nil, false, err
		}
		add(bo)
	}
}

// refDecodeRegion is the PUT object body's former decoder: one JSON
// value into a jsonRegion with DisallowUnknownFields, then toRegion.
// trailing reports data after the value, which it ignored.
func refDecodeRegion(body []byte, k int) (reg *region.Region, regErr error, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var jr jsonRegion
	if err := dec.Decode(&jr); err != nil {
		return nil, nil, false, err
	}
	tail := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")
	reg, regErr = jr.toRegion(k)
	return reg, regErr, len(tail) > 0, nil
}

// sameRegion reports whether two decoded regions (or refusals) agree:
// the same refusal text, or the same boxes bit for bit.
func sameRegion(a *region.Region, aErr error, b *region.Region, bErr error) string {
	if (aErr == nil) != (bErr == nil) || aErr != nil && aErr.Error() != bErr.Error() {
		return fmt.Sprintf("refusals differ: %v vs %v", aErr, bErr)
	}
	if aErr != nil {
		return ""
	}
	ab, bb := a.Boxes(), b.Boxes()
	if a.K() != b.K() || len(ab) != len(bb) {
		return fmt.Sprintf("regions differ: %v vs %v", a, b)
	}
	for i := range ab {
		for j := range ab[i].Lo {
			if math.Float64bits(ab[i].Lo[j]) != math.Float64bits(bb[i].Lo[j]) ||
				math.Float64bits(ab[i].Hi[j]) != math.Float64bits(bb[i].Hi[j]) {
				return fmt.Sprintf("box %d differs: %v vs %v", i, ab[i], bb[i])
			}
		}
	}
	return ""
}

// refusedForm reads body as a sequence of JSON values with encoding/json's
// own tokenizer and names the first form in it that the strict grammar
// refuses although encoding/json accepts it: a null, a key repeated
// within one object, or a key other than name, boxes, lo and hi (which,
// in a body encoding/json accepts with DisallowUnknownFields, is one of
// them case-folded). It returns "" if there is none before the first
// token error.
func refusedForm(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	type object struct {
		keys    map[string]bool
		wantKey bool
	}
	var open []*object // the open containers, nil for an array
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		var top *object
		if len(open) > 0 {
			top = open[len(open)-1]
		}
		if key, ok := tok.(string); ok && top != nil && top.wantKey {
			switch {
			case top.keys[key]:
				return "repeated key " + strconv.Quote(key)
			case key != "name" && key != "boxes" && key != "lo" && key != "hi":
				return "key " + strconv.Quote(key)
			}
			top.keys[key], top.wantKey = true, false
			continue
		}
		if top != nil {
			top.wantKey = true // a value started; a key comes next
		}
		switch tok {
		case nil:
			return "null"
		case json.Delim('{'):
			open = append(open, &object{keys: map[string]bool{}, wantKey: true})
		case json.Delim('['):
			open = append(open, nil)
		case json.Delim('}'), json.Delim(']'):
			open = open[:len(open)-1]
		}
	}
}

// checkAgainstReference decodes body as a bulk body and as a PUT body
// with the server's decoders and the references, and fails t unless each
// decoder accepts the body if and only if its reference does, finds no
// data after the value, and refusedForm finds none of the refused forms;
// an accepted body must decode to the reference's names and regions.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	const k = 2
	form := refusedForm(body)
	want, trailing, werr := refDecodeBulk(body, k)
	got, gerr := decodeBulk(body, k)
	switch {
	case werr != nil || trailing || form != "":
		if gerr == nil {
			t.Fatalf("bulk %q: accepted %d objects; reference: error %v, trailing data %v, refused form %q", body, len(got), werr, trailing, form)
		}
	case gerr != nil:
		t.Fatalf("bulk %q: refused (%v); reference accepts %d objects", body, gerr, len(want))
	case len(got) != len(want):
		t.Fatalf("bulk %q: %d objects, reference %d", body, len(got), len(want))
	default:
		for i := range want {
			if got[i].name != want[i].name {
				t.Fatalf("bulk %q: object %d named %q, reference %q", body, i, got[i].name, want[i].name)
			}
			if d := sameRegion(got[i].reg, got[i].err, want[i].reg, want[i].err); d != "" {
				t.Fatalf("bulk %q: object %d: %s", body, i, d)
			}
		}
	}

	wreg, wregErr, trailing, werr := refDecodeRegion(body, k)
	greg, gregErr, gerr := decodeRegionBody(body, k)
	switch {
	case werr != nil || trailing || form != "":
		if gerr == nil {
			t.Fatalf("region %q: accepted; reference: error %v, trailing data %v, refused form %q", body, werr, trailing, form)
		}
	case gerr != nil:
		t.Fatalf("region %q: refused (%v); the reference accepts it", body, gerr)
	default:
		if d := sameRegion(greg, gregErr, wreg, wregErr); d != "" {
			t.Fatalf("region %q: %s", body, d)
		}
	}
}

// wireRefused are bodies that both decoders must refuse: encoding/json
// accepted most of them, matching keys case-insensitively, reading null
// as "leave the field as it was" and decoding a repeated key into what
// the earlier one left.
var wireRefused = []string{
	// case-insensitive keys, folded as encoding/json folds them (ſ is s)
	`{"NAME":"a","Boxes":[{"LO":[1,2],"hI":[3,4]}]}`,
	`{"Name":"a"}`,
	`{"BOXES":[]}`,
	`{"boxes":[{"LO":[1,2],"hi":[3,4]}]}`,
	`{"boxes":[{"lo":[1,2],"hI":[3,4]}]}`,
	`{"name":"s","boxeſ":[{"lo":[1,2],"hi":[3,4]}]}`,
	`{"n\u0061me":"e","bo\u0078eſ":[{"L\u004f":[1,2],"hi":[3,4]}]}`,
	`{"nam":"x"}`,
	`{"names":"x"}`,
	`{"name":"k","boxes":[{"lo":[1,2],"hi":[3,4],"hi\u0000":[1]}]}`,
	// null fields and null array elements
	`{"name":null,"boxes":null}`,
	`{"boxes":[null]}`,
	`{"boxes":[{"lo":[1,null],"hi":[null,4]}]}`,
	`{"boxes":[{"lo":null,"hi":[3,4]}]}`,
	`[null]`,
	`null`,
	`null null {"name":"n"}`,
	// duplicate keys: the second decode lands on what the first left
	`{"name":"a","name":"b","name":null}`,
	`{"boxes":[{"lo":[1,2],"hi":[3,4]},{"lo":[5,5],"hi":[6,6]}],"boxes":[{"hi":[7,8]}]}`,
	`{"boxes":[{"lo":[1,2],"hi":[3,4]},{"lo":[5,5],"hi":[6,6]}],"boxes":[{"hi":[7,8]}],"boxes":[null,null]}`,
	`{"boxes":[{"lo":[1,2,3],"lo":[4],"lo":[null,null],"hi":[5,6]}]}`,
	`{"boxes":[{"lo":[1],"lo":[null,null],"hi":[5,6]}]}`,
	`{"boxes":[{"lo":[1,2],"hi":[3,4]}],"boxes":[],"boxes":[null]}`,
	`{"boxes":[{"lo":[1,2],"lo":[],"lo":[null,7],"hi":[5,8]}]}`,
	`{"name":"a","boxes":[],"name":"b"}`,
	`{"boxes":[{"lo":[1,2],"hi":[3,4],"lo":[0,0]}]}`,
}

// wireQuirks are bodies on which encoding/json behaves in ways a
// hand-written decoder could easily miss.
var wireQuirks = []string{
	// keys spelled with escapes
	`{"n\u0061me":"e","bo\u0078es":[{"l\u006f":[1,2],"\u0068i":[3,4]}]}`,
	// escapes and invalid UTF-8 in names
	`{"name":"a\"\\\/\b\f\n\r\té😀"}`,
	`{"name":"\ud800x\udc00\ud800A\ud83d😀"}`,
	"{\"name\":\"\xff\xe2\x82\xed\xa0\x80ok\"}",
	"{\"name\":\"tab\there\"}",
	`{"name":"\x"}`,
	`{"name":"\u12g4"}`,
	// -0, out-of-range floats, exponent forms, the number grammar
	`{"name":"z","boxes":[{"lo":[-0,0e0],"hi":[1E+2,2.5e-3]}]}`,
	`{"boxes":[{"lo":[1e400,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[-1e-400,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[0.1,0.2],"hi":[123456789012345678901234567890,1.7976931348623157e308]}]}`,
	`{"boxes":[{"lo":[01,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[1.,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[.5,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[+1,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[-,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":[1e,0],"hi":[1,1]}]}`,
	`{"boxes":[{"lo":["1",0],"hi":[1,1]}]}`,
	// per-object region refusals
	`{"name":"inv","boxes":[{"lo":[5,5],"hi":[1,9]}]}`,
	`{"name":"3d","boxes":[{"lo":[1,1,1],"hi":[2,2,2]}]}`,
	`{"name":"flat","boxes":[{"lo":[1,1],"hi":[1,5]}]}`,
	// type errors and unknown fields
	`{"name":1}`,
	`{"boxes":{}}`,
	`{"boxes":[[1,2]]}`,
	`{"name":"x","boxes":[],"extra":1}`,
	`[1]`,
	`"str"`,
	// both body forms, separators and trailing data
	`[{"name":"a","boxes":[{"lo":[1,1],"hi":[2,2]}]},{"name":"b","boxes":[{"lo":[3,3],"hi":[4,4]}]}]`,
	"{\"name\":\"a\"}{\"name\":\"b\"}\n\r\t {\"name\":\"c\"}",
	`[{"name":"a"}][{"name":"b"}]`,
	`[{"name":"a"}] garbage {`,
	`[{"name":"a"}]   ` + "\n",
	`{"boxes":[]} x`,
	`[{"name":"a"},]`,
	`[,{"name":"a"}]`,
	`[{"name":"a"}}`,
	`[{"name":"a"} {"name":"b"}]`,
	`[]`,
	`[`,
	` `,
	``,
}

func TestBulkDecodeRefusesQuirks(t *testing.T) {
	for _, body := range wireRefused {
		if _, err := decodeBulk([]byte(body), 2); err == nil {
			t.Errorf("bulk %q: accepted", body)
		}
		if _, _, err := decodeRegionBody([]byte(body), 2); err == nil {
			t.Errorf("region %q: accepted", body)
		}
	}
}

func TestBulkDecodeMatchesReference(t *testing.T) {
	for _, body := range slices.Concat(wireRefused, wireQuirks) {
		checkAgainstReference(t, []byte(body))
		// and every truncation of it
		for n := range len(body) {
			checkAgainstReference(t, []byte(body[:n]))
		}
	}
}

// FuzzBulkDecode holds the bulk and PUT body decoders to encoding/json
// (refDecodeBulk, refDecodeRegion): they accept a body if and only if the
// reference accepts it, with no data after the value, and refusedForm
// finds no null, repeated key or case-folded key in it; on every body
// they accept, they give the reference's names, the same refusal per
// object and bit-identical boxes.
func FuzzBulkDecode(f *testing.F) {
	for _, body := range slices.Concat(wireRefused, wireQuirks) {
		f.Add([]byte(body))
	}
	f.Add([]byte(bulkBodyJSON(3)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestTrailingDataRefused pins that every body decoder refuses data after
// the body's JSON value; they once decoded the first value and dropped
// the rest without a word.
func TestTrailingDataRefused(t *testing.T) {
	s, m := newTestServer(t)
	obj := `{"name":"t1","boxes":[{"lo":[1,1],"hi":[2,2]}]}`
	query, _ := json.Marshal(smugglerRequest(m))
	batch, _ := json.Marshal(batchQueryRequest{Queries: []queryRequest{smugglerRequest(m)}})
	for _, c := range []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/layers/towns/objects:bulk", "[" + obj + "][" + obj + "]", http.StatusBadRequest},
		{http.MethodPost, "/layers/towns/objects:bulk", "[" + obj + "] garbage {", http.StatusBadRequest},
		{http.MethodPost, "/layers/towns/objects:bulk", "[" + obj + "] \n", http.StatusOK},
		{http.MethodPut, "/layers/towns/objects/t2", `{"boxes":[{"lo":[1,1],"hi":[2,2]}]} {}`, http.StatusBadRequest},
		{http.MethodPut, "/layers/towns/objects/t2", `{"boxes":[{"lo":[1,1],"hi":[2,2]}]}]`, http.StatusBadRequest},
		{http.MethodPut, "/layers/towns/objects/t2", `{"boxes":[{"lo":[1,1],"hi":[2,2]}]}` + "\n", http.StatusCreated},
		{http.MethodPost, "/query", string(query) + " {}", http.StatusBadRequest},
		{http.MethodPost, "/query", string(query) + "x", http.StatusBadRequest},
		{http.MethodPost, "/query/batch", string(batch) + "]", http.StatusBadRequest},
		{http.MethodPost, "/query/batch", string(batch) + " \r\n", http.StatusOK},
	} {
		w := rawRequest(s, c.method, c.path, "application/json", c.body)
		if w.Code != c.status {
			t.Errorf("%s %s %q: status %d, want %d: %s", c.method, c.path, c.body, w.Code, c.status, w.Body.String())
		}
	}
	if got := s.Store().Layer("towns").Len(); got != len(m.Towns)+len(m.Decoys)+2 {
		t.Errorf("towns holds %d objects, want the map's %d plus t1 and t2", got, len(m.Towns)+len(m.Decoys))
	}
}

// TestStrictBodiesRefused sends a body with a case-folded key, a null
// and a repeated key through Server.Handler() as a PUT body and as an
// objects:bulk body in array and NDJSON form: each must answer 400 and
// store nothing, leaving the layer's object count and the store's epoch
// as they were.
func TestStrictBodiesRefused(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.Handler()
	send := func(method, path, body string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code
	}
	const bulk = "/layers/towns/objects:bulk"
	for _, c := range []struct{ form, obj string }{
		{"case-folded key", `{"name":"q","boxes":[{"lo":[1,1],"HI":[2,2]}]}`},
		{"null", `{"name":"q","boxes":[{"lo":[1,1],"hi":[2,2]},null]}`},
		{"repeated key", `{"name":"q","boxes":[{"lo":[1,1],"hi":[2,2],"hi":[3,3]}]}`},
	} {
		put := strings.Replace(c.obj, `"name":"q",`, "", 1)
		for _, r := range []struct{ method, path, body string }{
			{http.MethodPut, "/layers/towns/objects/q", put},
			{http.MethodPost, bulk, "[" + c.obj + "]"},
			{http.MethodPost, bulk, c.obj + "\n"},
		} {
			store := s.Store()
			n, epoch := store.Layer("towns").Len(), store.Epoch()
			if code := send(r.method, r.path, r.body); code != http.StatusBadRequest {
				t.Errorf("%s: %s %s %q: status %d, want 400", c.form, r.method, r.path, r.body, code)
			}
			if got := store.Layer("towns").Len(); got != n || store.Epoch() != epoch {
				t.Errorf("%s: %s %s: %d objects at epoch %d, want %d at %d", c.form, r.method, r.path, got, store.Epoch(), n, epoch)
			}
		}
	}
	if code := send(http.MethodPost, bulk, `{"name":"q","boxes":[{"lo":[1,1],"hi":[2,2]}]}`); code != http.StatusOK {
		t.Errorf("the strict form of the body: status %d, want 200", code)
	}
}

// ndjsonObjects renders n one-box objects in a 1000×1000 universe as the
// NDJSON body a bulk load sends.
func ndjsonObjects(n int) string {
	var sb strings.Builder
	for i := range n {
		x := float64(i%100) * 9.25
		y := float64(i/100%100) * 9.5
		fmt.Fprintf(&sb, `{"name":"p%d","boxes":[{"lo":[%g,%g],"hi":[%g,%g]}]}`+"\n", i, x, y, x+3.5, y+4.125)
	}
	return sb.String()
}

// TestBulkDecodeAllocs pins the allocations per object of a 10,000-object
// NDJSON bulk load into a fresh layer through Server.Handler(): reading,
// decoding, building and storing (a packed R-tree build). With
// encoding/json into []jsonBox, toRegion and a second region build in the
// store it took 18.5 per object.
func TestBulkDecodeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation floors are pinned on the normal build")
	}
	const n = 10000
	body := ndjsonObjects(n)
	load := func() {
		s := New(spatialdb.NewStore(bbox.Rect(0, 0, 1000, 1000), spatialdb.RTree), Options{})
		req := httptest.NewRequest(http.MethodPost, "/layers/p/objects:bulk", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	load()
	perObj := testing.AllocsPerRun(5, load) / n
	const budget = 3.0
	if perObj > budget {
		t.Errorf("bulk load allocates %.2f per object, want <= %v", perObj, budget)
	}
	t.Logf("bulk load: %.2f allocations per object", perObj)
}
