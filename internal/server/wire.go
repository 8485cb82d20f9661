package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/bbox"
	"repro/internal/region"
)

// The decoder below reads the two wire forms of stored objects — the
// objects:bulk body (a JSON array of {"name", "boxes"} objects, or an
// NDJSON stream of them) and the PUT object body ({"boxes": [...]}) —
// straight from the request bytes into names and bbox.Boxes: one pass,
// no reflection, one coordinate slab and one name string per request.
//
// It accepts exactly what encoding/json accepts when it decodes those
// bodies into the wire structs with DisallowUnknownFields (the reference
// FuzzBulkDecode holds it to), and fills each field as encoding/json
// would: keys match case-insensitively (Unicode simple folding, so
// "boxeſ" is "boxes"), null leaves a string, a number or a box as it was
// and empties a list, a repeated key decodes again into what the first
// one left, and numbers follow the JSON grammar and must fit a float64.
// The one difference is that data after the body's value (after the
// array's closing bracket, or after the PUT body's object) is refused.

// wireObject is one decoded object: its name and either its region or
// the reason it has none. Until finish builds them, the name is the span
// [nameLo, nameHi) of objectDecoder.names and the region the nbox boxes
// of 2k floats from coords[coord:].
type wireObject struct {
	name string
	reg  *region.Region
	err  error

	nameLo, nameHi, coord, nbox int
}

// wireRun is a []float64 field as encoding/json fills it: n elements over
// a backing array that reads as zero past len(vals). Decoding an array
// into it overwrites the backing from index 0 and sets n to the array's
// length, so a null element keeps what an earlier decode of the same
// field (a repeated key) left at its index.
type wireRun struct {
	vals []float64
	n    int
}

func (r *wireRun) reset() { r.vals, r.n = r.vals[:0], 0 }

// wireBox is one {"lo": [...], "hi": [...]} entry.
type wireBox struct{ lo, hi wireRun }

// objectDecoder holds one request's body and the scratch it decodes
// into. It is not safe for concurrent use.
type objectDecoder struct {
	data []byte
	pos  int
	k    int

	names  []byte    // every object's name, back to back
	coords []float64 // every valid box's lo then hi, back to back
	key    []byte    // an escaped key, unescaped
	tmp    []bbox.Box

	// The object being read, as encoding/json would hold it: its name's
	// span in names, and boxes[:nbox] as its boxes; boxes[nbox:] are the
	// entries a longer earlier "boxes" key left in the backing array.
	cur   wireObject
	boxes []wireBox
	nbox  int
}

// wireField names the keys the wire structs know.
type wireField int

const (
	fieldUnknown wireField = iota
	fieldName
	fieldBoxes
	fieldLo
	fieldHi
)

// bodyPresize caps how much of a declared Content-Length readBody
// allocates before the bytes arrive, so a client that declares more than
// it sends cannot make the server reserve the whole limit.
const bodyPresize = 4 << 20

// readBody reads a request body of at most limit bytes into one buffer,
// sized from Content-Length (up to bodyPresize) when the client sent one.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, limit, bodyPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeBulk decodes an objects:bulk body of k-dimensional objects: a
// JSON array when its first non-space byte is '[', an NDJSON stream (any
// whitespace-separated sequence of objects) otherwise. A syntax or type
// error anywhere refuses the whole body; a region that cannot be built
// (wrong dimension, inverted box) is that object's error.
func decodeBulk(body []byte, k int) ([]wireObject, error) {
	d := &objectDecoder{data: body, k: k}
	var objs []wireObject
	next := func() error {
		d.begin()
		if err := d.object(true); err != nil {
			return fmt.Errorf("object %d: %w", len(objs), err)
		}
		objs = append(objs, d.end())
		return nil
	}
	if d.peek() == '[' {
		d.pos++
		if d.peek() == ']' {
			d.pos++
		} else {
			for {
				if err := next(); err != nil {
					return nil, err
				}
				if d.peek() == ']' {
					d.pos++
					break
				}
				if err := d.expect(','); err != nil {
					return nil, err
				}
			}
		}
		if err := d.atEnd(); err != nil {
			return nil, err
		}
	} else {
		for d.space(); d.pos < len(d.data); d.space() {
			if err := next(); err != nil {
				return nil, err
			}
		}
	}
	return d.finish(objs), nil
}

// decodeRegionBody decodes a PUT object body, {"boxes": [...]}, of a
// k-dimensional region. err refuses the body; regErr is a region that
// cannot be built.
func decodeRegionBody(body []byte, k int) (reg *region.Region, regErr, err error) {
	d := &objectDecoder{data: body, k: k}
	d.begin()
	if err := d.object(false); err != nil {
		return nil, nil, err
	}
	if err := d.atEnd(); err != nil {
		return nil, nil, err
	}
	objs := d.finish([]wireObject{d.end()})
	return objs[0].reg, objs[0].err, nil
}

// begin starts a new object: no name, no boxes.
func (d *objectDecoder) begin() {
	d.cur = wireObject{nameLo: len(d.names), nameHi: len(d.names)}
	d.boxes, d.nbox = d.boxes[:0], 0
}

// end checks the object's boxes as the wire region's conversion does —
// each needs k-dimensional lo and hi, lo ≤ hi — and appends the
// coordinates of a valid one to coords.
func (d *objectDecoder) end() wireObject {
	o := d.cur
	o.coord, o.nbox = len(d.coords), d.nbox
	k := d.k
	for i, b := range d.boxes[:d.nbox] {
		if b.lo.n != k || b.hi.n != k {
			o.err = fmt.Errorf("box %d: want %d-dimensional lo/hi, got %d/%d", i, k, b.lo.n, b.hi.n)
			break
		}
		lo, hi := b.lo.vals[:k], b.hi.vals[:k]
		for j := range k {
			if lo[j] > hi[j] {
				_, err := bbox.Make(lo, hi) // the refusal's text
				o.err = fmt.Errorf("box %d: %w", i, err)
				break
			}
		}
		if o.err != nil {
			break
		}
		d.coords = append(append(d.coords, lo...), hi...)
	}
	if o.err != nil {
		d.coords = d.coords[:o.coord]
	}
	return o
}

// finish builds every valid object's region over one slab holding all
// their coordinates, and the names as substrings of one string. It drops
// the body and the scratch first, so they need not outlive the decode.
func (d *objectDecoder) finish(objs []wireObject) []wireObject {
	names := string(d.names)
	slab := make([]float64, len(d.coords))
	copy(slab, d.coords)
	d.data, d.names, d.coords, d.boxes = nil, nil, nil, nil
	k, w := d.k, 2*d.k
	for i := range objs {
		o := &objs[i]
		o.name = names[o.nameLo:o.nameHi]
		if o.err != nil {
			continue
		}
		d.tmp = d.tmp[:0]
		for c := o.coord; c < o.coord+o.nbox*w; c += w {
			d.tmp = append(d.tmp, bbox.Box{K: k, Lo: slab[c : c+k : c+k], Hi: slab[c+k : c+w : c+w]})
		}
		o.reg = region.FromBoxes(k, d.tmp...)
	}
	return objs
}

// ---- the grammar ----

// space skips JSON whitespace.
func (d *objectDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end (a NUL
// byte is no more valid JSON than the end is).
func (d *objectDecoder) peek() byte {
	d.space()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// fail reports a syntax or type error at the current offset.
func (d *objectDecoder) fail(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports that the next byte does not start what was wanted.
func (d *objectDecoder) unexpected(want string) error {
	if d.peek(); d.pos == len(d.data) {
		return d.fail("unexpected end of body, want %s", want)
	}
	return d.fail("unexpected %q, want %s", d.data[d.pos], want)
}

// expect consumes the byte c after optional whitespace.
func (d *objectDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.unexpected(strconv.QuoteRune(rune(c)))
	}
	d.pos++
	return nil
}

// atEnd refuses anything but whitespace after the body's value.
func (d *objectDecoder) atEnd() error {
	if d.peek(); d.pos < len(d.data) {
		return d.fail("data after the body's JSON value")
	}
	return nil
}

// null consumes the literal null, which the caller has seen start.
func (d *objectDecoder) null() error {
	if len(d.data)-d.pos < len("null") || string(d.data[d.pos:d.pos+len("null")]) != "null" {
		return d.fail("invalid literal, want null")
	}
	d.pos += len("null")
	return nil
}

// members reads an object's members, calling value for each key with the
// position after its colon. The caller has seen the '{'.
func (d *objectDecoder) members(value func(wireField) error) error {
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("a field name")
		}
		f, err := d.field()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := value(f); err != nil {
			return err
		}
		if d.peek() == '}' {
			d.pos++
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// object reads one object value — {…} or null — into the current object.
// withName admits the name field (the bulk form) besides boxes.
func (d *objectDecoder) object(withName bool) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.unexpected("an object")
	}
	return d.members(func(f wireField) error {
		switch {
		case f == fieldName && withName:
			return d.name()
		case f == fieldBoxes:
			return d.boxList()
		}
		return d.unknownField()
	})
}

// unknownField refuses the key just read, as DisallowUnknownFields does.
func (d *objectDecoder) unknownField() error {
	return d.fail("unknown field %q", d.key)
}

// name reads the name field's value: a string, or null (no change).
func (d *objectDecoder) name() error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
		lo := len(d.names)
		var err error
		if d.names, err = d.str(d.names); err != nil {
			return err
		}
		d.cur.nameLo, d.cur.nameHi = lo, len(d.names)
		return nil
	}
	return d.unexpected("a string")
}

// boxList reads the boxes field's value: an array of boxes, decoded into
// the entries already there, or null, which empties the list as [] does.
func (d *objectDecoder) boxList() error {
	switch d.peek() {
	case 'n':
		d.boxes, d.nbox = d.boxes[:0], 0
		return d.null()
	case '[':
	default:
		return d.unexpected("an array")
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		d.boxes, d.nbox = d.boxes[:0], 0
		return nil
	}
	for i := 0; ; i++ {
		if i == len(d.boxes) {
			d.newBox()
		}
		if err := d.box(&d.boxes[i]); err != nil {
			return err
		}
		if d.peek() == ']' {
			d.pos++
			d.nbox = i + 1
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// newBox appends a zero entry to boxes, reusing a dropped one's arrays.
func (d *objectDecoder) newBox() {
	n := len(d.boxes)
	if n == cap(d.boxes) {
		d.boxes = append(d.boxes, wireBox{})
		return
	}
	d.boxes = d.boxes[:n+1]
	d.boxes[n].lo.reset()
	d.boxes[n].hi.reset()
}

// box reads one box: an object of lo and hi decoded into b, or null,
// which leaves b as it was.
func (d *objectDecoder) box(b *wireBox) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.unexpected("an object")
	}
	return d.members(func(f wireField) error {
		switch f {
		case fieldLo:
			return d.run(&b.lo)
		case fieldHi:
			return d.run(&b.hi)
		}
		return d.unknownField()
	})
}

// run reads a corner: an array of numbers (a null element keeps the
// value at its index), or null, which empties it as [] does.
func (d *objectDecoder) run(r *wireRun) error {
	switch d.peek() {
	case 'n':
		r.reset()
		return d.null()
	case '[':
	default:
		return d.unexpected("an array")
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		r.reset()
		return nil
	}
	for i := 0; ; i++ {
		switch c := d.peek(); {
		case c == 'n':
			if err := d.null(); err != nil {
				return err
			}
			if i == len(r.vals) {
				r.vals = append(r.vals, 0)
			}
		case c == '-' || '0' <= c && c <= '9':
			v, err := d.number()
			if err != nil {
				return err
			}
			if i == len(r.vals) {
				r.vals = append(r.vals, v)
			} else {
				r.vals[i] = v
			}
		default:
			return d.unexpected("a number")
		}
		if d.peek() == ']' {
			d.pos++
			r.n = i + 1
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// number reads a JSON number — -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// — that must fit a float64.
func (d *objectDecoder) number() (float64, error) {
	s, p := d.data, d.pos
	digits := func() bool {
		start := p
		for p < len(s) && '0' <= s[p] && s[p] <= '9' {
			p++
		}
		return p > start
	}
	if s[p] == '-' {
		p++
	}
	switch {
	case p < len(s) && s[p] == '0':
		p++
	case !digits():
		d.pos = p
		return 0, d.unexpected("a digit")
	}
	if p < len(s) && s[p] == '.' {
		p++
		if !digits() {
			d.pos = p
			return 0, d.unexpected("a digit")
		}
	}
	if p < len(s) && (s[p] == 'e' || s[p] == 'E') {
		p++
		if p < len(s) && (s[p] == '+' || s[p] == '-') {
			p++
		}
		if !digits() {
			d.pos = p
			return 0, d.unexpected("a digit")
		}
	}
	v, err := strconv.ParseFloat(string(s[d.pos:p]), 64)
	if err != nil {
		return 0, d.fail("number %s does not fit a float64", s[d.pos:p])
	}
	d.pos = p
	return v, nil
}

// field reads a key and names the field it matches: after unescaping,
// its simple case folding must equal the field's, as encoding/json
// matches keys. The key is left in d.key for an unknown field's error.
func (d *objectDecoder) field() (wireField, error) {
	// A plain key (no escape, no control or non-ASCII byte) is matched
	// where it lies.
	p := d.pos + 1
	for p < len(d.data) && plainByte(d.data[p]) {
		p++
	}
	var key []byte
	if p < len(d.data) && d.data[p] == '"' {
		key = d.data[d.pos+1 : p]
		d.pos = p + 1
		switch string(key) {
		case "name":
			return fieldName, nil
		case "boxes":
			return fieldBoxes, nil
		case "lo":
			return fieldLo, nil
		case "hi":
			return fieldHi, nil
		}
		d.key = append(d.key[:0], key...)
	} else {
		var err error
		if d.key, err = d.str(d.key[:0]); err != nil {
			return fieldUnknown, err
		}
	}
	for _, f := range [...]struct {
		folded string
		f      wireField
	}{{"NAME", fieldName}, {"BOXES", fieldBoxes}, {"LO", fieldLo}, {"HI", fieldHi}} {
		if foldEqual(d.key, f.folded) {
			return f.f, nil
		}
	}
	return fieldUnknown, nil
}

// plainByte reports a string byte that stands for itself: not a quote, a
// backslash, a control byte or part of a multi-byte sequence.
func plainByte(c byte) bool {
	return c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\'
}

// foldEqual reports whether key folds to folded, an upper-case ASCII
// name: ASCII letters fold to upper case, any other rune to the smallest
// rune of its simple-folding orbit (so U+017F, ſ, folds to S).
func foldEqual(key []byte, folded string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r := rune(key[i])
		if r < utf8.RuneSelf {
			i++
			if 'a' <= r && r <= 'z' {
				r -= 'a' - 'A'
			}
		} else {
			var n int
			r, n = utf8.DecodeRune(key[i:])
			i += n
			for {
				next := unicode.SimpleFold(r)
				if next <= r {
					r = next
					break
				}
				r = next
			}
		}
		if j == len(folded) || r != rune(folded[j]) {
			return false
		}
	}
	return j == len(folded)
}

// str reads a string and appends its unescaped bytes to dst: escapes per
// the JSON grammar, a \u surrogate without its pair and every byte of
// invalid UTF-8 become U+FFFD, and a control byte is an error.
func (d *objectDecoder) str(dst []byte) ([]byte, error) {
	d.pos++ // the opening quote
	for {
		start := d.pos
		for d.pos < len(d.data) && plainByte(d.data[d.pos]) {
			d.pos++
		}
		dst = append(dst, d.data[start:d.pos]...)
		if d.pos == len(d.data) {
			return dst, d.fail("unterminated string")
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return dst, nil
		case c == '\\':
			var err error
			if dst, err = d.escape(dst); err != nil {
				return dst, err
			}
		case c < ' ':
			return dst, d.fail("control byte %#02x in a string", c)
		default:
			r, n := utf8.DecodeRune(d.data[d.pos:])
			d.pos += n
			dst = utf8.AppendRune(dst, r)
		}
	}
}

// escape appends what the escape sequence at pos stands for.
func (d *objectDecoder) escape(dst []byte) ([]byte, error) {
	if d.pos+1 == len(d.data) {
		return dst, d.fail("unterminated string")
	}
	c := d.data[d.pos+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		r := d.hex4(d.pos)
		if r < 0 {
			return dst, d.fail("invalid \\u escape")
		}
		d.pos += 6
		if utf16.IsSurrogate(r) {
			if pair := utf16.DecodeRune(r, d.hex4(d.pos)); pair != unicode.ReplacementChar {
				d.pos += 6
				return utf8.AppendRune(dst, pair), nil
			}
			r = unicode.ReplacementChar
		}
		return utf8.AppendRune(dst, r), nil
	default:
		return dst, d.fail("invalid escape \\%c", c)
	}
	d.pos += 2
	return append(dst, c), nil
}

// hex4 decodes the \uXXXX escape at p, or returns -1.
func (d *objectDecoder) hex4(p int) rune {
	if p+6 > len(d.data) || d.data[p] != '\\' || d.data[p+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[p+2 : p+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
