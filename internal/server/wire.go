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
// Its grammar is JSON held strict: keys are exactly "name", "boxes",
// "lo" and "hi" (escapes allowed), and a null anywhere, a key repeated
// within one object or box, and data after the body's value are refused.
// Every body it accepts, encoding/json decodes into the wire structs
// (with DisallowUnknownFields) to the same names and boxes, and it
// accepts every such body that has none of the refused forms
// (FuzzBulkDecode holds it to both): strings keep their escapes, a lone
// surrogate or invalid UTF-8 reads as U+FFFD, and numbers follow the
// JSON grammar and must fit a float64.

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

// objectDecoder holds one request's body and the scratch it decodes
// into. It is not safe for concurrent use.
type objectDecoder struct {
	data []byte
	pos  int
	k    int

	names  []byte    // every object's name, back to back
	coords []float64 // every valid box's lo then hi, back to back
	key    []byte    // the key being read, unescaped
	lo, hi []float64 // the corners of the box being read
	tmp    []bbox.Box

	cur wireObject // the object being read
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
		if err := d.object(true); err != nil {
			return fmt.Errorf("object %d: %w", len(objs), err)
		}
		objs = append(objs, d.cur)
		return nil
	}
	if d.peek() == '[' {
		if err := d.elements(next); err != nil {
			return nil, err
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
	if err := d.object(false); err != nil {
		return nil, nil, err
	}
	if err := d.atEnd(); err != nil {
		return nil, nil, err
	}
	objs := d.finish([]wireObject{d.cur})
	return objs[0].reg, objs[0].err, nil
}

// finish builds every valid object's region over one slab holding all
// their coordinates, and the names as substrings of one string. It drops
// the body and the scratch first, so they need not outlive the decode.
func (d *objectDecoder) finish(objs []wireObject) []wireObject {
	names := string(d.names)
	slab := make([]float64, len(d.coords))
	copy(slab, d.coords)
	d.data, d.names, d.coords, d.lo, d.hi = nil, nil, nil, nil, nil
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
	switch d.peek(); {
	case d.pos == len(d.data):
		return d.fail("unexpected end of body, want %s", want)
	case bytes.HasPrefix(d.data[d.pos:], []byte("null")):
		return d.fail("null is not accepted, want %s", want)
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

// elements reads an array, calling elem at the start of each element.
func (d *objectDecoder) elements(elem func() error) error {
	if d.peek() != '[' {
		return d.unexpected("an array")
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		if err := d.expect(','); err != nil {
			return err
		}
	}
}

// members reads an object, calling value for each key with the position
// after its colon. A key may appear once.
func (d *objectDecoder) members(value func(wireField) error) error {
	if d.peek() != '{' {
		return d.unexpected("an object")
	}
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint8
	for {
		if d.peek() != '"' {
			return d.unexpected("a field name")
		}
		f, err := d.field()
		if err != nil {
			return err
		}
		if seen&(1<<f) != 0 {
			return d.fail("repeated field %q", d.key)
		}
		seen |= 1 << f
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

// field reads a key into d.key and names the field it is.
func (d *objectDecoder) field() (wireField, error) {
	var err error
	if d.key, err = d.str(d.key[:0]); err != nil {
		return fieldUnknown, err
	}
	switch string(d.key) {
	case "name":
		return fieldName, nil
	case "boxes":
		return fieldBoxes, nil
	case "lo":
		return fieldLo, nil
	case "hi":
		return fieldHi, nil
	}
	return fieldUnknown, nil
}

// unknownField refuses the key just read, as DisallowUnknownFields does.
func (d *objectDecoder) unknownField() error {
	return d.fail("unknown field %q", d.key)
}

// object reads one object into cur. withName admits the name field (the
// bulk form) besides boxes.
func (d *objectDecoder) object(withName bool) error {
	d.cur = wireObject{nameLo: len(d.names), nameHi: len(d.names), coord: len(d.coords)}
	return d.members(func(f wireField) error {
		switch {
		case f == fieldName && withName:
			if d.peek() != '"' {
				return d.unexpected("a string")
			}
			var err error
			d.names, err = d.str(d.names)
			d.cur.nameHi = len(d.names)
			return err
		case f == fieldBoxes:
			return d.elements(d.box)
		}
		return d.unknownField()
	})
}

// box reads the object's next box, {"lo": [...], "hi": [...]}, and checks
// it as the wire region's conversion does — k-dimensional lo and hi, lo ≤
// hi — appending a valid one's corners to coords. The first invalid box
// is the object's error and drops the corners its earlier boxes appended.
func (d *objectDecoder) box() error {
	d.lo, d.hi = d.lo[:0], d.hi[:0]
	err := d.members(func(f wireField) error {
		switch f {
		case fieldLo:
			return d.run(&d.lo)
		case fieldHi:
			return d.run(&d.hi)
		}
		return d.unknownField()
	})
	o, k := &d.cur, d.k
	if err != nil || o.err != nil {
		return err
	}
	if len(d.lo) != k || len(d.hi) != k {
		o.err = fmt.Errorf("box %d: want %d-dimensional lo/hi, got %d/%d", o.nbox, k, len(d.lo), len(d.hi))
	}
	for j := 0; o.err == nil && j < k; j++ {
		if d.lo[j] > d.hi[j] {
			_, err := bbox.Make(d.lo, d.hi) // the refusal's text
			o.err = fmt.Errorf("box %d: %w", o.nbox, err)
		}
	}
	if o.err != nil {
		d.coords = d.coords[:o.coord]
		return nil
	}
	d.coords = append(append(d.coords, d.lo...), d.hi...)
	o.nbox++
	return nil
}

// run reads a corner, an array of numbers, into *r.
func (d *objectDecoder) run(r *[]float64) error {
	return d.elements(func() error {
		if c := d.peek(); c != '-' && (c < '0' || c > '9') {
			return d.unexpected("a number")
		}
		v, err := d.number()
		*r = append(*r, v)
		return err
	})
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

// plainByte reports a string byte that stands for itself: not a quote, a
// backslash, a control byte or part of a multi-byte sequence.
func plainByte(c byte) bool {
	return c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\'
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
