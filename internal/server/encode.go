// The hand-written encoder for query results. /query bodies, ?stream=1
// lines and /query/batch lines all come from here, byte for byte what
// encoding/json (with SetIndent("", "  ") for /query) produced for the
// former queryResponse struct — encode_test.go keeps that struct as the
// oracle. The executor hands each verified tuple straight to
// respEncoder.add, so a response costs one pooled buffer instead of a
// []Solution, a []solutionJSON and a reflection walk over both.
package server

import (
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/query"
)

// jsonWriter appends JSON to a byte buffer, compact or indented exactly
// as encoding/json's Indent(prefix "", indent "  ") lays it out.
type jsonWriter struct {
	buf    []byte
	pretty bool
	depth  int
	empty  bool // the innermost open container has no member yet
}

// open starts an object or array.
//
//boolq:noalloc
func (w *jsonWriter) open(bracket byte) {
	w.buf = append(w.buf, bracket) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	w.depth++
	w.empty = true
}

// close ends the innermost container; an empty one renders as {} or [].
//
//boolq:noalloc
func (w *jsonWriter) close(bracket byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, bracket) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	w.empty = false
}

// newline starts a fresh indented line (pretty mode only).
//
//boolq:noalloc
func (w *jsonWriter) newline() {
	if !w.pretty {
		return
	}
	w.buf = append(w.buf, '\n') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	}
}

// next separates the upcoming member from the previous one.
//
//boolq:noalloc
func (w *jsonWriter) next() {
	if !w.empty {
		w.buf = append(w.buf, ',') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	}
	w.newline()
	w.empty = false
}

// key starts an object member. Keys are the wire format's own field
// names: plain ASCII, nothing to escape.
//
//boolq:noalloc
func (w *jsonWriter) key(k string) {
	w.next()
	w.buf = append(w.buf, '"')      //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	w.buf = append(w.buf, k...)     //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	w.buf = append(w.buf, '"', ':') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	if w.pretty {
		w.buf = append(w.buf, ' ') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	}
}

//boolq:noalloc
func (w *jsonWriter) int(v int64) {
	w.buf = strconv.AppendInt(w.buf, v, 10) //boolq:allowalloc appends into the pooled buffer
}

//boolq:noalloc
func (w *jsonWriter) uint(v uint64) {
	w.buf = strconv.AppendUint(w.buf, v, 10) //boolq:allowalloc appends into the pooled buffer
}

//boolq:noalloc
func (w *jsonWriter) bool(v bool) {
	w.buf = strconv.AppendBool(w.buf, v) //boolq:allowalloc appends into the pooled buffer
}

// intField, boolField and flagField are key + value; flagField is an
// omitempty bool.
//
//boolq:noalloc
func (w *jsonWriter) intField(k string, v int) { w.key(k); w.int(int64(v)) }

//boolq:noalloc
func (w *jsonWriter) boolField(k string, v bool) { w.key(k); w.bool(v) }

//boolq:noalloc
func (w *jsonWriter) flagField(k string, v bool) {
	if v {
		w.boolField(k, true)
	}
}

const hexDigits = "0123456789abcdef"

// string appends s as a JSON string with encoding/json's default
// escaping: control characters, invalid UTF-8 (as U+FFFD), U+2028/2029
// and the HTML-sensitive <, >, &.
//
//boolq:noalloc
func (w *jsonWriter) string(s string) {
	b := append(w.buf, '"') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			switch c {
			case '\\', '"':
				b = append(b, '\\', c) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			case '\b':
				b = append(b, '\\', 'b') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			case '\f':
				b = append(b, '\\', 'f') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			case '\n':
				b = append(b, '\\', 'n') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			case '\r':
				b = append(b, '\\', 'r') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			case '\t':
				b = append(b, '\\', 't') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF]) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:]) //boolq:allowalloc unicode/utf8 decoding is a pure function
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			b = append(b, `\ufffd`...)   //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)                              //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF]) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...) //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
	w.buf = append(b, '"')      //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
}

// tuple appends one solution as {"names":[…],"ids":[…]}.
//
//boolq:noalloc
func (w *jsonWriter) tuple(sol query.Solution) {
	w.open('{')
	w.key("names")
	w.open('[')
	for _, o := range sol.Objects {
		w.next()
		w.string(o.Name)
	}
	w.close(']')
	w.key("ids")
	w.open('[')
	for _, o := range sol.Objects {
		w.next()
		w.int(o.ID)
	}
	w.close(']')
	w.close('}')
}

// stats appends the executor statistics under their Go field names —
// query.Stats and spatialdb.Stats carry no json tags.
//
//boolq:noalloc
func (w *jsonWriter) stats(st query.Stats) {
	w.key("stats")
	w.open('{')
	w.intField("Candidates", st.Candidates)
	w.intField("ExactRejects", st.ExactRejects)
	w.intField("Extended", st.Extended)
	w.intField("FinalChecked", st.FinalChecked)
	w.intField("FinalRejected", st.FinalRejected)
	w.intField("Solutions", st.Solutions)
	w.boolField("GroundFailed", st.GroundFailed)
	w.boolField("Truncated", st.Truncated)
	w.boolField("Cancelled", st.Cancelled)
	w.key("DB")
	w.open('{')
	w.intField("Queries", st.DB.Queries)
	w.intField("Touched", st.DB.Touched)
	w.intField("Scanned", st.DB.Scanned)
	w.intField("Returned", st.DB.Returned)
	w.close('}')
	w.close('}')
}

// runSummary is everything a query reply says after its solutions.
type runSummary struct {
	cached    bool
	naive     bool
	epoch     uint64
	elapsedUS int64
	stats     query.Stats
	plan      string // explain text; omitted when empty
	order     string // executed retrieval order; omitted when empty
}

// summary appends the members shared by a /query reply and a ?stream=1
// closing line, from "count" through "stats" (a stream is never naive, so
// its line never carries that flag).
//
//boolq:noalloc
func (w *jsonWriter) summary(sum *runSummary) {
	w.intField("count", sum.stats.Solutions)
	w.boolField("cached", sum.cached)
	w.flagField("naive", sum.naive)
	w.flagField("truncated", sum.stats.Truncated)
	w.flagField("cancelled", sum.stats.Cancelled)
	w.key("epoch")
	w.uint(sum.epoch)
	w.key("elapsed_us")
	w.int(sum.elapsedUS)
	w.stats(sum.stats)
}

// respEncoder builds one query reply in a pooled buffer. The executor's
// yield is add: each tuple is encoded the moment it is verified, while
// its ids are kept on the side so that finish can restore the wire order
// — tuples sorted by their ids, in the text's own variable order — when a
// reordered plan found them in another one.
type respEncoder struct {
	jsonWriter
	arrayAt  int     // offset just past the solutions array's '['
	spans    []span  // each tuple's bytes, separator excluded
	ids      []int64 // each tuple's ids, width per tuple
	width    int
	unsorted bool
	perm     []int32
}

type span struct{ start, end int }

// maxPooledResponse caps the buffer a pooled encoder keeps: a reply that
// outgrew it (tens of thousands of tuples) is garbage-collected rather
// than pinned by the pool.
const maxPooledResponse = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(respEncoder) }}

// acquireEncoder returns an empty encoder: indented for /query, compact
// for NDJSON lines.
func acquireEncoder(pretty bool) *respEncoder {
	e := encoderPool.Get().(*respEncoder)
	e.pretty = pretty
	e.reset()
	return e
}

func (e *respEncoder) release() {
	if cap(e.buf) > maxPooledResponse || cap(e.ids) > maxPooledResponse/8 {
		return
	}
	encoderPool.Put(e)
}

// reset empties the encoder for the next reply or line.
//
//boolq:noalloc
func (e *respEncoder) reset() {
	e.buf, e.depth, e.empty = e.buf[:0], 0, false
	e.unsorted = false
	e.spans, e.ids = e.spans[:0], e.ids[:0]
}

// begin opens a reply and its solutions array. index ≥ 0 makes it a
// /query/batch line, which leads with the query's position in the batch.
//
//boolq:noalloc
func (e *respEncoder) begin(index int) {
	e.open('{')
	if index >= 0 {
		e.intField("index", index)
	}
	e.key("solutions")
	e.open('[')
	e.arrayAt = len(e.buf)
}

// add encodes one tuple; it has the shape of a RunStream yield and never
// stops the run.
//
//boolq:noalloc
func (e *respEncoder) add(sol query.Solution) bool {
	e.next()
	start := len(e.buf)
	e.tuple(sol)
	e.spans = append(e.spans, span{start, len(e.buf)}) //boolq:allowalloc grow-once: pooled with the encoder
	e.width = len(sol.Objects)
	at := len(e.ids)
	for _, o := range sol.Objects {
		e.ids = append(e.ids, o.ID) //boolq:allowalloc grow-once: pooled with the encoder
	}
	if at > 0 && slices.Compare(e.ids[at-e.width:at], e.ids[at:]) > 0 { //boolq:allowalloc slices.Compare over two int64 windows allocates nothing
		e.unsorted = true
	}
	return true
}

// finish closes the solutions array — first putting the tuples into wire
// order unless keepOrder says the run's own order is the contract (the
// naive baseline) — and appends the summary members, the closing brace
// and the newline encoding/json ends every value with.
func (e *respEncoder) finish(sum *runSummary, keepOrder bool) {
	if e.unsorted && !keepOrder {
		e.sortTuples()
	}
	e.close(']')
	e.summary(sum)
	if sum.plan != "" {
		e.key("plan")
		e.string(sum.plan)
	}
	if sum.order != "" {
		e.key("order")
		e.string(sum.order)
	}
	e.close('}')
	e.buf = append(e.buf, '\n')
}

// sortTuples rewrites the solutions array with its elements ordered by
// ids. The rewritten array is exactly as long as the original (same
// elements, same separators), so it is assembled past the end of the
// buffer and copied down over the old one.
func (e *respEncoder) sortTuples() {
	e.perm = e.perm[:0]
	for i := range e.spans {
		e.perm = append(e.perm, int32(i))
	}
	w := e.width
	slices.SortFunc(e.perm, func(a, b int32) int {
		return slices.Compare(e.ids[int(a)*w:int(a)*w+w], e.ids[int(b)*w:int(b)*w+w])
	})
	end := len(e.buf)
	e.empty = true
	for _, i := range e.perm {
		sp := e.spans[i]
		e.next()
		e.buf = append(e.buf, e.buf[sp.start:sp.end]...)
	}
	n := copy(e.buf[e.arrayAt:end], e.buf[end:])
	e.buf = e.buf[:e.arrayAt+n]
}

// streamSolution is one ?stream=1 line: {"solution":{…}}.
//
//boolq:noalloc
func (e *respEncoder) streamSolution(sol query.Solution) {
	e.reset()
	e.open('{')
	e.key("solution")
	e.tuple(sol)
	e.close('}')
	e.buf = append(e.buf, '\n') //boolq:allowalloc grow-once: the pooled buffer keeps its capacity
}

// streamSummary is the closing ?stream=1 line.
func (e *respEncoder) streamSummary(sum *runSummary) {
	e.reset()
	e.open('{')
	e.boolField("done", true)
	e.summary(sum)
	e.close('}')
	e.buf = append(e.buf, '\n')
}
