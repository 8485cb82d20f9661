package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/bbox"
	"repro/internal/query"
	"repro/internal/race"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// The wire structs the hand encoder replaced. They stay here as the
// oracle of TestEncoderMatchesEncodingJSON and as what the handler tests
// decode replies into.

// solutionJSON is one result tuple, in retrieval order.
type solutionJSON struct {
	Names []string `json:"names"`
	IDs   []int64  `json:"ids"`
}

func toSolutionJSON(s query.Solution) solutionJSON {
	out := solutionJSON{}
	for _, o := range s.Objects {
		out.Names = append(out.Names, o.Name)
		out.IDs = append(out.IDs, o.ID)
	}
	return out
}

// queryResponse is the POST /query reply.
type queryResponse struct {
	Solutions []solutionJSON `json:"solutions"`
	Count     int            `json:"count"`
	Cached    bool           `json:"cached"`
	Naive     bool           `json:"naive,omitempty"`
	Truncated bool           `json:"truncated,omitempty"`
	Cancelled bool           `json:"cancelled,omitempty"`
	Epoch     uint64         `json:"epoch"`
	ElapsedUS int64          `json:"elapsed_us"`
	Stats     query.Stats    `json:"stats"`
	Plan      string         `json:"plan,omitempty"`
	Order     string         `json:"order,omitempty"`
}

// batchResultLine is one NDJSON line of the POST /query/batch reply.
type batchResultLine struct {
	Index          int    `json:"index"`
	Error          string `json:"error,omitempty"`
	Shed           bool   `json:"shed,omitempty"`
	*queryResponse        // nil on error lines
}

// streamSolutionLine is one NDJSON line of a POST /query?stream=1 reply.
type streamSolutionLine struct {
	Solution solutionJSON `json:"solution"`
}

// streamSummary is the final NDJSON line of a POST /query?stream=1 reply.
type streamSummary struct {
	Done      bool        `json:"done"`
	Count     int         `json:"count"`
	Cached    bool        `json:"cached"`
	Truncated bool        `json:"truncated,omitempty"`
	Cancelled bool        `json:"cancelled,omitempty"`
	Epoch     uint64      `json:"epoch"`
	ElapsedUS int64       `json:"elapsed_us"`
	Stats     query.Stats `json:"stats"`
}

// escapeNames exercise every branch of encoding/json's string escaping.
var escapeNames = []string{
	"plain", `quo"te`, `back\slash`, "<b>&amp;</b>", "tab\there", "nl\nr\r", "bell\a\b\f\x00\x1f",
	"caf\u00e9 \u2192 \u65e5\u672c", "sep\u2028\u2029", "bad\xff\xc3(", "\U0001F600", "", "\x7f",
}

func testSolutions(n, width int) []query.Solution {
	sols := make([]query.Solution, n)
	for i := range sols {
		for j := 0; j < width; j++ {
			sols[i].Objects = append(sols[i].Objects, spatialdb.Object{
				ID:   int64(i*7 + j*1000003),
				Name: fmt.Sprintf("%s-%d", escapeNames[(i+j)%len(escapeNames)], i),
			})
		}
	}
	return sols
}

func marshal(t *testing.T, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncoderMatchesEncodingJSON: for a corpus of replies — 0, 1 and 700
// solutions, 1–3 variables, names that need every kind of JSON escape,
// truncated / cancelled / explain / naive — the hand encoder produces
// exactly the bytes encoding/json produced for the old wire structs: the
// indented /query body, the compact /query/batch line and the ?stream=1
// lines. Tuples handed over out of wire order come out sorted.
func TestEncoderMatchesEncodingJSON(t *testing.T) {
	stats := query.Stats{Candidates: 5439, ExactRejects: 4598, Extended: 841, FinalChecked: 700,
		FinalRejected: 1, Solutions: 700, DB: spatialdb.Stats{Queries: 12, Touched: 345, Scanned: 6789, Returned: 5439}}
	type variant struct {
		name string
		sum  runSummary
	}
	variants := []variant{
		{"plain", runSummary{cached: true, epoch: 242001, elapsedUS: 1234, stats: stats, order: "P"}},
		{"naive", runSummary{naive: true, epoch: 1, elapsedUS: 0, stats: stats}},
		{"explain", runSummary{epoch: 1<<63 + 5, elapsedUS: 98765432, stats: stats, order: "T→R→B",
			plan: "triangular solved form:\n  0 <= T <= C & ~A\nrange-query plan:\n  step 1: retrieve T from layer \"towns\"\n    [T] ^ <x> != ∅\n"}},
	}
	flagged := stats
	flagged.Truncated, flagged.Cancelled, flagged.GroundFailed = true, true, true
	variants = append(variants, variant{"truncated+cancelled", runSummary{epoch: 7, elapsedUS: 30000000, stats: flagged, order: "Z→P"}})

	for _, v := range variants {
		for _, n := range []int{0, 1, 700} {
			v.sum.stats.Solutions = n // the reply's count
			for width := 1; width <= 3; width++ {
				sols := testSolutions(n, width)
				want := queryResponse{
					Solutions: []solutionJSON{}, Count: n, Cached: v.sum.cached, Naive: v.sum.naive,
					Truncated: v.sum.stats.Truncated, Cancelled: v.sum.stats.Cancelled,
					Epoch: v.sum.epoch, ElapsedUS: v.sum.elapsedUS, Stats: v.sum.stats,
					Plan: v.sum.plan, Order: v.sum.order,
				}
				for _, sol := range sols {
					want.Solutions = append(want.Solutions, toSolutionJSON(sol))
				}
				name := fmt.Sprintf("%s/n=%d/width=%d", v.name, n, width)

				// Handed over back to front, the tuples still leave in wire
				// order (sorted by ids); keepOrder leaves them as handed over.
				for _, mode := range []struct {
					pretty, reversed bool
					index            int
				}{{true, false, -1}, {true, true, -1}, {false, false, 3}, {false, true, 0}} {
					enc := acquireEncoder(mode.pretty)
					enc.begin(mode.index)
					for i := range sols {
						if mode.reversed {
							i = len(sols) - 1 - i
						}
						enc.add(sols[i])
					}
					sum := v.sum
					enc.finish(&sum, false)
					var ref []byte
					if mode.index < 0 {
						ref = marshal(t, want, true)
					} else {
						ref = marshal(t, batchResultLine{Index: mode.index, queryResponse: &want}, false)
					}
					if !bytes.Equal(enc.buf, ref) {
						t.Fatalf("%s (pretty=%v reversed=%v): encoder and encoding/json differ:\n%s\n--- want ---\n%s",
							name, mode.pretty, mode.reversed, enc.buf, ref)
					}
					enc.release()
				}

				enc := acquireEncoder(false)
				for _, sol := range sols[:min(n, 20)] {
					enc.streamSolution(sol)
					if ref := marshal(t, streamSolutionLine{Solution: toSolutionJSON(sol)}, false); !bytes.Equal(enc.buf, ref) {
						t.Fatalf("%s: stream line %s, want %s", name, enc.buf, ref)
					}
				}
				sum := v.sum
				sum.naive = false // ?stream=1 rejects naive requests
				enc.streamSummary(&sum)
				ref := marshal(t, streamSummary{Done: true, Count: n, Cached: sum.cached,
					Truncated: sum.stats.Truncated, Cancelled: sum.stats.Cancelled,
					Epoch: sum.epoch, ElapsedUS: sum.elapsedUS, Stats: sum.stats}, false)
				if !bytes.Equal(enc.buf, ref) {
					t.Fatalf("%s: stream summary %s, want %s", name, enc.buf, ref)
				}
				enc.release()
			}
		}
	}

	// keepOrder: the naive baseline's enumeration order is the contract.
	sols := testSolutions(5, 2)
	slices.Reverse(sols)
	enc := acquireEncoder(true)
	enc.begin(-1)
	for _, sol := range sols {
		enc.add(sol)
	}
	enc.finish(&runSummary{}, true)
	var got queryResponse
	if err := json.Unmarshal(enc.buf, &got); err != nil {
		t.Fatal(err)
	}
	for i, sol := range sols {
		if got.Solutions[i].IDs[0] != sol.Objects[0].ID {
			t.Fatalf("keepOrder reordered the tuples: %v", got.Solutions)
		}
	}
	enc.release()
}

// TestJSONStringMatchesEncodingJSON fuzzes the string escaper alone
// against json.Marshal with random byte strings (valid and invalid
// UTF-8, controls, HTML-sensitive characters).
func TestJSONStringMatchesEncodingJSON(t *testing.T) {
	rng := workload.NewRNG(9)
	alphabet := []string{"a", "Z", "\"", "\\", "<", ">", "&", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "→",
		"\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80", "\U0001F600", "/", " "}
	var w jsonWriter
	for trial := 0; trial < 5000; trial++ {
		var s string
		for n := rng.IntN(12); n > 0; n-- {
			s += alphabet[rng.IntN(len(alphabet))]
		}
		w.buf = w.buf[:0]
		w.string(s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("string(%q) = %s, encoding/json %s", s, w.buf, want)
		}
	}
}

// hotStore is a small city in the shape of the benchmark's: one-box
// parcels, two-box L-shaped roads, large zones.
func hotStore(parcels int) *spatialdb.Store {
	const side = 1000
	store := spatialdb.NewStore(bbox.Rect(0, 0, side, side), spatialdb.RTree)
	rng := workload.NewRNG(5)
	for i := 0; i < parcels; i++ {
		x, y := rng.Range(0, side-12), rng.Range(0, side-12)
		store.MustInsert("parcels", fmt.Sprintf("p%d", i),
			region.FromBox(bbox.Rect(x, y, x+rng.Range(1, 12), y+rng.Range(1, 12))))
	}
	for i := 0; i < parcels/5; i++ {
		x, y := rng.Range(0, side-200), rng.Range(0, side-200)
		l, w := rng.Range(50, 200), rng.Range(2, 6)
		store.MustInsert("roads", fmt.Sprintf("r%d", i), region.FromBoxes(2,
			bbox.Rect(x, y, x+l, y+w), bbox.Rect(x, y, x+w, y+l)))
	}
	for i := 0; i < 40; i++ {
		x, y := rng.Range(0, side-300), rng.Range(0, side-300)
		store.MustInsert("zones", fmt.Sprintf("z%d", i),
			region.FromBox(bbox.Rect(x, y, x+rng.Range(100, 300), y+rng.Range(100, 300))))
	}
	return store
}

// hotTexts are the benchmark's query_hot texts (bench/gen.HotTemplates).
var hotTexts = []string{
	`find P in parcels given W where P <= W`,
	`find R in roads given W where R & W != 0`,
	`find P in parcels, Z in zones given W where Z & W != 0; P <= W; P <= Z`,
	`find R in roads, P in parcels given W where R & W != 0; P <= W; P & R != 0`,
	`find Z in zones, R in roads given W where Z & W != 0; R <= Z; R & W != 0`,
	`find P in parcels, Q in parcels given W where P <= W; Q <= W; P & Q != 0; P != Q`,
	`find Z in zones, R in roads, P in parcels given W where Z & W != 0; R <= W | Z | P; R & W != 0; R & P != 0; P !<= W`,
	`find Z in zones, P in parcels, R in roads given W where Z & W != 0; P <= Z & W; R & P != 0`,
}

var elapsedField = regexp.MustCompile(`"elapsed_us": ?\d+`)

func postQuery(t *testing.T, s *Server, path string, body []byte) []byte {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("POST %s: status %d: %s", path, w.Code, w.Body.String())
	}
	return elapsedField.ReplaceAll(w.Body.Bytes(), []byte(`"elapsed_us":0`))
}

// TestPooledBuffersDoNotAlias (run under -race) sends the eight hot query
// shapes from eight goroutines at once against one server, each at
// "workers": 1 and at "workers": 2, and compares every body — /query and
// /query/batch lines alike — with the answer the serial request got when
// it ran alone. A pooled frame, scratch or encode buffer shared between
// two in-flight requests (or two workers of one) would corrupt one of
// them. The ?stream=1 replies of both worker counts carry the same
// multiset of solution lines and the same summary line.
func TestPooledBuffersDoNotAlias(t *testing.T) {
	s := New(hotStore(1200), Options{})
	var bodies [][]byte // bodies[2i] is serial, bodies[2i+1] the same query at two workers
	for i, text := range hotTexts {
		for _, side := range []float64{150, 400} {
			x := float64(37*i) + side/3
			for _, workers := range []int{1, 2} {
				body, err := json.Marshal(queryRequest{Query: text, Workers: workers, Params: map[string]jsonRegion{
					"W": toJSONRegion(region.FromBox(bbox.Rect(x, x, x+side, x+side)))}})
				if err != nil {
					t.Fatal(err)
				}
				bodies = append(bodies, body)
			}
		}
	}
	for _, b := range bodies { // first pass: compile and cache every plan
		postQuery(t, s, "/query", b)
	}
	want := make([][]byte, len(bodies))
	nonEmpty := 0
	for i := 0; i < len(bodies); i += 2 {
		want[i] = postQuery(t, s, "/query", bodies[i])
		want[i+1] = want[i]
		if !bytes.Contains(want[i], []byte(`"count": 0,`)) {
			nonEmpty++
		}
	}
	if nonEmpty < len(bodies)/4 {
		t.Fatalf("only %d of %d reference answers have solutions", nonEmpty, len(bodies)/2)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range bodies {
					i := (k + 5*g) % len(bodies)
					if got := postQuery(t, s, "/query", bodies[i]); !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d: body of request %d differs from its sequential serial answer", g, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// One batch of everything, eight workers: each line equals the
	// /query answer, compacted.
	batch := slices.Concat([]byte(`{"concurrency":8,"queries":[`), bytes.Join(bodies, []byte(",")), []byte(`]}`))
	lines := bytes.Split(bytes.TrimSpace(postQuery(t, s, "/query/batch", batch)), []byte("\n"))
	if len(lines) != len(bodies)+1 {
		t.Fatalf("batch answered %d lines, want %d", len(lines), len(bodies)+1)
	}
	for _, line := range lines[:len(bodies)] {
		var res struct{ Index int }
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("batch line %s: %v", line, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, want[res.Index]); err != nil {
			t.Fatal(err)
		}
		wantLine := fmt.Sprintf(`{"index":%d,%s`, res.Index, compact.Bytes()[1:])
		if string(line) != wantLine {
			t.Errorf("batch line %d differs from the /query answer:\n%s\n%s", res.Index, line, wantLine)
		}
	}

	// ?stream=1: lines leave in discovery order, so compare sorted lines;
	// the summary stays last.
	for i := 0; i < len(bodies); i += 2 {
		var replies [2][][]byte
		for w := range replies {
			replies[w] = bytes.Split(bytes.TrimSpace(postQuery(t, s, "/query?stream=1", bodies[i+w])), []byte("\n"))
			n := len(replies[w]) - 1
			slices.SortFunc(replies[w][:n], bytes.Compare)
		}
		if !slices.EqualFunc(replies[0], replies[1], bytes.Equal) {
			t.Errorf("stream of request %d differs between 1 and 2 workers:\n%s\n%s",
				i, bytes.Join(replies[0], []byte("\n")), bytes.Join(replies[1], []byte("\n")))
		}
	}
}

// TestEmitPathAllocs pins the server's emit path: executing a cached
// query and encoding its reply costs a fixed number of allocations per
// request — the same for 30 solutions as for several hundred, serially
// and fanned out over two workers — because tuples go from the executor's
// frames straight into a pooled buffer.
func TestEmitPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	type input struct {
		text    string
		workers int
	}
	var inputs []input
	for _, workers := range []int{1, 2} {
		for _, text := range []string{hotTexts[0], hotTexts[2], hotTexts[7]} {
			inputs = append(inputs, input{text, workers})
		}
	}
	measure := func(parcels int) (allocs []float64, counts []int) {
		s := New(hotStore(parcels), Options{})
		store, gen := s.storeAndGen()
		for _, in := range inputs {
			req := queryRequest{Query: in.text, Workers: in.workers, Params: map[string]jsonRegion{
				"W": toJSONRegion(region.FromBox(bbox.Rect(100, 100, 500, 500)))}}
			count := 0
			run := func() {
				enc := acquireEncoder(true)
				enc.begin(-1)
				sum, err := s.execQuery(context.Background(), store, gen, store.Epoch(), &req, enc.add)
				if err != nil {
					t.Fatal(err)
				}
				enc.finish(&sum, sum.naive)
				count = sum.stats.Solutions
				enc.release()
			}
			run() // compile and cache the plan, warm the pools
			// 100 runs amortise the one-off buffer growth of a parallel run's
			// frames, which trade roles after AllocsPerRun empties the pools.
			allocs = append(allocs, testing.AllocsPerRun(100, run))
			counts = append(counts, count)
		}
		return allocs, counts
	}
	small, smallCounts := measure(300)
	large, largeCounts := measure(3000)
	t.Logf("allocs per request: %v for %v solutions, %v for %v solutions", small, smallCounts, large, largeCounts)
	// 37–42 fixed allocations per serial request measured at commit time
	// (normalisation, parameter decoding, the run's context and algebra),
	// a few more with two workers.
	const budget = 96
	for i, in := range inputs {
		if largeCounts[i] < 5*smallCounts[i] || smallCounts[i] == 0 {
			t.Fatalf("fixture does not scale: %v vs %v solutions", smallCounts, largeCounts)
		}
		if large[i] > budget || large[i] > small[i]+4 {
			t.Errorf("%q at %d workers: %v allocs for %d solutions, %v for %d: want a fixed budget <= %d",
				in.text, in.workers, large[i], largeCounts[i], small[i], smallCounts[i], budget)
		}
	}
}

// TestColdQueryBytes pins what a plan-cache miss allocates: a POST /query
// of a 4-variable text that misses the cache, through Server.Handler(),
// from decoding the body to encoding the reply. The texts differ only in
// their variables' names, so each request normalizes, parses and
// compiles afresh; the requests and recorders are built outside the
// measurement.
func TestColdQueryBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation floors are pinned on the normal build")
	}
	h := New(hotStore(300), Options{}).Handler()
	const warm, measured = 64, 256
	reqs := make([]*http.Request, warm+measured)
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		text := fmt.Sprintf("find Z%[1]d in zones, R%[1]d in roads, P%[1]d in parcels, Q%[1]d in parcels given W "+
			"where Z%[1]d & W != 0; R%[1]d <= Z%[1]d; R%[1]d & P%[1]d != 0; Q%[1]d & P%[1]d != 0; P%[1]d != Q%[1]d", i)
		body := fmt.Sprintf(`{"query": %q, "params": {"W": {"boxes": [{"lo": [100, 100], "hi": [400, 400]}]}}, "limit": 1}`, text)
		reqs[i] = httptest.NewRequest("POST", "/query", bytes.NewReader([]byte(body)))
		recs[i] = httptest.NewRecorder()
		recs[i].Body.Grow(4096)
	}
	for i := range warm {
		h.ServeHTTP(recs[i], reqs[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < len(reqs); i++ {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, w := range recs {
		if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"cached": false`)) {
			t.Fatalf("request %d: status %d, want an uncached 200: %s", i, w.Code, w.Body.Bytes())
		}
	}
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / measured
	allocsPer := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("cold POST /query: %.0f B and %.1f allocations per request", bytesPer, allocsPer)
	// 59.2 kB and 666 allocations per request before the adaptive compile
	// took its scratch from a pool and lexing stopped growing token
	// slices; 13.9 kB and 174 after. The budget leaves room for a pool
	// emptied by a GC cycle mid-measurement.
	const budget = 16 << 10
	if bytesPer > budget {
		t.Errorf("a cold POST /query allocates %.0f B, want <= %d", bytesPer, budget)
	}
}
