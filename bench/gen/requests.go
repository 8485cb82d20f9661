package gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bbox"
	"repro/internal/region"
	"repro/internal/workload"
)

// A request's content depends only on (seed, stream, index), never on
// which client sends it or when, so the stream is the same however the
// clients interleave.
func indexRNG(seed, stream uint64, i int) *workload.RNG {
	return workload.NewRNG(seed*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03 + uint64(i)*0x2545f4914f6cdd1d + 1)
}

// Query is one POST /query request.
type Query struct {
	Text   string
	Param  string   // name of the single given parameter
	Window bbox.Box // its value
	Limit  int      // 0: unlimited
}

// Params binds the window to the parameter, as the server does.
func (q Query) Params() map[string]*region.Region {
	return map[string]*region.Region{q.Param: region.FromBox(q.Window)}
}

// Body is the request's JSON body.
func (q Query) Body() []byte {
	b := make([]byte, 0, len(q.Text)+128)
	b = append(b, `{"query":"`...)
	b = append(b, q.Text...) // the generated texts hold nothing JSON escapes
	b = append(b, `","params":{"`...)
	b = append(b, q.Param...)
	b = append(b, `":{"boxes":`...)
	b = AppendBoxes(b, []bbox.Box{q.Window})
	b = append(b, "}}"...)
	if q.Limit > 0 {
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(q.Limit), 10)
	}
	return append(b, '}')
}

// HotTemplate is one query_hot text with the side ranges of its narrow
// and wide windows. The ranges are tuned per text so that a narrow
// window costs the server a few hundred microseconds and a wide one a
// few milliseconds: joins grow faster with the window than single-layer
// retrievals do.
type HotTemplate struct {
	Text         string
	Narrow, Wide [2]float64
}

// HotTemplates are the query_hot workload's texts: 1- to 3-variable
// containment / overlap / disequation queries over the city layers, all
// parameterised by one window W. Eight texts against a 128-entry plan
// cache: after warm-up every request is a cache hit. Each find clause
// lists its variables in an order that prunes early, because the answer
// check compiles the texts statically, in exactly that order.
var HotTemplates = []HotTemplate{
	// parcels inside the window; wide windows return ~700 tuples, so
	// response encoding dominates
	{`find P in parcels given W where P <= W`, [2]float64{220, 280}, [2]float64{600, 750}},
	// roads crossing the window: bounding boxes overlap far more often
	// than the L-shapes do, so the exact filter decides
	{`find R in roads given W where R & W != 0`, [2]float64{350, 450}, [2]float64{1100, 1400}},
	// parcels inside the window and inside a zone (Z & W != 0 is implied;
	// without it the planner retrieves every zone first)
	{`find P in parcels, Z in zones given W where Z & W != 0; P <= W; P <= Z`, [2]float64{120, 180}, [2]float64{350, 450}},
	// parcels inside the window touched by a road that crosses it
	{`find R in roads, P in parcels given W where R & W != 0; P <= W; P & R != 0`, [2]float64{80, 120}, [2]float64{180, 240}},
	// zones meeting the window, with the roads inside them that cross it
	{`find Z in zones, R in roads given W where Z & W != 0; R <= Z; R & W != 0`, [2]float64{250, 350}, [2]float64{900, 1200}},
	// distinct overlapping parcel pairs inside the window
	{`find P in parcels, Q in parcels given W where P <= W; Q <= W; P & Q != 0; P != Q`, [2]float64{120, 180}, [2]float64{280, 340}},
	// the paper's smuggler shape: a road from a parcel outside the
	// window into it, never leaving window ∪ zone ∪ parcel; its cost
	// follows the roads' extent far more than the window's
	{`find Z in zones, R in roads, P in parcels given W where Z & W != 0; R <= W | Z | P; R & W != 0; R & P != 0; P !<= W`, [2]float64{25, 45}, [2]float64{60, 80}},
	// parcels in a zone's part of the window, and the roads touching them
	{`find Z in zones, P in parcels, R in roads given W where Z & W != 0; P <= Z & W; R & P != 0`, [2]float64{60, 100}, [2]float64{130, 170}},
}

// Hot returns request i of the query_hot stream. Text and width follow a
// fixed cycle — the texts in turn, every fifth round wide — so every
// stretch of the stream holds the same mix and only the windows' places
// and exact sizes are drawn; an independent draw per request would let
// the share of expensive requests, and with it every throughput figure,
// wander from segment to segment.
func Hot(seed uint64, i int) Query {
	rng := indexRNG(seed, 1, i)
	t := HotTemplates[i%len(HotTemplates)]
	r := t.Narrow
	if (i/len(HotTemplates))%5 == 4 {
		r = t.Wide
	}
	side := rng.Range(r[0], r[1])
	x, y := rng.Range(0, CitySide-side), rng.Range(0, CitySide-side)
	return Query{Text: t.Text, Param: "W", Window: rect(x, y, x+side, y+side)}
}

// ColdTextCount is how many distinct texts query_cold cycles through:
// sixteen times the server's default 128-entry plan cache, sent
// round-robin, so an entry is always evicted before its text returns.
const ColdTextCount = 2048

// ColdVars is the number of retrieval variables in every query_cold
// text. Four is the largest count for which the adaptive planner still
// enumerates every retrieval order (24 compiles per miss).
const ColdVars = 4

var townLayers = []string{"towns", "roads", "states", "metal1", "metal2", "vias"}

// meets[a]: the layers whose objects commonly overlap those of layer a.
// Consecutive variables of a text come from layers that meet, so a fair
// share of the texts have solutions.
var meets = map[string][]string{
	"towns":  {"roads", "states"},
	"roads":  {"towns", "states", "roads", "metal1", "metal2"},
	"states": {"towns", "roads", "metal1", "metal2", "vias"},
	"metal1": {"metal2", "vias", "states", "roads"},
	"metal2": {"metal1", "vias", "states", "roads"},
	"vias":   {"metal1", "metal2", "states"},
}

// contains[a][b]: an object of layer a can lie inside one of layer b.
var contains = map[string]map[string]bool{
	"towns": {"states": true},
	"vias":  {"metal1": true, "metal2": true, "states": true},
	"roads": {"states": true},
}

// ColdText is one query_cold text with the name of its parameter.
type ColdText struct {
	Text  string
	Param string
}

// ColdTexts returns the query_cold texts: the E10 shape (a chain of
// containments and overlaps, overlaps with the parameter, one
// disequation) over the town layers, with random variable names, a
// shuffled find clause and shuffled constraints. lang.Normalize is
// lexical, so each text is its own plan-cache key.
func ColdTexts(seed uint64) []ColdText {
	out := make([]ColdText, 0, ColdTextCount)
	seen := make(map[string]bool, ColdTextCount)
	for i := 0; len(out) < ColdTextCount; i++ {
		ct := coldText(indexRNG(seed, 2, i))
		if !seen[ct.Text] {
			seen[ct.Text] = true
			out = append(out, ct)
		}
	}
	return out
}

func coldText(rng *workload.RNG) ColdText {
	const n = ColdVars
	names := make([]string, 0, n+1)
	taken := map[string]bool{}
	for len(names) < n+1 {
		nm := string(rune('A'+rng.IntN(26))) + strconv.Itoa(rng.IntN(1000))
		if !taken[nm] {
			taken[nm] = true
			names = append(names, nm)
		}
	}
	param, vars := names[n], names[:n]
	layers := make([]string, n)
	layers[0] = townLayers[rng.IntN(len(townLayers))]
	for i := 1; i < n; i++ {
		next := meets[layers[i-1]]
		layers[i] = next[rng.IntN(len(next))]
	}
	cons := []string{fmt.Sprintf("%s & %s != 0", vars[0], param)}
	for i := 0; i+1 < n; i++ {
		switch {
		case contains[layers[i]][layers[i+1]] && rng.IntN(2) == 0:
			cons = append(cons, fmt.Sprintf("%s <= %s", vars[i], vars[i+1]))
		case contains[layers[i+1]][layers[i]] && rng.IntN(2) == 0:
			cons = append(cons, fmt.Sprintf("%s <= %s", vars[i+1], vars[i]))
		default:
			cons = append(cons, fmt.Sprintf("%s & %s != 0", vars[i], vars[i+1]))
		}
		if rng.IntN(3) == 0 {
			cons = append(cons, fmt.Sprintf("%s & %s != 0", vars[i+1], param))
		}
	}
	// The disequation: two variables of one layer must differ; without
	// such a pair, the last variable must stick out of the parameter.
	diseq := fmt.Sprintf("%s !<= %s", vars[n-1], param)
pair:
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if layers[a] == layers[b] {
				diseq = fmt.Sprintf("%s != %s", vars[a], vars[b])
				break pair
			}
		}
	}
	cons = append(cons, diseq)
	shuffle(rng, len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })

	find := make([]string, n)
	for i := range find {
		find[i] = vars[i] + " in " + layers[i]
	}
	shuffle(rng, n, func(i, j int) { find[i], find[j] = find[j], find[i] })
	return ColdText{
		Text:  "find " + strings.Join(find, ", ") + " given " + param + " where " + strings.Join(cons, "; "),
		Param: param,
	}
}

func shuffle(rng *workload.RNG, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, rng.IntN(i+1))
	}
}

// Cold returns request i of the query_cold stream: text i mod
// ColdTextCount, a window covering a ninth to a quarter of the town
// universe, and limit 1 so execution stays small beside compilation.
func Cold(seed uint64, texts []ColdText, i int) Query {
	rng := indexRNG(seed, 3, i)
	ct := texts[i%len(texts)]
	side := rng.Range(330, 500)
	x, y := rng.Range(0, 1000-side), rng.Range(0, 1000-side)
	return Query{Text: ct.Text, Param: ct.Param, Window: rect(x, y, x+side, y+side), Limit: 1}
}

// Write is one PUT of a parcel-sized box under a name.
type Write struct {
	Layer string
	Name  string
	Box   bbox.Box
}

// Path is the object's URL path.
func (w Write) Path() string { return "/layers/" + w.Layer + "/objects/" + w.Name }

// Body is the PUT body.
func (w Write) Body() []byte {
	b := append(make([]byte, 0, 96), `{"boxes":`...)
	b = AppendBoxes(b, []bbox.Box{w.Box})
	return append(b, '}')
}

// IngestOp returns write i of one ingest client: a new parcel under a
// name no other write uses. Replacing or deleting an object makes the
// store rebuild the layer's whole index (tens of milliseconds at this
// size), which would bury the log append and fsync this workload exists
// to measure, so every write is an insert.
func IngestOp(seed uint64, client, i int) Write {
	rng := indexRNG(seed, 4+uint64(client), i)
	return Write{
		Layer: "parcels",
		Name:  "c" + strconv.Itoa(client) + "-" + strconv.Itoa(i),
		Box:   ParcelBox(rng),
	}
}

// PacedWrite returns write i of the mixed_replica writer: a new parcel
// under a fresh name, so "visible on the replica" is a GET turning 200.
func PacedWrite(seed uint64, i int) Write {
	rng := indexRNG(seed, 16, i)
	return Write{Layer: "parcels", Name: "w" + strconv.Itoa(i), Box: ParcelBox(rng)}
}
