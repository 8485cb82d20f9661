// Service: the §2 smuggler example end to end over HTTP against boolqd.
//
// The program starts an in-process boolqd server on a loopback socket,
// uploads the generated smuggler map through the snapshot endpoint, and
// then acts as a plain HTTP client: it POSTs the paper's query twice —
// the first request parses and compiles, the second hits the plan cache —
// verifies both answers against the in-process boolq.CompileAndRun, adds
// a town through the CRUD API (which bumps the store epoch and
// invalidates the cached plan), bulk-loads a batch of towns through
// objects:bulk as NDJSON (one write-lock acquisition, one epoch bump for
// the whole batch), fans three queries through the streaming /query/batch
// endpoint, demonstrates bounded execution (a limit that truncates the
// result set, and the per-solution ?stream=1 NDJSON mode), and prints
// the /stats counters at the end. Run with:
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"

	boolq "repro"
	"repro/internal/server"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

const queryText = `
find T in towns, R in roads, B in states
given C, A
where A <= C; B <= C; R <= A | B | T;
      R & A != 0; R & T != 0; T !<= C
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The server side: an empty store behind boolqd on a loopback port.
	m := workload.GenMap(workload.MapConfig{Seed: 1991})
	empty := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	srv := server.New(empty, server.Options{Workers: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("boolqd serving on %s\n\n", base)

	// Load the map through the snapshot endpoint, exactly as an operator
	// would restore a saved store.
	seed := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(seed)
	var snap bytes.Buffer
	if err := seed.Save(&snap); err != nil {
		return err
	}
	var loaded struct {
		Layers map[string]int `json:"layers"`
	}
	if err := post(base+"/snapshot", snap.Bytes(), &loaded); err != nil {
		return err
	}
	fmt.Printf("snapshot loaded: %v\n\n", loaded.Layers)

	// The query, twice: cold then cached.
	params := map[string]any{
		"C": regionJSON(m.Country),
		"A": regionJSON(m.Area),
	}
	req, _ := json.Marshal(map[string]any{"query": queryText, "params": params})
	var first, second queryResult
	if err := post(base+"/query", req, &first); err != nil {
		return err
	}
	fmt.Printf("first POST /query:  %d solutions, cached=%v, %dµs\n",
		first.Count, first.Cached, first.ElapsedUS)
	for i, s := range first.Solutions {
		fmt.Printf("  %d. enter at %s, drive %s, staying inside %s\n",
			i+1, s.Names[0], s.Names[1], s.Names[2])
	}
	if err := post(base+"/query", req, &second); err != nil {
		return err
	}
	fmt.Printf("second POST /query: %d solutions, cached=%v, %dµs\n\n",
		second.Count, second.Cached, second.ElapsedUS)

	// Cross-check against the in-process library.
	q, err := boolq.ParseQuery(queryText)
	if err != nil {
		return err
	}
	local, err := boolq.CompileAndRun(q, srv.Store(),
		map[string]*boolq.Region{"C": m.Country, "A": m.Area})
	if err != nil {
		return err
	}
	if len(local.Solutions) != first.Count || first.Count != second.Count {
		return fmt.Errorf("HTTP and library disagree: %d vs %d vs %d",
			first.Count, second.Count, len(local.Solutions))
	}
	fmt.Printf("library cross-check: %d solutions ✓\n", len(local.Solutions))

	// A mutation through the CRUD API invalidates the cached plan.
	town := map[string]any{"boxes": []any{
		map[string]any{"lo": []float64{95, 495}, "hi": []float64{105, 505}},
	}}
	townBody, _ := json.Marshal(town)
	putReq, _ := http.NewRequest(http.MethodPut,
		base+"/layers/towns/objects/new-border-town", bytes.NewReader(townBody))
	resp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var third queryResult
	if err := post(base+"/query", req, &third); err != nil {
		return err
	}
	fmt.Printf("after PUT town:     %d solutions, cached=%v (epoch bumped)\n\n",
		third.Count, third.Cached)

	// Bulk ingestion: a batch of far-corner towns as NDJSON. The store
	// takes its write lock once and bumps the epoch once for the batch.
	var nd bytes.Buffer
	for i := 0; i < 40; i++ {
		x, y := 900+float64(i%8)*10, 905+float64(i/8)*15
		line, _ := json.Marshal(map[string]any{
			"name":  fmt.Sprintf("outpost-%d", i),
			"boxes": []any{map[string]any{"lo": []float64{x, y}, "hi": []float64{x + 4, y + 4}}},
		})
		nd.Write(line)
		nd.WriteByte('\n')
	}
	resp, err = http.Post(base+"/layers/towns/objects:bulk", "application/x-ndjson", &nd)
	if err != nil {
		return err
	}
	var bulk struct {
		Inserted int    `json:"inserted"`
		Failed   int    `json:"failed"`
		Epoch    uint64 `json:"epoch"`
	}
	if err := decode(base+"/layers/towns/objects:bulk", resp, &bulk); err != nil {
		return err
	}
	resp.Body.Close()
	fmt.Printf("bulk NDJSON upload:  %d towns inserted, %d failed, epoch %d\n\n",
		bulk.Inserted, bulk.Failed, bulk.Epoch)

	// Batch execution: three queries through one request, results
	// streamed back as NDJSON in completion order.
	batchBody, _ := json.Marshal(map[string]any{
		"queries": []any{
			map[string]any{"query": queryText, "params": params},
			map[string]any{"query": "find T in towns given C where T !<= C",
				"params": map[string]any{"C": params["C"]}},
			map[string]any{"query": "find R in roads given A where R & A != 0",
				"params": map[string]any{"A": params["A"]}},
		},
	})
	resp, err = http.Post(base+"/query/batch", "application/json", bytes.NewReader(batchBody))
	if err != nil {
		return err
	}
	fmt.Println("POST /query/batch (NDJSON stream):")
	sc := json.NewDecoder(resp.Body)
	for {
		var line struct {
			Index  int    `json:"index"`
			Count  int    `json:"count"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
			Done   bool   `json:"done"`
			Errors int    `json:"errors"`
		}
		if err := sc.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			resp.Body.Close()
			return err
		}
		if line.Done {
			fmt.Printf("  summary: %d errors\n\n", line.Errors)
			break
		}
		if line.Error != "" {
			fmt.Printf("  query %d: error: %s\n", line.Index, line.Error)
			continue
		}
		fmt.Printf("  query %d: %d solutions (cached=%v)\n", line.Index, line.Count, line.Cached)
	}
	resp.Body.Close()

	// Bounded execution: a solution limit caps the result set (the
	// response is flagged "truncated"), and timeout_ms bounds the run —
	// both essential once queries come from untrusted clients.
	limReq, _ := json.Marshal(map[string]any{
		"query": queryText, "params": params, "limit": 1, "timeout_ms": 5000,
	})
	var limited queryResult
	if err := post(base+"/query", limReq, &limited); err != nil {
		return err
	}
	fmt.Printf("limit=1 query:      %d of %d solutions, truncated=%v\n\n",
		limited.Count, first.Count, limited.Truncated)

	// Streaming mode: each solution leaves as its own NDJSON line the
	// moment one of the server's four workers finds it; the final line
	// summarizes the run. It must carry exactly the first /query's solutions.
	resp, err = http.Post(base+"/query?stream=1", "application/json", bytes.NewReader(req))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return fmt.Errorf("stream query: %s: %s", resp.Status, msg)
	}
	fmt.Println("POST /query?stream=1 (NDJSON stream):")
	dec := json.NewDecoder(resp.Body)
	streamed := 0
	for {
		var line struct {
			Solution *struct {
				Names []string `json:"names"`
			} `json:"solution"`
			Error     string `json:"error"`
			Done      bool   `json:"done"`
			Count     int    `json:"count"`
			Truncated bool   `json:"truncated"`
		}
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			resp.Body.Close()
			return err
		}
		if line.Error != "" {
			resp.Body.Close()
			return fmt.Errorf("stream query: %s", line.Error)
		}
		if line.Done {
			fmt.Printf("  summary: %d solutions, truncated=%v\n\n", line.Count, line.Truncated)
			if line.Count != first.Count || streamed != first.Count {
				resp.Body.Close()
				return fmt.Errorf("stream query: %d solution lines, summary count %d, /query count %d",
					streamed, line.Count, first.Count)
			}
			break
		}
		if line.Solution != nil {
			streamed++
			fmt.Printf("  solution: %v\n", line.Solution.Names)
		}
	}
	resp.Body.Close()

	var stats struct {
		Epoch uint64 `json:"epoch"`
		Cache struct {
			Hits, Misses uint64
		} `json:"cache"`
		Bulk struct {
			Batches, Objects int64
		} `json:"bulk"`
		Queries struct {
			Timeouts, Truncated int64
		} `json:"queries"`
	}
	if err := get(base+"/stats", &stats); err != nil {
		return err
	}
	fmt.Println(strings.Repeat("-", 50))
	fmt.Printf("epoch %d, plan cache: %d hits / %d misses, bulk: %d objects in %d batches, "+
		"bounded runs: %d timeouts / %d truncated\n",
		stats.Epoch, stats.Cache.Hits, stats.Cache.Misses, stats.Bulk.Objects, stats.Bulk.Batches,
		stats.Queries.Timeouts, stats.Queries.Truncated)
	return nil
}

type queryResult struct {
	Count     int  `json:"count"`
	Cached    bool `json:"cached"`
	Truncated bool `json:"truncated"`
	ElapsedUS int  `json:"elapsed_us"`
	Solutions []struct {
		Names []string `json:"names"`
	} `json:"solutions"`
}

func regionJSON(r *boolq.Region) any {
	boxes := []any{}
	for _, b := range r.Boxes() {
		boxes = append(boxes, map[string]any{"lo": b.Lo, "hi": b.Hi})
	}
	return map[string]any{"boxes": boxes}
}

func post(url string, body []byte, out any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(url, resp, out)
}

func get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(url, resp, out)
}

func decode(url string, resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
