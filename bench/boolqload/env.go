package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/gen"
	"repro/bench/harness"
)

// config is what the command line fixes for a run.
type config struct {
	boolqd string // path of the server binary
	outDir string // where result and trace files go
	tmpDir string // parent of every data dir; removed on exit
	seed   uint64
	window time.Duration // the measured window: run_seconds of BENCHMARK.json
	trace  bool
}

// baseFlags are the server flags every workload shares: the R-tree
// backend, the adaptive planner, and admission control off (its flags
// are simply not given).
var baseFlags = []string{"-index", "rtree", "-plan", "adaptive"}

// env is the running system a workload is measured against.
type env struct {
	servers []*harness.Proc // every server process, for CPU and memory
	target  *harness.Proc   // where writes and bulk loads go
	reader  *harness.Proc   // where queries go
	dir     string          // the durable server's data dir, if any

	loadSeconds float64 // time spent inside objects:bulk requests
	loadObjects int
}

// loadUSPerObject is the bulk load's wall time per object, in µs.
func (e *env) loadUSPerObject() float64 {
	return e.loadSeconds / float64(e.loadObjects) * 1e6
}

// stopServers kills the servers and keeps the data dir.
func (e *env) stopServers() {
	for _, p := range e.servers {
		p.Kill()
	}
	e.servers = nil
}

func (e *env) close() {
	e.stopServers()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// peakRSSMB sums the servers' resident-set high-water marks.
func (e *env) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range e.servers {
		mb, err := p.PeakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", p.Name, err)
		}
		total += mb
	}
	return total, nil
}

// setupTimeout bounds one spawn-to-ready wait.
const setupTimeout = 60 * time.Second

// spawn starts one boolqd with the shared flags plus extra and waits
// until it is ready. The port is chosen by asking the kernel for a free
// one and releasing it, so another process can take it in between; a
// server that exits before it is ready is started again, twice at most.
func (cfg *config) spawn(name string, extra ...string) (*harness.Proc, error) {
	args := append(append([]string{}, baseFlags...), extra...)
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var p *harness.Proc
		if p, err = harness.Spawn(cfg.boolqd, name, args...); err != nil {
			return nil, err
		}
		if err = p.WaitReady(setupTimeout); err == nil {
			return p, nil
		}
		exited := p.Exited()
		p.Kill()
		if !exited {
			break // it runs but never turned ready: starting it again will not help
		}
	}
	return nil, err
}

// dataDir makes a fresh data directory under the run's temp dir.
func (cfg *config) dataDir(prefix string) (string, error) {
	return os.MkdirTemp(cfg.tmpDir, prefix+"-")
}

// load sends the pre-encoded bulk bodies to the server and checks that
// every object went in. It returns the time spent in the requests.
func load(p *harness.Proc, bodies []gen.BulkBody) (float64, error) {
	c := harness.NewClient(2 * time.Minute)
	defer c.Close()
	start := time.Now()
	for _, b := range bodies {
		status, resp, err := c.Do(http.MethodPost, p.URL()+"/layers/"+b.Layer+"/objects:bulk", b.NDJSON)
		if err != nil {
			return 0, fmt.Errorf("bulk load into %s: %w", p.Name, err)
		}
		var out struct {
			Inserted int `json:"inserted"`
		}
		if status != http.StatusOK || json.Unmarshal(resp, &out) != nil || out.Inserted != b.Objects {
			return 0, fmt.Errorf("bulk load into %s/%s: status %d, inserted %d of %d: %.200s",
				p.Name, b.Layer, status, out.Inserted, b.Objects, resp)
		}
	}
	return time.Since(start).Seconds(), nil
}

// setUp builds the environment n times and returns the last one with
// the median of the n set-up times. Set-up is spawn → loaded → ready,
// before any warm-up.
func setUp(n int, build func() (*env, error)) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = build(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return e, harness.Median(times), nil
}

// memoryEnv is an in-memory boolqd loaded with the dataset.
func (cfg *config) memoryEnv(d *gen.Dataset, bodies []gen.BulkBody) (*env, error) {
	p, err := cfg.spawn("boolqd", "-universe", d.UniverseFlag())
	if err != nil {
		return nil, err
	}
	e := &env{servers: []*harness.Proc{p}, target: p, reader: p, loadObjects: d.Objects()}
	if e.loadSeconds, err = load(p, bodies); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// durableEnv is a boolqd over a fresh data dir, loaded with the dataset.
func (cfg *config) durableEnv(d *gen.Dataset, bodies []gen.BulkBody, flags ...string) (*env, error) {
	dir, err := cfg.dataDir(d.Name)
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, loadObjects: d.Objects()}
	p, err := cfg.spawn("primary", append([]string{"-data-dir", dir, "-universe", d.UniverseFlag()}, flags...)...)
	if err != nil {
		e.close()
		return nil, err
	}
	e.servers, e.target, e.reader = []*harness.Proc{p}, p, p
	if e.loadSeconds, err = load(p, bodies); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// checkpoint forces a checkpoint on a durable server.
func checkpoint(c *harness.Client, p *harness.Proc) error {
	status, body, err := c.Do(http.MethodPost, p.URL()+"/checkpoint", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("POST /checkpoint on %s: status %d, %v: %.200s", p.Name, status, err, body)
	}
	return nil
}

// writeFile writes data under the output directory.
func (cfg *config) writeFile(name string, data []byte) error {
	return os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644)
}
