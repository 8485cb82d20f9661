// Command boolqload is the boolqd benchmark: it spawns real boolqd
// processes, loads them over HTTP with seeded datasets, drives one of
// four workloads at them from two clients, checks the answers, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object with the metrics BENCHMARK.json declares. bench/run.sh
// builds both programs and runs this one; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/bench/harness"
)

// spec is BENCHMARK.json: the metric names, units, directions and
// bounds live there and nowhere else.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func main() {
	// Two client goroutines on a two-core machine; the servers keep
	// their own default.
	runtime.GOMAXPROCS(2)
	code, err := run()
	harness.KillAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "boolqload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		root     = flag.String("root", ".", "the checkout's root (holds BENCHMARK.json)")
		boolqd   = flag.String("boolqd", "", "path of the built boolqd binary (required)")
		workload = flag.String("workload", "", "workload to run (empty: all four in turn)")
		seed     = flag.Uint64("seed", 1, "seed of datasets and request streams")
		seconds  = flag.Int("seconds", 0, "the driver passes run_seconds of BENCHMARK.json here; any other value is refused")
		trace    = flag.Int("trace", 0, "1: also measure the layers in-process and print the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the full set this many times and compare the sets against the bounds")
	)
	flag.Parse()
	if *boolqd == "" {
		return 2, fmt.Errorf("-boolqd is required (bench/run.sh passes it)")
	}
	sp, err := readSpec(*root)
	if err != nil {
		return 2, err
	}
	// The window's length is run_seconds and nothing else: the server
	// flags and the recorded baseline go with it, and numbers from a
	// window of another length compare with none of them.
	if *seconds != 0 && *seconds != sp.RunSeconds {
		return 2, fmt.Errorf("-seconds %d: the measured window is run_seconds of BENCHMARK.json (%d s) and cannot be set", *seconds, sp.RunSeconds)
	}
	out := filepath.Join(*root, "bench", "out")
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return 2, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)

	// Children die with this process; on a signal they are killed and
	// the data dirs removed before exiting.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		harness.KillAll()
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	abs, err := filepath.Abs(*boolqd)
	if err != nil {
		return 2, err
	}
	cfg := &config{boolqd: abs, outDir: out, tmpDir: tmp, seed: *seed, window: time.Duration(sp.RunSeconds) * time.Second, trace: *trace != 0}

	if *repeat > 0 {
		return repeatSets(cfg, sp, *repeat)
	}
	names := workloadOrder
	if *workload != "" {
		if workloads[*workload] == nil {
			return 2, fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}
	code := 0
	for _, name := range names {
		rep, err := workloads[name](cfg)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", name, err)
		}
		line, err := emit(cfg, sp, rep)
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
		if !rep.correct() {
			code = 1
		}
	}
	return code, nil
}

// emit prints the report for people, writes it as JSON under bench/out,
// and returns the result line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func emit(cfg *config, sp *spec, rep *report) ([]byte, error) {
	rep.add("check.fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	rep.print(os.Stdout)
	declared := sp.EndToEnd
	if cfg.trace {
		declared = sp.PerLayer
	}
	names := make([]string, len(declared))
	units := map[string]string{}
	for i, m := range declared {
		names[i] = m.Name
		units[m.Name] = m.Unit
	}
	all := map[string]string{}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		all[m.Name] = m.Unit
	}
	for _, m := range rep.metrics {
		if u, ok := all[m.name]; !ok || u != m.unit {
			return nil, fmt.Errorf("metric %s (%s) is not declared with that unit in BENCHMARK.json", m.name, m.unit)
		}
	}
	for _, m := range sp.EndToEnd {
		// Every workload reports every end-to-end metric, and none is
		// ever zero; a per-layer metric a workload has no use for is 0.
		if rep.get(m.Name) == 0 {
			return nil, fmt.Errorf("%s did not produce the end-to-end metric %s", rep.workload, m.Name)
		}
	}
	line, err := rep.resultLine(names, units)
	if err != nil {
		return nil, err
	}
	suffix := ".json"
	if cfg.trace {
		suffix = ".layers.json"
	}
	return line, cfg.writeFile(rep.workload+suffix, append(line, '\n'))
}
