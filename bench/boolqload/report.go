package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/bench/harness"
)

// metric is one reported number. Spread and N are printed beside it but
// are not part of the result line.
type metric struct {
	name   string
	value  float64
	unit   string
	spread *harness.Spread // per-segment min/max and sample count, if any
	note   string
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	problems  []string // why the run is not correct, if it is not
	metrics   []metric
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *report) addSpread(name string, s harness.Spread, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: s.Median, unit: unit, spread: &s})
}

func (r *report) addNote(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// fail records failed operations (or a failed check) with the reason.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// get returns a metric's value (0 if the run did not produce it).
func (r *report) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// print writes every metric by name with its unit, for people.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  attempted=%d failed=%d correct=%v\n",
		r.workload, r.seed, r.attempted, r.failed, r.correct())
	for _, p := range r.problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("   %-34s %14.4f %-6s", m.name, m.value, m.unit)
		if m.spread != nil {
			line += fmt.Sprintf(" segments[min %.4f max %.4f] n=%d", m.spread.Min, m.spread.Max, m.spread.N)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// resultLine is the one-line JSON object the driver reads.
func (r *report) resultLine(names []string, units map[string]string) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]val{}}
	have := map[string]metric{}
	for _, m := range r.metrics {
		have[m.name] = m
	}
	for _, n := range names {
		// A per-layer metric the workload has no use for (wal.* on a
		// read-only workload) is reported as 0 with the declared unit.
		out.Metrics[n] = val{Value: have[n].value, Unit: units[n]}
	}
	return json.Marshal(out)
}
