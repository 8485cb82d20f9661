package main

import (
	"fmt"
	"math"
	"os"
)

// repeatSets runs the full set of workloads n times on the same code and
// prints, for every end-to-end metric on every workload, each set's
// value, the largest relative difference from the first set, and the
// bound BENCHMARK.json allows. It exits non-zero on any breach or any
// incorrect run.
func repeatSets(cfg *config, sp *spec, n int) (int, error) {
	cfg.trace = false
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	code := 0
	for set := 0; set < n; set++ {
		for _, name := range workloadOrder {
			rep, err := workloads[name](cfg)
			if err != nil {
				return 1, fmt.Errorf("set %d, %s: %w", set+1, name, err)
			}
			rep.print(os.Stdout)
			if !rep.correct() {
				code = 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, m := range sp.EndToEnd {
				values[name][m.Name] = append(values[name][m.Name], rep.get(m.Name))
			}
		}
	}
	fmt.Printf("\n%-16s %-14s %s\n", "workload", "metric", "values per set | max rel. diff from set 1 | bound")
	for _, name := range workloadOrder {
		for _, m := range sp.EndToEnd {
			vs := values[name][m.Name]
			worst := 0.0
			for _, v := range vs[1:] {
				worst = math.Max(worst, math.Abs(v-vs[0])/vs[0])
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict = "BREACH"
				code = 1
			}
			fmt.Printf("%-16s %-14s", name, m.Name)
			for _, v := range vs {
				fmt.Printf(" %12.4f", v)
			}
			fmt.Printf(" %-5s | %6.2f%% | %4.0f%%  %s\n", m.Unit, worst*100, m.Bound*100, verdict)
		}
	}
	return code, nil
}
