// Command spatialq runs constraint queries against a generated spatial
// database. It demonstrates the full pipeline on the paper's scenarios:
//
//	spatialq                         # smuggler query on the default map
//	spatialq -explain                # also print the compiled plan
//	spatialq -index gridfile -seed 7 # choose index backend and map seed
//	spatialq -query q.bq             # run a query from a file
//	spatialq -naive                  # run the unoptimized baseline too
//
// Query files use the textual language (see internal/lang):
//
//	find T in towns, R in roads, B in states
//	given C, A
//	where A <= C; B <= C; R <= A | B | T;
//	      R & A != 0; R & T != 0; T !<= C
//
// The generated map provides layers "towns", "roads", "states" and the
// parameters C (country) and A (destination area).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lang"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spatialq:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed      = flag.Uint64("seed", 42, "map generator seed")
		scale     = flag.Int("scale", 1, "map size multiplier")
		indexName = flag.String("index", "rtree", "index backend: scan|rtree|point-rtree|gridfile|zorder")
		queryFile = flag.String("query", "", "query file (default: built-in smuggler query)")
		explain   = flag.Bool("explain", false, "print the compiled plan")
		naive     = flag.Bool("naive", false, "also run the naive baseline for comparison")
		noIndex   = flag.Bool("no-index", false, "disable per-step range queries")
		noExact   = flag.Bool("no-exact", false, "disable the exact solved-form filter")
	)
	flag.Parse()

	kind, err := spatialdb.ParseIndexKind(*indexName)
	if err != nil {
		return err
	}

	cfg := workload.MapConfig{
		Seed:     *seed,
		Towns:    12 * *scale,
		Interior: 12 * *scale,
		Roads:    30 * *scale,
	}
	m := workload.GenMap(cfg)
	store := spatialdb.NewStore(m.Config.Universe, kind)
	m.Populate(store)
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}
	fmt.Printf("map: %d towns, %d roads, %d states (seed %d, index %s)\n",
		store.Layer("towns").Len(), store.Layer("roads").Len(),
		store.Layer("states").Len(), *seed, kind)

	var q *query.Query
	if *queryFile != "" {
		src, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		if q, err = lang.Parse(string(src)); err != nil {
			return err
		}
	} else {
		q = query.Smuggler()
	}

	plan, err := query.Compile(q, store)
	if err != nil {
		return err
	}
	if *explain {
		fmt.Println()
		fmt.Println(plan.Explain())
	}

	opts := query.Options{UseIndex: !*noIndex, UseExact: !*noExact}
	res, err := plan.Run(store, params, opts)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d solution(s):\n", len(res.Solutions))
	for i, sol := range res.Solutions {
		parts := make([]string, len(sol.Objects))
		for j, o := range sol.Objects {
			parts[j] = fmt.Sprintf("%s=%s", q.Retrieve[j].Var, o.Name)
		}
		fmt.Printf("  %2d. %s\n", i+1, strings.Join(parts, ", "))
	}
	st := res.Stats
	fmt.Printf("\nstats: %d candidates, %d exact rejects, %d final checks, %d db objects scanned\n",
		st.Candidates, st.ExactRejects, st.FinalChecked, st.DB.Scanned)

	if *naive {
		nres, err := query.RunNaive(q, store, params)
		if err != nil {
			return err
		}
		fmt.Printf("naive: %d solutions from %d tuples examined (%.1fx more work)\n",
			nres.Stats.Solutions, nres.Stats.Candidates,
			float64(nres.Stats.Candidates)/float64(max(1, st.Candidates)))
		if nres.Stats.Solutions != st.Solutions {
			return fmt.Errorf("BUG: naive and optimized disagree (%d vs %d)",
				nres.Stats.Solutions, st.Solutions)
		}
	}
	return nil
}
