package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bbox"
	"repro/internal/formula"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

// poolCase is one system of the pool-isolation test, with what its first
// compile rendered and what the naive executor answers.
type poolCase struct {
	q      *Query
	store  *spatialdb.Store
	params map[string]*region.Region
	want   string
	naive  []string
}

// renderPlan is what a plan must keep unchanged for as long as it is
// cached: its order, output bindings, Reordered and Explain.
func renderPlan(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v reordered=%v\n", p.OrderKey(), p.Bindings(), p.Adaptive.Reordered)
	b.WriteString(p.Explain())
	return b.String()
}

// explodingQuery fails to compile in every order with
// formula.ErrTooManyTerms: x ∧ A ∧ B = 0 where A and B are balanced
// products of nine sums each, so F[x↦1] = A ∧ B has 2¹⁸ terms.
func explodingQuery() *Query {
	q := New().From("x", "xs")
	product := func(prefix string) *formula.Formula {
		fs := make([]*formula.Formula, 9)
		for i := range fs {
			fs[i] = formula.Or(q.Sys.Var(fmt.Sprintf("%sp%d", prefix, i)), q.Sys.Var(fmt.Sprintf("%sq%d", prefix, i)))
		}
		for len(fs) > 1 {
			next := fs[:0]
			for i := 0; i+1 < len(fs); i += 2 {
				next = append(next, formula.And(fs[i], fs[i+1]))
			}
			if len(fs)%2 == 1 {
				next = append(next, fs[len(fs)-1])
			}
			fs = next
		}
		return fs[0]
	}
	q.Sys.Disjoint(q.Sys.Var("x"), formula.And(product("a"), product("b")))
	return q
}

// TestCompileAdaptivePoolIsolation pins the pooled compile scratch: a
// plan keeps nothing that points into it. Seeded 4- and 5-variable
// systems (TestCompileAdaptiveMatchesPerOrderCompile's) are compiled
// once, then from four goroutines sharing the pool, interleaved with a
// compile that fails with formula.ErrTooManyTerms; every plan must
// render as the first compile did. The plans are then kept through 1,000
// further compiles, which reuse every pooled scratch many times over,
// and must still render the same and answer as the naive executor does.
func TestCompileAdaptivePoolIsolation(t *testing.T) {
	universe := bbox.Rect(0, 0, 64, 64)
	var cases []poolCase
	for n := 4; n <= maxAdaptivePermute; n++ {
		for trial := 0; trial < 24; trial++ {
			rng := workload.NewRNG(uint64(100*n + trial))
			q := randSystemN(rng, n)
			if trial%2 == 1 {
				x, y, z := q.Retrieve[rng.IntN(n)].Var, q.Retrieve[rng.IntN(n)].Var, q.Retrieve[rng.IntN(n)].Var
				q.Sys.Overlap(q.Sys.Var(x), q.Sys.Var(y))
				q.Sys.NotSubset(q.Sys.Var(y), q.Sys.Var(z))
			}
			store := spatialdb.NewStore(universe, spatialdb.RTree)
			for _, b := range q.Retrieve {
				store.Layer(b.Layer)
				for i := 0; i < 1+rng.IntN(5); i++ {
					store.MustInsert(b.Layer, fmt.Sprintf("%s%d", b.Var, i), workload.RandRegion(rng, universe, 2))
				}
			}
			params := map[string]*region.Region{"C": workload.RandRegion(rng, universe, 2)}
			plan, err := CompileAdaptive(q, store, AdaptiveOptions{Params: params})
			if err != nil {
				continue // this system compiles in no order
			}
			// The first compile is the one a pool-free compile of its
			// order gives.
			ref, err := Compile(plan.Query, store)
			if err != nil || ref.Explain() != plan.Explain() {
				t.Fatalf("n=%d trial %d: first adaptive compile differs from Compile of its order (err %v)\n%s\nvs\n%s", n, trial, err, plan.Explain(), ref.Explain())
			}
			naive, err := RunNaiveCtx(context.Background(), q, store, params, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, poolCase{q, store, params, renderPlan(plan), solutionKeys(naive)})
		}
	}
	if len(cases) < 40 {
		t.Fatalf("only %d of the 48 systems compile", len(cases))
	}
	boom := explodingQuery()
	boomStore := spatialdb.NewStore(universe, spatialdb.RTree)
	boomStore.Layer("xs")

	const workers = 4
	kept := make([][]*Plan, workers) // kept[g][i]: goroutine g's plan of cases[i]
	var wg sync.WaitGroup
	for g := range workers {
		kept[g] = make([]*Plan, len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cases {
				if k%workers == g {
					if _, err := CompileAdaptive(boom, boomStore, AdaptiveOptions{}); !errors.Is(err, formula.ErrTooManyTerms) {
						t.Errorf("exploding query: err %v, want ErrTooManyTerms", err)
					}
				}
				i := (k*7 + g*11) % len(cases) // each goroutine its own order
				c := cases[i]
				p, err := CompileAdaptive(c.q, c.store, AdaptiveOptions{Params: c.params})
				if err != nil {
					t.Errorf("case %d: %v", i, err)
					return
				}
				if got := renderPlan(p); got != c.want {
					t.Errorf("case %d, goroutine %d: plan differs from the first compile:\n%s\nwant\n%s", i, g, got, c.want)
				}
				kept[g][i] = p
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := range 1000 {
		c := cases[k%len(cases)]
		if _, err := CompileAdaptive(c.q, c.store, AdaptiveOptions{Params: c.params}); err != nil {
			t.Fatal(err)
		}
	}
	for g := range kept {
		for i, p := range kept[g] {
			c := cases[i]
			if got := renderPlan(p); got != c.want {
				t.Fatalf("case %d, goroutine %d: cached plan changed after later compiles:\n%s\nwant\n%s", i, g, got, c.want)
			}
			res, err := p.RunCtx(context.Background(), c.store, c.params, DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			if got := solutionKeys(res); !equalKeys(got, c.naive) {
				t.Fatalf("case %d, goroutine %d: cached plan answers %v, naive %v\n%s", i, g, got, c.naive, p.Explain())
			}
		}
	}
}
