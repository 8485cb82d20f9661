package lang

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/formula"
	"repro/internal/golden"
)

// FuzzParse feeds arbitrary text to the parser and the plan-cache
// normaliser, seeded from the golden corpus's query texts. Neither may
// panic; Normalize must be idempotent; and a program Parse accepts must
// parse, after Normalize, to the same retrieval bindings and the same
// constraint system — the plan cache serves the normalised text's plan
// for the original.
func FuzzParse(f *testing.F) {
	for _, c := range golden.Cases() {
		f.Add(c.Query)
	}
	f.Add("# comment\nfind T in towns given C where T <= C;")
	f.Add("find x in l where disjoint(x, ~(0 | 1)); overlaps(x,x)")
	f.Add(manyVariables(formula.MaxVars + 1))
	f.Fuzz(func(t *testing.T, src string) {
		if toks, err := Lex(src); err == nil && len(toks) > maxTokens(src) {
			t.Fatalf("Lex yields %d tokens, maxTokens says at most %d: %q", len(toks), maxTokens(src), src)
		}
		q, parseErr := Parse(src)
		norm, err := Normalize(src)
		if err != nil {
			if parseErr == nil {
				t.Fatalf("Parse accepts what Normalize rejects (%v): %q", err, src)
			}
			return
		}
		again, err := Normalize(norm)
		if err != nil || again != norm {
			t.Fatalf("Normalize not idempotent: %q → %q → %q (%v)", src, norm, again, err)
		}
		if parseErr != nil {
			return
		}
		nq, err := Parse(norm)
		if err != nil {
			t.Fatalf("Parse accepts %q but rejects its normal form %q: %v", src, norm, err)
		}
		if !slices.Equal(q.Retrieve, nq.Retrieve) {
			t.Fatalf("bindings %v, after Normalize %v", q.Retrieve, nq.Retrieve)
		}
		if !slices.Equal(q.Sys.Vars.Names(), nq.Sys.Vars.Names()) ||
			!slices.EqualFunc(q.Sys.Cons, nq.Sys.Cons, sameConstraint) {
			t.Fatalf("system\n%s\nafter Normalize\n%s", q.Sys, nq.Sys)
		}
	})
}

func sameConstraint(a, b constraint.Constraint) bool {
	return a.Negative == b.Negative && a.Lhs.Same(b.Lhs) && a.Rhs.Same(b.Rhs)
}

// manyVariables is a program naming n distinct variables.
func manyVariables(n int) string {
	var b strings.Builder
	b.WriteString("find v0 in l where v0 <= 1")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "; v%d <= v0", i)
	}
	return b.String()
}

// A program naming more variables than a formula term can hold is a parse
// error, not a panic in the symbol table.
func TestParseTooManyVariables(t *testing.T) {
	if _, err := Parse(manyVariables(formula.MaxVars)); err != nil {
		t.Fatalf("%d variables: %v", formula.MaxVars, err)
	}
	_, err := Parse(manyVariables(formula.MaxVars + 1))
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Fatalf("%d variables: error %v", formula.MaxVars+1, err)
	}
}
