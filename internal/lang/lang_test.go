package lang

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/query"
	"repro/internal/region"
	"repro/internal/spatialdb"
	"repro/internal/workload"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("find T in towns where T !<= C; R & A != 0")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{
		TokFind, TokIdent, TokIn, TokIdent, TokWhere,
		TokIdent, TokNLeq, TokIdent, TokSemi,
		TokIdent, TokAnd, TokIdent, TokNeq, TokZero, TokEOF,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want kind %d", i, toks[i], k)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("x # a comment\n<= y")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // x, <=, y, EOF
		t.Errorf("comment not skipped: %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"x < y", "x ! y", "x @ y"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) accepted", src)
		}
	}
}

const smugglerSrc = `
find T in towns, R in roads, B in states
given C, A
where
  A <= C;
  B <= C;
  R <= A | B | T;
  R & A != 0;
  R & T != 0;
  T !<= C;
`

func TestParseSmugglerProgram(t *testing.T) {
	q, err := Parse(smugglerSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Retrieve) != 3 {
		t.Fatalf("Retrieve = %v", q.Retrieve)
	}
	wantBindings := []query.Binding{
		{Var: "T", Layer: "towns"},
		{Var: "R", Layer: "roads"},
		{Var: "B", Layer: "states"},
	}
	for i, b := range wantBindings {
		if q.Retrieve[i] != b {
			t.Errorf("binding %d = %+v, want %+v", i, q.Retrieve[i], b)
		}
	}
	if len(q.Sys.Cons) != 6 {
		t.Errorf("constraints = %d, want 6", len(q.Sys.Cons))
	}
}

// The parsed smuggler program must behave exactly like the hand-built
// query.Smuggler() on a real store.
func TestParsedProgramMatchesHandBuilt(t *testing.T) {
	m := workload.GenMap(workload.MapConfig{Seed: 42})
	store := spatialdb.NewStore(m.Config.Universe, spatialdb.RTree)
	m.Populate(store)
	params := map[string]*region.Region{"C": m.Country, "A": m.Area}

	parsed, err := Parse(smugglerSrc)
	if err != nil {
		t.Fatal(err)
	}
	resP, err := query.CompileAndRun(parsed, store, params)
	if err != nil {
		t.Fatal(err)
	}
	resH, err := query.CompileAndRun(query.Smuggler(), store, params)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(r *query.Result) []string {
		var out []string
		for _, s := range r.Solutions {
			out = append(out, strings.Join(s.Names(), "|"))
		}
		sort.Strings(out)
		return out
	}
	kp, kh := keys(resP), keys(resH)
	if len(kp) != len(kh) || len(kp) == 0 {
		t.Fatalf("parsed %d solutions, hand-built %d", len(kp), len(kh))
	}
	for i := range kp {
		if kp[i] != kh[i] {
			t.Fatalf("solution %d differs: %s vs %s", i, kp[i], kh[i])
		}
	}
}

func TestParseSugarForms(t *testing.T) {
	q, err := Parse("find x in objs where disjoint(x, C); overlaps(x, A); x = A & C")
	if err != nil {
		t.Fatal(err)
	}
	// disjoint → 1 positive; overlaps → 1 negative; = → 2 positives.
	if len(q.Sys.Cons) != 4 {
		t.Errorf("constraints = %d, want 4", len(q.Sys.Cons))
	}
	neg := 0
	for _, c := range q.Sys.Cons {
		if c.Negative {
			neg++
		}
	}
	if neg != 1 {
		t.Errorf("negative constraints = %d, want 1", neg)
	}
}

func TestParsePrecedence(t *testing.T) {
	q, err := Parse("find x in l where x <= a | b & c")
	if err != nil {
		t.Fatal(err)
	}
	// & binds tighter than |: rhs = a | (b & c).
	rhs := q.Sys.Cons[0].Rhs
	got := rhs.StringNamed(q.Sys.Vars.Name)
	if got != "a | b & c" {
		t.Errorf("rhs = %q", got)
	}
	// And parenthesized grouping works.
	q2, err := Parse("find x in l where x <= (a | b) & c")
	if err != nil {
		t.Fatal(err)
	}
	got2 := q2.Sys.Cons[0].Rhs.StringNamed(q2.Sys.Vars.Name)
	if got2 != "(a | b) & c" {
		t.Errorf("rhs = %q", got2)
	}
}

func TestParseComplementAndConstants(t *testing.T) {
	q, err := Parse("find x in l where ~x & 1 != 0; x <= ~(a | b)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Sys.Cons) != 2 {
		t.Fatalf("constraints = %d", len(q.Sys.Cons))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                  // no find
		"find",                              // no variable
		"find x",                            // no in
		"find x in",                         // no layer
		"find x in l",                       // no where
		"find x in l where",                 // no constraint
		"find x in l where x",               // no operator
		"find x in l where x <=",            // no rhs
		"find x in l where x <= y extra",    // trailing garbage
		"find x in l where (x <= y",         // unbalanced paren in formula
		"find x in l where disjoint(x)",     // arity
		"find x in l where overlaps(x, y",   // unclosed
		"find x in l given where x <= y",    // given without names
		"find x in l where x <= y; ; x = y", // empty constraint
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParseConstraintsOnly(t *testing.T) {
	q := query.New()
	q.Sys.Var("x")
	if err := ParseConstraints("x != 0; x <= C", q); err != nil {
		t.Fatal(err)
	}
	if len(q.Sys.Cons) != 2 {
		t.Errorf("constraints = %d", len(q.Sys.Cons))
	}
	if err := ParseConstraints("x <", q); err == nil {
		t.Errorf("bad constraint text accepted")
	}
}

// maxTokens must bound the token count, or Lex's one allocation would
// grow; every golden query and a few dense or odd inputs check it.
func TestMaxTokensBoundsLex(t *testing.T) {
	srcs := []string{
		"", "0a1b", "a0(b1)~c", "x<=y!=z!<=w", "f(x,y);g( x )",
		"# comment only", "find x in l where x&~(0|1)!=0",
		"find T in towns, R in roads given C where T !<= C; overlaps(R, T)",
	}
	for _, c := range golden.Cases() {
		srcs = append(srcs, c.Query)
	}
	for _, src := range srcs {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		if n := maxTokens(src); len(toks) > n {
			t.Errorf("Lex(%q) yields %d tokens, maxTokens says at most %d", src, len(toks), n)
		}
		if cap(toks) != maxTokens(src) {
			t.Errorf("Lex(%q) grew its token slice: cap %d, bound %d", src, cap(toks), maxTokens(src))
		}
	}
}
