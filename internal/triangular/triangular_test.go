package triangular

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/boolalg"
	"repro/internal/constraint"
	"repro/internal/formula"
)

// TestE2PaperExample1 reproduces §3 Example 1: the projection of
// S = { x∧y ≠ 0, ¬x∧y ≠ 0 } on x is y ≠ 0 — the best unquantified
// approximation of ∃x.S (which itself is not expressible: it says
// "y has at least two parts" in atomic algebras).
func TestE2PaperExample1(t *testing.T) {
	x, y := formula.Var(0), formula.Var(1)
	n := constraint.Normal{
		F: formula.Zero(),
		G: []*formula.Formula{
			formula.And(x, y),
			formula.And(formula.Not(x), y),
		},
	}
	p, err := Proj(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !p.F.IsConst(false) {
		t.Errorf("projected equation = %v, want 0", p.F)
	}
	for _, g := range p.G {
		if !formula.Equivalent(g, y) {
			t.Errorf("projected disequation = %v, want y", g)
		}
	}
	if len(p.G) == 0 {
		t.Errorf("projection lost the disequations")
	}
}

// Theorem 4: for a system with ONE disequation the projection is exact in
// EVERY Boolean algebra. Exhaustive check over the 8-element algebra:
// for all f,g over {x,y} and every value of y,
// ∃x.(f=0 ∧ g≠0) ⇔ proj(S,x) satisfied.
func TestTheorem4ExactnessSingleDiseq(t *testing.T) {
	alg := boolalg.NewBitset(3)
	x, y := formula.Var(0), formula.Var(1)
	// A representative zoo of formula pairs.
	fs := []*formula.Formula{
		formula.Zero(),
		formula.And(x, y),
		formula.Diff(x, y),
		formula.Xor(x, y),
		formula.And(formula.Not(x), formula.Not(y)),
		formula.Or(x, y),
	}
	gs := []*formula.Formula{
		x,
		formula.And(x, y),
		formula.Diff(y, x),
		formula.Not(x),
		formula.Or(formula.And(x, y), formula.Not(y)),
	}
	for _, f := range fs {
		for _, g := range gs {
			n := constraint.Normal{F: f, G: []*formula.Formula{g}}
			p, err := Proj(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			for yv := uint64(0); yv < 8; yv++ {
				exists := false
				for xv := uint64(0); xv < 8; xv++ {
					if n.Satisfied(alg, []boolalg.Element{xv, yv}) {
						exists = true
						break
					}
				}
				env := []boolalg.Element{uint64(0), yv} // x unused in p
				if got := p.Satisfied(alg, env); got != exists {
					t.Fatalf("f=%v g=%v y=%#b: proj=%v, ∃x=%v\nproj form: F=%v G=%v",
						f, g, yv, got, exists, p.F, p.G)
				}
			}
		}
	}
}

// Soundness for MANY disequations in any algebra: ∃x.S ⇒ proj(S,x)
// (projection never loses true solutions). The converse can fail on atomic
// algebras — checked in TestE7AtomicGap below.
func TestProjSoundnessMultiDiseq(t *testing.T) {
	alg := boolalg.NewBitset(3)
	x, y, z := formula.Var(0), formula.Var(1), formula.Var(2)
	n := constraint.Normal{
		F: formula.Diff(x, formula.Or(y, z)),
		G: []*formula.Formula{
			formula.And(x, y),
			formula.And(formula.Not(x), y),
			formula.And(x, z),
		},
	}
	p, err := Proj(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for yv := uint64(0); yv < 8; yv++ {
		for zv := uint64(0); zv < 8; zv++ {
			for xv := uint64(0); xv < 8; xv++ {
				env := []boolalg.Element{xv, yv, zv}
				if n.Satisfied(alg, env) && !p.Satisfied(alg, env) {
					t.Fatalf("projection pruned a real solution x=%#b y=%#b z=%#b", xv, yv, zv)
				}
			}
		}
	}
}

// TestE7AtomicGap: on the ONE-atom algebra the projection of Example 1's
// system is satisfiable (y = the atom ≠ 0) yet no witness x exists —
// exactly the approximation gap Theorem 5 excludes for atomless algebras.
func TestE7AtomicGap(t *testing.T) {
	alg := boolalg.Two()
	x, y := formula.Var(0), formula.Var(1)
	n := constraint.Normal{
		F: formula.Zero(),
		G: []*formula.Formula{
			formula.And(x, y),
			formula.And(formula.Not(x), y),
		},
	}
	p, err := Proj(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	yv := alg.Top() // the single atom: y ≠ 0 holds
	if !p.Satisfied(alg, []boolalg.Element{alg.Bottom(), yv}) {
		t.Fatalf("projection should accept y = atom")
	}
	for _, xv := range []boolalg.Element{alg.Bottom(), alg.Top()} {
		if n.Satisfied(alg, []boolalg.Element{xv, yv}) {
			t.Fatalf("unexpected witness exists on the atomic algebra")
		}
	}
}

func TestCompileTriangularity(t *testing.T) {
	// Three query variables, one parameter (index 3).
	s := constraint.NewSystem()
	x := s.Var("x")
	y := s.Var("y")
	z := s.Var("z")
	c := s.Var("C") // parameter
	s.Subset(x, c).Subset(y, x).Overlap(y, z).NotSubset(z, y)
	order := []int{0, 1, 2} // retrieve x, then y, then z
	form, err := Compile(s.Normalize(), order)
	if err != nil {
		t.Fatal(err)
	}
	if form.Unsat {
		t.Fatalf("satisfiable system compiled to Unsat")
	}
	allowed := map[int]map[int]bool{
		0: {3: true},
		1: {3: true, 0: true},
		2: {3: true, 0: true, 1: true},
	}
	for i, st := range form.Steps {
		if st.Var != order[i] {
			t.Errorf("step %d constrains %d, want %d", i, st.Var, order[i])
		}
		for _, v := range st.Vars() {
			if !allowed[i][v] {
				t.Errorf("step %d mentions x%d — not triangular", i, v)
			}
		}
	}
	// Ground part mentions only the parameter.
	for _, v := range form.Ground.F.FreeVars() {
		if v != 3 {
			t.Errorf("ground equation mentions x%d", v)
		}
	}
}

// Compile soundness: for every full assignment satisfying the original
// system, every step accepts its prefix — the optimizer never prunes a
// real solution. Exhaustive over a 2-atom algebra.
func TestCompileNeverPrunesSolutions(t *testing.T) {
	systems := []func() *constraint.System{
		func() *constraint.System {
			s := constraint.NewSystem()
			x, y, c := s.Var("x"), s.Var("y"), s.Var("C")
			s.Subset(x, c).Overlap(x, y).Subset(y, c)
			return s
		},
		func() *constraint.System {
			s := constraint.NewSystem()
			x, y, c := s.Var("x"), s.Var("y"), s.Var("C")
			s.NotSubset(x, y).Equal(formula.Or(x, y), c)
			return s
		},
		func() *constraint.System {
			s := constraint.NewSystem()
			x, y, c := s.Var("x"), s.Var("y"), s.Var("C")
			s.StrictSubset(x, y).Disjoint(x, formula.Not(c))
			return s
		},
	}
	alg := boolalg.NewBitset(2)
	for si, mk := range systems {
		s := mk()
		form, err := Compile(s.Normalize(), []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for cv := uint64(0); cv < 4; cv++ {
			for xv := uint64(0); xv < 4; xv++ {
				for yv := uint64(0); yv < 4; yv++ {
					env := []boolalg.Element{xv, yv, cv}
					if !s.Satisfied(alg, env) {
						continue
					}
					if form.Unsat {
						t.Fatalf("system %d: Unsat but solution exists", si)
					}
					if !form.Ground.Satisfied(alg, env) {
						t.Errorf("system %d: ground rejects params of a solution", si)
					}
					if !form.Steps[0].Satisfied(alg, env, xv) {
						t.Errorf("system %d: step 0 rejects x=%#b of solution (%#b,%#b,%#b)",
							si, xv, xv, yv, cv)
					}
					if !form.Steps[1].Satisfied(alg, env, yv) {
						t.Errorf("system %d: step 1 rejects y=%#b of solution (%#b,%#b,%#b)",
							si, yv, xv, yv, cv)
					}
				}
			}
		}
	}
}

// Compile completeness on exact steps: a full assignment accepted by all
// steps AND the ground residual satisfies the original system, whenever
// each level had at most one disequation (Theorem 4 exactness) — here we
// simply verify it holds for these specific systems on the 2-atom algebra.
func TestCompileExactForTheseSystems(t *testing.T) {
	s := constraint.NewSystem()
	x, y, c := s.Var("x"), s.Var("y"), s.Var("C")
	s.Subset(x, c).Subset(y, x).Overlap(y, c)
	form, err := Compile(s.Normalize(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	alg := boolalg.NewBitset(2)
	for cv := uint64(0); cv < 4; cv++ {
		for xv := uint64(0); xv < 4; xv++ {
			for yv := uint64(0); yv < 4; yv++ {
				env := []boolalg.Element{xv, yv, cv}
				accepted := form.Ground.Satisfied(alg, env) &&
					form.Steps[0].Satisfied(alg, env, xv) &&
					form.Steps[1].Satisfied(alg, env, yv)
				if accepted != s.Satisfied(alg, env) {
					t.Errorf("exactness fails at (%#b,%#b,%#b): steps=%v, system=%v",
						xv, yv, cv, accepted, s.Satisfied(alg, env))
				}
			}
		}
	}
}

func TestCompileDetectsUnsat(t *testing.T) {
	s := constraint.NewSystem()
	x := s.Var("x")
	s.Subset(x, formula.Zero()).NonEmpty(x)
	form, err := Compile(s.Normalize(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !form.Unsat {
		t.Errorf("x ⊑ 0 ∧ x ≠ 0 not detected as unsat")
	}
}

func TestCompileSchroderRange(t *testing.T) {
	// x = C exactly: lower and upper bounds both C.
	s := constraint.NewSystem()
	x, c := s.Var("x"), s.Var("C")
	s.Equal(x, c)
	form, err := Compile(s.Normalize(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	st := form.Steps[0]
	if !formula.Equivalent(st.Lower, c) {
		t.Errorf("Lower = %v, want C", st.Lower)
	}
	if !formula.Equivalent(st.Upper, c) {
		t.Errorf("Upper = %v, want C", st.Upper)
	}
}

func TestStepVarsAndString(t *testing.T) {
	s := constraint.NewSystem()
	x, y, c := s.Var("x"), s.Var("y"), s.Var("C")
	s.Subset(y, formula.Or(x, c)).Overlap(y, x)
	form, err := Compile(s.Normalize(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	vars := form.Steps[1].Vars()
	if len(vars) != 2 || vars[0] != 0 || vars[1] != 2 {
		t.Errorf("step 1 Vars = %v", vars)
	}
	out := form.StringNamed(s.Vars.Name)
	if out == "" {
		t.Errorf("empty rendering")
	}
	if form.String() == "" {
		t.Errorf("empty default rendering")
	}
}

func TestProjEliminatesVariable(t *testing.T) {
	x, y := formula.Var(0), formula.Var(1)
	n := constraint.Normal{
		F: formula.Xor(x, y),
		G: []*formula.Formula{formula.And(x, y)},
	}
	p, err := Proj(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.F.Uses(0) {
		t.Errorf("projected equation still uses x: %v", p.F)
	}
	for _, g := range p.G {
		if g.Uses(0) {
			t.Errorf("projected disequation still uses x: %v", g)
		}
	}
}

// randSystem builds a random constraint system over n retrieval
// variables (indices 0..n-1) and one parameter C (index n), mixing every
// constraint kind the query language has.
func randSystem(rng *rand.Rand, n int) *constraint.System {
	s := constraint.NewSystem()
	var atoms []*formula.Formula
	for _, name := range []string{"x", "y", "z", "w", "v"}[:n] {
		atoms = append(atoms, s.Var(name))
	}
	atoms = append(atoms, s.Var("C"), formula.One())
	randFormula := func() *formula.Formula {
		f := atoms[rng.IntN(len(atoms))]
		for range rng.IntN(3) {
			g := atoms[rng.IntN(len(atoms))]
			switch rng.IntN(3) {
			case 0:
				f = formula.And(f, g)
			case 1:
				f = formula.Or(f, g)
			default:
				f = formula.Diff(f, g)
			}
		}
		return f
	}
	for range 1 + rng.IntN(5) {
		f, g := randFormula(), randFormula()
		switch rng.IntN(5) {
		case 0:
			s.Subset(f, g)
		case 1:
			s.NotSubset(f, g)
		case 2:
			s.Overlap(f, g)
		case 3:
			s.Disjoint(f, g)
		default:
			s.NonEmpty(f)
		}
	}
	return s
}

// hasDuplicate reports whether two entries of xs are equal under same.
func hasDuplicate[T any](xs []T, same func(a, b T) bool) bool {
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if same(xs[i], xs[j]) {
				return true
			}
		}
	}
	return false
}

// Canonical residuals: projection commutes and the Blake canonical form
// is unique, so eliminating a set of variables must leave the same
// residual — equation, disequation list element by element, and Unsat —
// whatever order the set went in. The adaptive planner's subset DP keeps
// one residual per set and relies on exactly this. No step and no
// residual may carry a disequation twice, and Solve must return the step
// Eliminate returns. Each system's walk shares one Scratch, as a
// compilation does.
func TestEliminateResidualIsOrderIndependent(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for trial := range 40 {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(trial)))
			s := randSystem(rng, n)
			var scr Scratch
			bySet := map[uint]Elim{}
			orderOf := map[uint][]int{}
			var walk func(e Elim, used uint, order []int)
			walk = func(e Elim, used uint, order []int) {
				if prev, ok := bySet[used]; !ok {
					bySet[used], orderOf[used] = e, slices.Clone(order)
				} else if !sameElim(prev, e) {
					t.Fatalf("n=%d trial %d: eliminating %v and %v leave different residuals\n%s\nvs\n%s\nsystem:\n%s",
						n, trial, orderOf[used], order, elimString(prev), elimString(e), s)
				}
				if hasDuplicate(e.G, (*formula.Formula).Same) {
					t.Fatalf("n=%d trial %d: residual after %v repeats a disequation:\n%s", n, trial, order, elimString(e))
				}
				for v := range n {
					if used&(1<<v) != 0 {
						continue
					}
					st, rest, err := scr.Eliminate(e, v)
					if err != nil {
						continue
					}
					if solved, err := scr.Solve(e, v); err != nil || !solved.Same(st) {
						t.Fatalf("n=%d trial %d: Solve(x%d) after %v = %+v, %v; Eliminate's step %+v", n, trial, v, order, solved, err, st)
					}
					if hasDuplicate(st.Diseqs, func(a, b Diseq) bool { return a.P.Same(b.P) && a.Q.Same(b.Q) }) {
						t.Fatalf("n=%d trial %d: step for x%d after %v repeats a disequation", n, trial, v, order)
					}
					walk(rest, used|1<<v, append(order, v))
				}
			}
			walk(Start(s.Normalize()), 0, nil)
		}
	}
}

func sameElim(a, b Elim) bool {
	return a.Unsat == b.Unsat && a.F.Same(b.F) &&
		slices.EqualFunc(a.G, b.G, (*formula.Formula).Same)
}

func elimString(e Elim) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v = 0", e.F)
	for _, g := range e.G {
		fmt.Fprintf(&b, " ; %v != 0", g)
	}
	if e.Unsat {
		b.WriteString(" ; UNSAT")
	}
	return b.String()
}

// Solve reads the step alone, so it cannot see a projection that
// explodes. Eliminating v from v∧X = 0 ∧ v∧P ≠ 0, with
// X = x₁y₁ ∨ … ∨ x₉y₉ and P = (a₁∨b₁)…(a₉∨b₉), projects ¬X∧P, whose sum
// of products has 512·512 terms, past formula.MaxDNFTerms; the step needs
// only the canonical forms of X and 0. CompileAdaptive solves a binding
// this way when another path has already given its target set the
// residual, and so keeps a step whose own projection would fail
// (DESIGN.md §7).
func TestSolveSkipsTheProjection(t *testing.T) {
	v := formula.Var(0)
	x, p := formula.Zero(), formula.One()
	for i := 1; i <= 9; i++ {
		x = formula.Or(x, formula.And(formula.Var(i), formula.Var(9+i)))
		p = formula.And(p, formula.Or(formula.Var(18+i), formula.Var(27+i)))
	}
	e := Elim{F: formula.And(v, x), G: []*formula.Formula{formula.And(v, p)}}
	var scr Scratch
	if _, _, err := scr.Eliminate(e, 0); !errors.Is(err, formula.ErrTooManyTerms) {
		t.Fatalf("Eliminate: %v, want %v", err, formula.ErrTooManyTerms)
	}
	st, err := scr.Solve(e, 0)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !st.Lower.IsConst(false) || !formula.Equivalent(st.Upper, formula.Not(x)) ||
		len(st.Diseqs) != 1 || !st.Diseqs[0].P.Same(p) || !st.Diseqs[0].Q.IsConst(false) {
		t.Fatalf("Solve: %v <= x0 <= %v, disequations %v", st.Lower, st.Upper, st.Diseqs)
	}
}
