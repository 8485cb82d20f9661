package formula

import (
	"fmt"
	"math/bits"

	"repro/internal/boolalg"
)

// Eval evaluates f over the given Boolean algebra with env supplying the
// value of each variable by index. It panics if a variable in f has no
// binding (env too short or nil entry); the query compiler guarantees
// bindings for every free variable before evaluation.
//
// Eval itself allocates nothing — the executors call it per prefix and
// per solution — so whether an evaluation allocates is the algebra's
// business alone. The price is that a node shared between two parents is
// evaluated once per parent: Xor(f, g) evaluates f and g twice each.
func Eval(f *Formula, alg boolalg.Algebra, env []boolalg.Element) boolalg.Element {
	switch f.kind {
	case KindConst:
		if f.val {
			return alg.Top()
		}
		return alg.Bottom()
	case KindVar:
		if int(f.v) >= len(env) || env[f.v] == nil {
			panic(fmt.Sprintf("formula: unbound variable x%d in evaluation", f.v))
		}
		return env[f.v]
	case KindNot:
		return alg.Complement(Eval(f.l, alg, env))
	case KindAnd:
		return alg.Meet(Eval(f.l, alg, env), Eval(f.r, alg, env))
	default: // KindOr
		return alg.Join(Eval(f.l, alg, env), Eval(f.r, alg, env))
	}
}

// EvalBits evaluates f in the two-valued algebra where variable v is true
// iff bit v of assign is set. Variables must have index < 64.
func EvalBits(f *Formula, assign uint64) bool {
	switch f.kind {
	case KindConst:
		return f.val
	case KindVar:
		return assign&(uint64(1)<<uint(f.v)) != 0
	case KindNot:
		return !EvalBits(f.l, assign)
	case KindAnd:
		return EvalBits(f.l, assign) && EvalBits(f.r, assign)
	default: // KindOr
		return EvalBits(f.l, assign) || EvalBits(f.r, assign)
	}
}

// Equivalent reports whether f and g denote the same Boolean function.
// By Boole/Stone, an identity of Boolean functions holds in every Boolean
// algebra iff it holds two-valued, so an exhaustive check over the free
// variables decides it. The check is exponential in the number of distinct
// free variables (the paper's compile-time caveat); it panics above 24
// variables to keep accidental blowups loud.
func Equivalent(f, g *Formula) bool {
	return TautologyZero(Xor(f, g))
}

// TautologyZero reports whether f ≡ 0 as a Boolean function.
func TautologyZero(f *Formula) bool {
	if f.IsConst(false) {
		return true
	}
	var vars [MaxVars]int
	n := 0
	for m := f.vars; m != 0; m &= m - 1 {
		vars[n] = bits.TrailingZeros64(m)
		n++
	}
	if n > 24 {
		panic(fmt.Sprintf("formula: equivalence check over %d variables", n))
	}
	for m := uint64(0); m < uint64(1)<<n; m++ {
		var assign uint64
		for i, v := range vars[:n] {
			if m&(uint64(1)<<uint(i)) != 0 {
				assign |= uint64(1) << uint(v)
			}
		}
		if EvalBits(f, assign) {
			return false
		}
	}
	return true
}

// TautologyOne reports whether f ≡ 1 as a Boolean function.
func TautologyOne(f *Formula) bool { return TautologyZero(Not(f)) }

// Implies2 reports whether f ≤ g holds for Boolean functions
// (equivalently f ∧ ¬g ≡ 0).
func Implies2(f, g *Formula) bool { return TautologyZero(Diff(f, g)) }
