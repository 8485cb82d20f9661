// Package formula implements Boolean formulas over an arbitrary Boolean
// algebra: the syntax layer of the paper's constraint language.
//
// A formula is built from variables, the constants 0 and 1, complement,
// conjunction and disjunction. Formulas denote Boolean *functions*; the
// engine needs three views of them:
//
//   - symbolic: cofactors f[x↦0], f[x↦1] (Boole's expansion) and
//     substitution, used by Algorithm 1 (triangular form);
//   - semantic: evaluation over any boolalg.Algebra, used at query time on
//     regions, and two-valued evaluation, used for identity checks
//     (an identity f ≡ g of Boolean *functions* holds in every Boolean
//     algebra iff it holds in the two-valued one);
//   - normal forms: sum-of-products terms, consumed by the Blake canonical
//     form (internal/bcf) and the bounding-box approximations
//     (internal/bbox).
//
// Formulas are immutable; all operations return new (possibly shared)
// nodes. Constructors perform light constant folding so that, e.g.,
// cofactoring yields trimmed formulas without a separate simplify pass.
//
// DESIGN.md §2 ("Foundations") places this package in the module map.
package formula

import (
	"cmp"
	"fmt"
	"math/bits"
	"strings"
)

// Kind discriminates formula nodes.
type Kind uint8

// Formula node kinds.
const (
	KindConst Kind = iota // 0 or 1
	KindVar               // a variable
	KindNot               // complement
	KindAnd               // binary conjunction
	KindOr                // binary disjunction
)

// Formula is an immutable Boolean formula node. Its constructors record
// two summaries of the subtree, so neither needs a walk: a structural
// hash (Hash) and the set of variables it mentions (variable indices are
// below MaxVars, so the set is one mask).
type Formula struct {
	kind Kind
	val  bool     // for KindConst
	v    uint8    // for KindVar: variable index (< MaxVars)
	h    uint32   // structural hash: equal for Same formulas
	vars uint64   // bit v set iff variable v occurs
	l, r *Formula // children: Not uses l only
}

var (
	zero = &Formula{kind: KindConst, val: false, h: mix(KindConst, 0, 0)}
	one  = &Formula{kind: KindConst, val: true, h: mix(KindConst, 1, 0)}
)

// mix hashes a node from its kind and its children's hashes (or its
// variable index). Order matters: And(f, g) and And(g, f) are different
// formulas.
func mix(k Kind, a, b uint32) uint32 {
	h := (uint32(k)+1)*0x9e3779b1 ^ a
	h = (h ^ h>>15) * 0x85ebca77
	h ^= b + 0x27d4eb2f + h<<6 + h>>2
	h = (h ^ h>>13) * 0xc2b2ae3d
	return h ^ h>>16
}

// Zero returns the constant-0 formula (the empty region).
func Zero() *Formula { return zero }

// One returns the constant-1 formula (the universe).
func One() *Formula { return one }

// The literals are shared like the constants: one node per variable and
// one per complemented variable.
var vars, notVars = func() (pos, neg [MaxVars]*Formula) {
	for v := range MaxVars {
		pos[v] = &Formula{kind: KindVar, v: uint8(v), h: mix(KindVar, uint32(v), 0), vars: 1 << v}
		neg[v] = &Formula{kind: KindNot, l: pos[v], h: mix(KindNot, pos[v].h, 0), vars: 1 << v}
	}
	return pos, neg
}()

// Var returns the formula consisting of variable v, 0 ≤ v < MaxVars.
func Var(v int) *Formula {
	if v < 0 || v >= MaxVars {
		panic(fmt.Sprintf("formula: variable index %d outside [0, %d)", v, MaxVars))
	}
	return vars[v]
}

// Kind returns the node kind.
func (f *Formula) Kind() Kind { return f.kind }

// Const reports the constant value; valid only for KindConst nodes.
func (f *Formula) Const() bool { return f.val }

// VarIndex returns the variable index; valid only for KindVar nodes.
func (f *Formula) VarIndex() int { return int(f.v) }

// Hash returns f's structural hash, computed when f was built: Same
// formulas hash alike, so a table keyed by Hash and confirmed by Same
// finds a formula however it was rebuilt (bcf.Memo).
//
//boolq:noalloc
func (f *Formula) Hash() uint32 { return f.h }

// Left returns the left (or only) child.
func (f *Formula) Left() *Formula { return f.l }

// Right returns the right child.
func (f *Formula) Right() *Formula { return f.r }

// IsConst reports whether f is syntactically the constant b.
func (f *Formula) IsConst(b bool) bool { return f.kind == KindConst && f.val == b }

// Not returns ¬f with involution and constant folding.
func Not(f *Formula) *Formula {
	switch f.kind {
	case KindConst:
		if f.val {
			return zero
		}
		return one
	case KindNot:
		return f.l
	case KindVar:
		return notVars[f.v]
	}
	return &Formula{kind: KindNot, l: f, h: mix(KindNot, f.h, 0), vars: f.vars}
}

// And returns f ∧ g with unit/zero/idempotence folding.
func And(f, g *Formula) *Formula {
	switch {
	case f.IsConst(false) || g.IsConst(false):
		return zero
	case f.IsConst(true):
		return g
	case g.IsConst(true):
		return f
	case f.Same(g):
		return f
	case complementary(f, g):
		return zero
	}
	return &Formula{kind: KindAnd, l: f, r: g, h: mix(KindAnd, f.h, g.h), vars: f.vars | g.vars}
}

// Or returns f ∨ g with unit/zero/idempotence folding.
func Or(f, g *Formula) *Formula {
	switch {
	case f.IsConst(true) || g.IsConst(true):
		return one
	case f.IsConst(false):
		return g
	case g.IsConst(false):
		return f
	case f.Same(g):
		return f
	case complementary(f, g):
		return one
	}
	return &Formula{kind: KindOr, l: f, r: g, h: mix(KindOr, f.h, g.h), vars: f.vars | g.vars}
}

// complementary reports the cheap syntactic check f = ¬g or g = ¬f.
func complementary(f, g *Formula) bool {
	return (f.kind == KindNot && f.l.Same(g)) || (g.kind == KindNot && g.l.Same(f))
}

// AndN folds And over fs; AndN() = 1.
func AndN(fs ...*Formula) *Formula {
	acc := one
	for _, f := range fs {
		acc = And(acc, f)
	}
	return acc
}

// OrN folds Or over fs; OrN() = 0.
func OrN(fs ...*Formula) *Formula {
	acc := zero
	for _, f := range fs {
		acc = Or(acc, f)
	}
	return acc
}

// Diff returns f ∧ ¬g, the relative difference f \ g.
func Diff(f, g *Formula) *Formula { return And(f, Not(g)) }

// Xor returns the symmetric difference (f ∧ ¬g) ∨ (¬f ∧ g). Its vanishing
// expresses equality f = g as a single equation (Boole).
func Xor(f, g *Formula) *Formula { return Or(Diff(f, g), Diff(g, f)) }

// Implies returns ¬f ∨ g.
func Implies(f, g *Formula) *Formula { return Or(Not(f), g) }

// Same reports structural equality (not semantic equivalence; see
// Equivalent). Shared subtrees compare in O(1) via pointer identity, and
// formulas whose hashes or variable sets differ in O(1) too.
//
//boolq:noalloc
func (f *Formula) Same(g *Formula) bool {
	if f == g {
		return true
	}
	if f == nil || g == nil || f.h != g.h || f.vars != g.vars || f.kind != g.kind {
		return false
	}
	switch f.kind {
	case KindConst:
		return f.val == g.val
	case KindVar:
		return f.v == g.v
	case KindNot:
		return f.l.Same(g.l)
	default:
		return f.l.Same(g.l) && f.r.Same(g.r)
	}
}

// Compare is a total structural order on formulas: it returns 0 iff
// f.Same(g), and otherwise orders by node kind, then constant value or
// variable index, then children left to right. It allocates nothing, so
// it can sort formula lists into a canonical order.
func Compare(f, g *Formula) int {
	if f == g {
		return 0
	}
	if c := cmp.Compare(f.kind, g.kind); c != 0 {
		return c
	}
	switch f.kind {
	case KindConst:
		switch {
		case f.val == g.val:
			return 0
		case g.val:
			return -1
		}
		return 1
	case KindVar:
		return cmp.Compare(f.v, g.v)
	case KindNot:
		return Compare(f.l, g.l)
	default:
		if c := Compare(f.l, g.l); c != 0 {
			return c
		}
		return Compare(f.r, g.r)
	}
}

// FreeVars returns the sorted indices of variables occurring in f.
func (f *Formula) FreeVars() []int {
	out := make([]int, 0, bits.OnesCount64(f.vars))
	for m := f.vars; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// Uses reports whether variable v occurs in f.
func (f *Formula) Uses(v int) bool {
	return v >= 0 && v < MaxVars && f.vars&(1<<v) != 0
}

// Size returns the number of nodes in the formula tree (shared nodes
// counted once).
func (f *Formula) Size() int {
	seen := map[*Formula]bool{}
	var walk func(*Formula)
	walk = func(n *Formula) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walk(n.l)
		walk(n.r)
	}
	walk(f)
	return len(seen)
}

// String renders the formula with ~ ∧ as juxtaposition-free "&", ∨ as "|".
// Variables print as x<i>; use StringNamed for symbol-table names.
func (f *Formula) String() string {
	return f.StringNamed(func(v int) string { return fmt.Sprintf("x%d", v) })
}

// StringNamed renders the formula using name(v) for variables.
func (f *Formula) StringNamed(name func(int) string) string {
	var b strings.Builder
	f.render(&b, name, 0)
	return b.String()
}

// precedence: Or=1, And=2, Not=3, atoms=4
func (f *Formula) render(b *strings.Builder, name func(int) string, parent int) {
	switch f.kind {
	case KindConst:
		if f.val {
			b.WriteString("1")
		} else {
			b.WriteString("0")
		}
	case KindVar:
		b.WriteString(name(int(f.v)))
	case KindNot:
		b.WriteString("~")
		f.l.render(b, name, 3)
	case KindAnd:
		if parent > 2 {
			b.WriteString("(")
		}
		f.l.render(b, name, 2)
		b.WriteString(" & ")
		f.r.render(b, name, 2)
		if parent > 2 {
			b.WriteString(")")
		}
	case KindOr:
		if parent > 1 {
			b.WriteString("(")
		}
		f.l.render(b, name, 1)
		b.WriteString(" | ")
		f.r.render(b, name, 1)
		if parent > 1 {
			b.WriteString(")")
		}
	}
}
