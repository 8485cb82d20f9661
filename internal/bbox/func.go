package bbox

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/formula"
)

// FuncKind discriminates bounding-box function nodes.
type FuncKind uint8

// Bounding-box function node kinds.
const (
	FEmpty FuncKind = iota // the constant ∅ (bounding box of 0)
	FUniv                  // the constant universe (bounding box of 1)
	FVar                   // ⌈x_v⌉, the bounding box of variable v's value
	FConst                 // a fixed box (bound parameter)
	FMeet                  // ⊓
	FJoin                  // ⊔
)

// Func is a bounding-box function: a term over ⊓, ⊔, variables ⌈x⌉ and
// constants, as produced by Algorithm 2. The query executor evaluates these
// per retrieved tuple instead of computing exact region intersections and
// unions — the paper's "much cheaper" compile-time substitution (§4).
type Func struct {
	kind FuncKind
	v    int
	c    Box
	l, r *Func
}

// Functions are immutable, so the two constants and the variables a
// formula can mention (formula.MaxVars of them) are shared.
var (
	emptyFunc = &Func{kind: FEmpty}
	univFunc  = &Func{kind: FUniv}
	varFuncs  = func() (fs [formula.MaxVars]*Func) {
		for v := range fs {
			fs[v] = &Func{kind: FVar, v: v}
		}
		return fs
	}()
)

// EmptyFunc returns the constant-∅ function.
func EmptyFunc() *Func { return emptyFunc }

// UnivFunc returns the constant-universe function.
func UnivFunc() *Func { return univFunc }

// VarFunc returns the function ⌈x_v⌉.
func VarFunc(v int) *Func {
	if v < 0 {
		panic(fmt.Sprintf("bbox: negative variable index %d", v))
	}
	if v < len(varFuncs) {
		return varFuncs[v]
	}
	return &Func{kind: FVar, v: v}
}

// ConstFunc returns the constant function b.
func ConstFunc(b Box) *Func { return &Func{kind: FConst, c: b} }

// MeetFunc returns l ⊓ r with unit folding.
func MeetFunc(l, r *Func) *Func {
	switch {
	case l.kind == FEmpty || r.kind == FEmpty:
		return EmptyFunc()
	case l.kind == FUniv:
		return r
	case r.kind == FUniv:
		return l
	case l.Same(r):
		return l
	}
	return &Func{kind: FMeet, l: l, r: r}
}

// JoinFunc returns l ⊔ r with unit folding.
func JoinFunc(l, r *Func) *Func {
	switch {
	case l.kind == FUniv || r.kind == FUniv:
		return UnivFunc()
	case l.kind == FEmpty:
		return r
	case r.kind == FEmpty:
		return l
	case l.Same(r):
		return l
	}
	return &Func{kind: FJoin, l: l, r: r}
}

// Kind returns the node kind.
func (f *Func) Kind() FuncKind { return f.kind }

// Same reports structural equality.
func (f *Func) Same(g *Func) bool {
	if f == g {
		return true
	}
	if f == nil || g == nil || f.kind != g.kind {
		return false
	}
	switch f.kind {
	case FEmpty, FUniv:
		return true
	case FVar:
		return f.v == g.v
	case FConst:
		return f.c.Equal(g.c)
	default:
		return f.l.Same(g.l) && f.r.Same(g.r)
	}
}

// Eval evaluates the function in k dimensions with env supplying the
// bounding box of each variable by index. Unbound variables panic (the
// compiler guarantees bindings).
func (f *Func) Eval(k int, env []Box) Box {
	switch f.kind {
	case FEmpty:
		return Empty(k)
	case FUniv:
		return Univ(k)
	case FVar:
		if f.v >= len(env) {
			panic(fmt.Sprintf("bbox: unbound variable x%d in box function", f.v))
		}
		return env[f.v]
	case FConst:
		return f.c
	case FMeet:
		return f.l.Eval(k, env).Meet(f.r.Eval(k, env))
	default:
		return f.l.Eval(k, env).Join(f.r.Eval(k, env))
	}
}

// EvalInto is Eval on a caller-owned Scratch, for a function that was
// never lowered to a Program: once scr has grown it allocates nothing,
// and its result may alias scr, env or f's constants, as Program.Eval's
// does (valid until the next evaluation with scr).
//
//boolq:noalloc
func (f *Func) EvalInto(k int, env []Box, scr *Scratch) Box {
	return f.evalAt(k, env, scr, 0)
}

// evalAt evaluates f into scr's slots at depth d and deeper: the right
// operand of a node at depth d works at d+1, so it cannot overwrite the
// left operand's result.
//
//boolq:noalloc
func (f *Func) evalAt(k int, env []Box, scr *Scratch, d int) Box {
	switch f.kind {
	case FEmpty:
		return Box{K: k} //boolq:allowalloc value literal of the empty box
	case FUniv:
		scr.grow(d + 1)
		scr.slots[d].SetUniv(k)
		return scr.slots[d]
	case FVar:
		if f.v >= len(env) {
			panic(fmt.Sprintf("bbox: unbound variable x%d in box function", f.v))
		}
		return env[f.v]
	case FConst:
		return f.c
	}
	a := f.l.evalAt(k, env, scr, d)
	b := f.r.evalAt(k, env, scr, d+1)
	scr.grow(d + 1)
	if f.kind == FMeet {
		a.MeetInto(b, &scr.slots[d])
	} else {
		a.JoinInto(b, &scr.slots[d])
	}
	return scr.slots[d]
}

// FreeVars returns the sorted variable indices used by f. There is no cap
// on the index range: plans with more than 64 variables report every free
// variable.
func (f *Func) FreeVars() []int {
	seen := map[int]bool{}
	f.collect(seen)
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (f *Func) collect(seen map[int]bool) {
	switch f.kind {
	case FVar:
		seen[f.v] = true
	case FMeet, FJoin:
		f.l.collect(seen)
		f.r.collect(seen)
	}
}

// Bind replaces every variable that has a non-nil entry in subs by that
// function (used to substitute parameter boxes at plan-bind time).
func (f *Func) Bind(subs []*Func) *Func {
	switch f.kind {
	case FVar:
		if f.v < len(subs) && subs[f.v] != nil {
			return subs[f.v]
		}
		return f
	case FMeet:
		return MeetFunc(f.l.Bind(subs), f.r.Bind(subs))
	case FJoin:
		return JoinFunc(f.l.Bind(subs), f.r.Bind(subs))
	default:
		return f
	}
}

// String renders the function with ⊓ as "^" and ⊔ as "v".
func (f *Func) String() string {
	return f.StringNamed(func(v int) string { return fmt.Sprintf("x%d", v) })
}

// StringNamed renders the function using name(v) for variables.
func (f *Func) StringNamed(name func(int) string) string {
	var b strings.Builder
	f.render(&b, name, 0)
	return b.String()
}

// precedence: Join=1, Meet=2, atoms=3
func (f *Func) render(b *strings.Builder, name func(int) string, parent int) {
	switch f.kind {
	case FEmpty:
		b.WriteString("∅")
	case FUniv:
		b.WriteString("U")
	case FVar:
		fmt.Fprintf(b, "[%s]", name(f.v))
	case FConst:
		b.WriteString(f.c.String())
	case FMeet:
		if parent > 2 {
			b.WriteString("(")
		}
		f.l.render(b, name, 2)
		b.WriteString(" ^ ")
		f.r.render(b, name, 2)
		if parent > 2 {
			b.WriteString(")")
		}
	case FJoin:
		if parent > 1 {
			b.WriteString("(")
		}
		f.l.render(b, name, 1)
		b.WriteString(" v ")
		f.r.render(b, name, 1)
		if parent > 1 {
			b.WriteString(")")
		}
	}
}
