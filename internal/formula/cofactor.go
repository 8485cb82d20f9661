package formula

// Cofactor returns f[v ↦ val]: the formula with variable v replaced by the
// constant val, simplified by the constructors. The two cofactors
// f[v↦1], f[v↦0] are the operands of Boole's expansion
//
//	f = (x ∧ f[x↦1]) ∨ (¬x ∧ f[x↦0])
//
// which drives both Algorithm 1 (projection) and the solved-form rewrite
// (Theorems 9 and 10).
func Cofactor(f *Formula, v int, val bool) *Formula {
	c := zero
	if val {
		c = one
	}
	var x Expander
	return x.Substitute(f, v, c)
}

// Substitute returns f[v ↦ g], replacing every occurrence of variable v by
// the formula g.
func Substitute(f *Formula, v int, g *Formula) *Formula {
	var x Expander
	return x.Substitute(f, v, g)
}

// Expansion returns Boole's expansion of f on variable v:
// pos = f[v↦1] and neg = f[v↦0], so that f ≡ (x_v ∧ pos) ∨ (¬x_v ∧ neg).
func Expansion(f *Formula, v int) (pos, neg *Formula) {
	var x Expander
	return x.Expansion(f, v)
}

// SubstituteAll applies the bindings {v ↦ subs[v]} simultaneously. Variables
// without a binding (subs[v] == nil or v ≥ len(subs)) are left in place.
func SubstituteAll(f *Formula, subs []*Formula) *Formula {
	memo := map[*Formula]*Formula{}
	var walk func(n *Formula) *Formula
	walk = func(n *Formula) *Formula {
		if r, ok := memo[n]; ok {
			return r
		}
		var out *Formula
		switch n.kind {
		case KindConst:
			out = n
		case KindVar:
			if int(n.v) < len(subs) && subs[n.v] != nil {
				out = subs[n.v]
			} else {
				out = n
			}
		case KindNot:
			out = Not(walk(n.l))
		case KindAnd:
			out = And(walk(n.l), walk(n.r))
		case KindOr:
			out = Or(walk(n.l), walk(n.r))
		}
		memo[n] = out
		return out
	}
	return walk(f)
}

// Expander substitutes into formulas with one memo table kept between
// calls, for a caller that takes many cofactors in a row (one
// compilation's eliminations). A substitution rebuilds only the nodes
// that mention the variable — a subtree without it comes back as it is,
// which is what rebuilding it through the constructors would produce —
// and the memo rebuilds a shared node once. The table is open-addressed on
// the node's structural hash and stamped with a generation per
// substitution, so starting the next one clears nothing. The zero value
// is ready; an Expander is not safe for concurrent use.
type Expander struct {
	slots []expSlot // len is zero or a power of two
	gen   uint32    // slots stamped with gen hold the current cofactor's entries
	n     int       // how many
}

type expSlot struct {
	key, val *Formula
	gen      uint32
}

// Reset empties the table, keeping its slots: a pooled expander holds no
// formula of an earlier compilation.
//
//boolq:noalloc
func (x *Expander) Reset() {
	clear(x.slots)
	x.gen, x.n = 0, 0
}

// Cap returns how many slots the expander retains.
//
//boolq:noalloc
func (x *Expander) Cap() int { return len(x.slots) }

// Expansion is the package's Expansion on the expander's table.
func (x *Expander) Expansion(f *Formula, v int) (pos, neg *Formula) {
	return x.Substitute(f, v, one), x.Substitute(f, v, zero)
}

// Substitute is the package's Substitute on the expander's table.
func (x *Expander) Substitute(f *Formula, v int, g *Formula) *Formula {
	if !f.Uses(v) {
		return f
	}
	x.gen++
	x.n = 0
	if x.gen == 0 { // wrapped: no stamp may survive from 2³² cofactors ago
		clear(x.slots)
		x.gen = 1
	}
	return x.sub(f, v, g)
}

func (x *Expander) sub(f *Formula, v int, c *Formula) *Formula {
	if !f.Uses(v) {
		return f
	}
	if f.kind == KindVar {
		return c
	}
	if r := x.get(f); r != nil {
		return r
	}
	var out *Formula
	switch f.kind {
	case KindNot:
		out = Not(x.sub(f.l, v, c))
	case KindAnd:
		out = And(x.sub(f.l, v, c), x.sub(f.r, v, c))
	default:
		out = Or(x.sub(f.l, v, c), x.sub(f.r, v, c))
	}
	x.put(f, out)
	return out
}

func (x *Expander) get(f *Formula) *Formula {
	mask := uint32(len(x.slots) - 1)
	for i := f.h & mask; len(x.slots) > 0; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.gen != x.gen {
			return nil
		}
		if s.key == f {
			return s.val
		}
	}
	return nil
}

func (x *Expander) put(f, val *Formula) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]expSlot, max(64, 2*len(old)))
		x.n = 0
		for _, s := range old {
			if s.gen == x.gen {
				x.put(s.key, s.val)
			}
		}
	}
	mask := uint32(len(x.slots) - 1)
	i := f.h & mask
	for x.slots[i].gen == x.gen {
		i = (i + 1) & mask
	}
	x.slots[i] = expSlot{key: f, val: val, gen: x.gen}
	x.n++
}
