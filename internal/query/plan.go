package query

import (
	"fmt"
	"strings"

	"repro/internal/bbox"
	"repro/internal/bcf"
	"repro/internal/spatialdb"
	"repro/internal/triangular"
)

// DiseqBoxPlan holds the compiled bounding-box approximations of one
// solved disequation x∧P ∨ ¬x∧Q ≠ 0. Both functions approximate from
// above. At run time, when U_Q evaluates to the empty box the disequation
// forces x∧P ≠ 0, which the plan turns into the range-query overlap
// constraint ⌈x⌉ ⊓ U_P ≠ ∅ (§4's conditional approximation).
type DiseqBoxPlan struct {
	P, Q *bbox.Func

	p, q *bbox.Program // compiled forms of P and Q
}

// StepBoxPlan is the compiled per-variable range-query template. The
// *bbox.Func trees are the readable plan (Explain, tests); Compile also
// lowers each to a flat *bbox.Program, which the executors evaluate per
// candidate prefix with zero steady-state allocations (SpecInto).
type StepBoxPlan struct {
	Var    int
	Layer  string
	Lower  *bbox.Func // approximates the solved lower bound s from below
	Upper  *bbox.Func // approximates the solved upper bound t from above
	Diseqs []DiseqBoxPlan

	lower, upper *bbox.Program // compiled forms of Lower and Upper
}

// compilePrograms lowers the steps' function trees to programs, all in
// one block (bbox.CompileAll); Compile and CompileAdaptive call it on the
// steps of the plan they return, so executors never compile in the hot
// path.
func compilePrograms(steps []StepBoxPlan) {
	n := 0
	for _, sp := range steps {
		n += 2 + 2*len(sp.Diseqs)
	}
	fs := make([]*bbox.Func, 0, n)
	for _, sp := range steps {
		fs = append(fs, sp.Lower, sp.Upper)
		for _, d := range sp.Diseqs {
			fs = append(fs, d.P, d.Q)
		}
	}
	progs := bbox.CompileAll(fs)
	for i := range steps {
		sp := &steps[i]
		sp.lower, sp.upper, progs = &progs[0], &progs[1], progs[2:]
		for j := range sp.Diseqs {
			sp.Diseqs[j].p, sp.Diseqs[j].q, progs = &progs[0], &progs[1], progs[2:]
		}
	}
}

// Spec instantiates the range query for a concrete prefix (envBox binds
// the bounding boxes of parameters and earlier variables). The second
// result is false when the step is statically unsatisfiable for this
// prefix — the whole prefix can be pruned. The returned spec owns its
// boxes; executors use SpecInto, the scratch-backed form.
func (sp StepBoxPlan) Spec(k int, envBox []bbox.Box) (bbox.RangeSpec, bool) {
	spec := bbox.RangeSpec{
		K:     k,
		Lower: sp.Lower.Eval(k, envBox),
		Upper: sp.Upper.Eval(k, envBox),
	}
	for _, d := range sp.Diseqs {
		if !d.Q.Eval(k, envBox).IsEmpty() {
			// ¬x∧Q can witness the disequation for any x: no box
			// constraint derivable (the paper's "trivial constraint true"
			// case).
			continue
		}
		p := d.P.Eval(k, envBox)
		if p.IsEmpty() {
			// Both branches empty: the disequation cannot hold.
			return bbox.RangeSpec{}, false
		}
		if p.IsUniv() {
			// ⌈x⌉ ⊓ universe ≠ ∅ holds for every stored object: trivial.
			continue
		}
		spec.Overlaps = append(spec.Overlaps, p)
	}
	if spec.Unsatisfiable() {
		return bbox.RangeSpec{}, false
	}
	return spec, true
}

// specScratch is the per-step, per-frame evaluation state SpecInto reuses
// across candidates: the program stack plus owned boxes for the spec's
// bounds and overlap witnesses, and for the box of the exact lower bound
// the executor joins into the spec's. A warm scratch makes SpecInto
// allocation-free.
type specScratch struct {
	eval         bbox.Scratch
	lower, upper bbox.Box
	exact        bbox.Box
	overlaps     []bbox.Box
}

// SpecInto is Spec evaluated into caller-owned scratch. The returned
// spec's boxes alias scr and stay valid only until the next SpecInto with
// the same scratch — exactly the executor's use: build the spec, run the
// index search, drop it. A lowered step evaluates its compiled programs;
// one never lowered (the planner costs every distinct template and lowers
// only the winner's) walks its function trees, also without allocating.
//
//boolq:noalloc
func (sp StepBoxPlan) SpecInto(k int, envBox []bbox.Box, scr *specScratch) (bbox.RangeSpec, bool) {
	evalBox(sp.lower, sp.Lower, k, envBox, &scr.eval).CopyInto(&scr.lower)
	evalBox(sp.upper, sp.Upper, k, envBox, &scr.eval).CopyInto(&scr.upper)
	spec := bbox.RangeSpec{K: k, Lower: scr.lower, Upper: scr.upper} //boolq:allowalloc value literal aliasing scratch boxes; stays on the stack
	n := 0
	for _, d := range sp.Diseqs {
		if !evalBox(d.q, d.Q, k, envBox, &scr.eval).IsEmpty() {
			continue // ¬x∧Q can witness the disequation: trivially true
		}
		p := evalBox(d.p, d.P, k, envBox, &scr.eval)
		if p.IsEmpty() {
			return bbox.RangeSpec{}, false //boolq:allowalloc zero-value literal with nil slices; stays on the stack
		}
		if p.IsUniv() {
			continue // overlaps-universe holds for every stored object
		}
		if n == len(scr.overlaps) {
			scr.overlaps = append(scr.overlaps, bbox.Box{}) //boolq:allowalloc grow-once: a warm scratch already holds a slot per witness
		}
		p.CopyInto(&scr.overlaps[n])
		n++
	}
	if n > 0 {
		spec.Overlaps = scr.overlaps[:n]
	}
	if spec.Unsatisfiable() {
		return bbox.RangeSpec{}, false //boolq:allowalloc zero-value literal with nil slices; stays on the stack
	}
	return spec, true
}

// evalBox evaluates one of a step's box functions: its program when the
// step was lowered, else its tree.
//
//boolq:noalloc
func evalBox(p *bbox.Program, f *bbox.Func, k int, envBox []bbox.Box, scr *bbox.Scratch) bbox.Box {
	if p != nil {
		return p.Eval(k, envBox, scr)
	}
	return f.EvalInto(k, envBox, scr)
}

// Plan is a compiled query: the triangular solved form plus one range-query
// template per retrieval step.
type Plan struct {
	Query *Query
	Form  *triangular.Form
	Steps []StepBoxPlan

	// Adaptive records how CompileAdaptive chose this plan (nil for plans
	// from plain Compile).
	Adaptive *AdaptiveInfo

	// outPos maps step index → output tuple position. CompileAdaptive
	// sets it so solutions keep the caller's original binding order even
	// when execution runs the steps in another order; nil means identity.
	outPos []int

	orderKey string // retrieval order as "T→R→B", rendered once by Compile
}

// Bindings returns the retrieval bindings in output-tuple order: position
// i of every Solution holds an object for Bindings()[i]. For plans from
// Compile this is just Query.Retrieve; for adaptive plans it is the
// original query's order, whatever order the steps execute in.
func (p *Plan) Bindings() []Binding {
	if p.outPos == nil {
		return p.Query.Retrieve
	}
	out := make([]Binding, len(p.Query.Retrieve))
	for i, b := range p.Query.Retrieve {
		out[p.outPos[i]] = b
	}
	return out
}

// OrderKey renders the plan's retrieval order as "T→R→B" — the key the
// feedback tuner files observed run costs under.
func (p *Plan) OrderKey() string { return p.orderKey }

// Compile runs the full §3+§4 pipeline on the query against the given
// store's schema.
func Compile(q *Query, store *spatialdb.Store) (*Plan, error) {
	if err := validate(q, store); err != nil {
		return nil, err
	}
	order := make([]int, len(q.Retrieve))
	for i, b := range q.Retrieve {
		order[i], _ = q.Sys.Vars.Lookup(b.Var)
	}
	form, err := triangular.Compile(q.Sys.Normalize(), order)
	if err != nil {
		return nil, fmt.Errorf("query: triangularization failed: %w", err)
	}
	plan := &Plan{Query: q, Form: form, Steps: make([]StepBoxPlan, len(form.Steps)), orderKey: orderKey(q)}
	var memo bcf.Memo
	var diseqs []DiseqBoxPlan
	for i, st := range form.Steps {
		if plan.Steps[i], err = stepBoxPlan(st, q.Retrieve[i], &memo, &diseqs); err != nil {
			return nil, err
		}
	}
	compilePrograms(plan.Steps)
	return plan, nil
}

// stepBoxPlan approximates one solved step by its range-query template
// (Algorithm 2), reading each approximation off a canonical form from the
// compilation's memo. The disequations' templates are appended to slab
// and the step's list is cut from it. The function trees are left
// unlowered: the caller runs compilePrograms on the steps of the plan it
// keeps.
func stepBoxPlan(st triangular.Step, b Binding, memo *bcf.Memo, slab *[]DiseqBoxPlan) (StepBoxPlan, error) {
	sp := StepBoxPlan{Var: st.Var, Layer: b.Layer}
	lo := len(*slab)
	s, err := memo.BCF(st.Lower)
	if err != nil {
		return sp, fmt.Errorf("query: lower approximation for %s: %w", b.Var, err)
	}
	sp.Lower = bbox.LowerFromBCF(s)
	if s, err = memo.BCF(st.Upper); err != nil {
		return sp, fmt.Errorf("query: upper approximation for %s: %w", b.Var, err)
	}
	sp.Upper = bbox.UpperFromBCF(s)
	for _, d := range st.Diseqs {
		p, err := memo.BCF(d.P)
		if err != nil {
			return sp, fmt.Errorf("query: disequation approximation: %w", err)
		}
		q, err := memo.BCF(d.Q)
		if err != nil {
			return sp, fmt.Errorf("query: disequation approximation: %w", err)
		}
		*slab = append(*slab, DiseqBoxPlan{P: bbox.UpperFromBCF(p), Q: bbox.UpperFromBCF(q)})
	}
	if lo < len(*slab) {
		sp.Diseqs = (*slab)[lo:len(*slab):len(*slab)]
	}
	return sp, nil
}

// Explain renders the plan: the triangular solved form followed by the
// per-step range-query templates, in the paper's notation. A step whose
// solved lower bound is not 0 gets one more line: the executor joins the
// bounding box of that bound, evaluated exactly for each prefix, into the
// template's lower box.
func (p *Plan) Explain() string {
	name := p.Query.Sys.Vars.Name
	var b strings.Builder
	b.WriteString("triangular solved form:\n")
	b.WriteString(indent(p.Form.StringNamed(name)))
	b.WriteString("\nrange-query plan:\n")
	for i, sp := range p.Steps {
		fmt.Fprintf(&b, "  step %d: retrieve %s from layer %q\n",
			i+1, name(sp.Var), sp.Layer)
		fmt.Fprintf(&b, "    %s <= [%s] <= %s\n",
			sp.Lower.StringNamed(name), name(sp.Var), sp.Upper.StringNamed(name))
		if lower := p.Form.Steps[i].Lower; !lower.IsConst(false) {
			fmt.Fprintf(&b, "    ⌈%s⌉ <= [%s]  (exact, per prefix)\n", lower.StringNamed(name), name(sp.Var))
		}
		for _, d := range sp.Diseqs {
			fmt.Fprintf(&b, "    [%s] ^ %s != ∅   (when %s = ∅)\n",
				name(sp.Var), d.P.StringNamed(name), d.Q.StringNamed(name))
		}
	}
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
