package bbox

import "fmt"

// This file compiles bounding-box function trees (*Func) into flat postfix
// programs evaluated with a caller-owned scratch stack. The tree walk in
// Func.Eval allocates fresh boxes at every constant and inner node, which
// at millions of candidates per query makes garbage collection — not index
// work — the dominant executor cost. A Program is compiled once per plan
// step and evaluated per candidate with zero steady-state allocations: the
// Scratch's box buffers grow on first use and are reused forever after.
//
// Func.Eval is kept (and tested equivalent) as the debugging reference
// implementation; DESIGN.md §"Execution cost model" documents the
// ownership contract.

// progOpCode is one postfix instruction kind.
type progOpCode uint8

const (
	progEmpty progOpCode = iota // push ∅
	progUniv                    // push the universe
	progVar                     // push env[arg] (aliased, not copied)
	progConst                   // push consts[arg] (aliased, not copied)
	progMeet                    // pop b, a; push a ⊓ b
	progJoin                    // pop b, a; push a ⊔ b
)

// progOp is one postfix instruction; arg is the variable index for progVar
// and the constant-pool index for progConst.
type progOp struct {
	code progOpCode
	arg  int32
}

// Program is a compiled bounding-box function: a postfix op array plus a
// constant pool, evaluated against a reusable Scratch. Programs are
// immutable after compilation and safe for concurrent Eval calls as long
// as each goroutine owns its Scratch.
type Program struct {
	ops      []progOp
	consts   []Box
	maxStack int
}

// Compile lowers the function tree into a postfix program.
func (f *Func) Compile() *Program {
	return &CompileAll([]*Func{f})[0]
}

// CompileAll lowers every function of fs into a postfix program, progs[i]
// being fs[i]'s, with the instructions and constants of all of them cut
// from one array each: a plan lowering all its steps pays three
// allocations, not three per function.
func CompileAll(fs []*Func) []Program {
	nops, nconsts := 0, 0
	for _, f := range fs {
		o, c := f.size()
		nops, nconsts = nops+o, nconsts+c
	}
	ops := make([]progOp, nops)
	var consts []Box
	if nconsts > 0 {
		consts = make([]Box, nconsts)
	}
	progs := make([]Program, len(fs))
	for i, f := range fs {
		o, c := f.size()
		p := &progs[i]
		p.ops, ops = ops[:0:o], ops[o:]
		p.consts, consts = consts[:0:c], consts[c:]
		p.emit(f, 0)
	}
	return progs
}

// size returns how many instructions and constants f lowers to.
func (f *Func) size() (ops, consts int) {
	switch f.kind {
	case FMeet, FJoin:
		lo, lc := f.l.size()
		ro, rc := f.r.size()
		return lo + ro + 1, lc + rc
	case FConst:
		return 1, 1
	}
	return 1, 0
}

// emit appends n's instructions to p, the stack holding depth values
// before them.
func (p *Program) emit(n *Func, depth int) {
	switch n.kind {
	case FMeet, FJoin:
		p.emit(n.l, depth)
		p.emit(n.r, depth+1)
		code := progMeet
		if n.kind == FJoin {
			code = progJoin
		}
		p.ops = append(p.ops, progOp{code: code}) // two operands popped, one result pushed
		return
	case FEmpty:
		p.ops = append(p.ops, progOp{code: progEmpty})
	case FUniv:
		p.ops = append(p.ops, progOp{code: progUniv})
	case FVar:
		p.ops = append(p.ops, progOp{code: progVar, arg: int32(n.v)})
	case FConst:
		p.ops = append(p.ops, progOp{code: progConst, arg: int32(len(p.consts))})
		p.consts = append(p.consts, n.c)
	}
	p.maxStack = max(p.maxStack, depth+1)
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.ops) }

// Scratch is the caller-owned evaluation state for Program.Eval: a value
// stack plus one owned storage box per stack depth. The storage boxes grow
// their backing arrays on first use at a given dimensionality and are
// reused across evaluations, so a warm Scratch makes Eval allocation-free.
// A Scratch may be shared by any number of programs but by only one
// goroutine at a time.
type Scratch struct {
	vals  []Box // value at each depth; may alias env, the const pool, or slots
	slots []Box // owned storage written by the binary ops
}

// grow makes room for a stack of depth n.
//
//boolq:noalloc
func (s *Scratch) grow(n int) {
	if len(s.vals) >= n {
		return
	}
	s.vals = append(s.vals, make([]Box, n-len(s.vals))...)    //boolq:allowalloc grow-once: a warm Scratch skips the whole branch
	s.slots = append(s.slots, make([]Box, n-len(s.slots))...) //boolq:allowalloc grow-once: a warm Scratch skips the whole branch
}

// Eval evaluates the program in k dimensions with env supplying the
// bounding box of each variable by index, using scr's buffers. It computes
// exactly what the source Func.Eval computes. The returned box may alias
// scr's internal storage (or env, or the program's constant pool): it is
// valid until the next Eval with the same Scratch, and callers that retain
// it must CopyInto a box they own. Unbound variables panic, as in
// Func.Eval.
//
//boolq:noalloc
func (p *Program) Eval(k int, env []Box, scr *Scratch) Box {
	scr.grow(p.maxStack)
	sp := 0
	for _, op := range p.ops {
		switch op.code {
		case progEmpty:
			scr.vals[sp] = Box{K: k} //boolq:allowalloc value literal with nil slices, written into the existing stack slot
			sp++
		case progUniv:
			scr.slots[sp].SetUniv(k)
			scr.vals[sp] = scr.slots[sp]
			sp++
		case progVar:
			v := int(op.arg)
			if v >= len(env) {
				panic(fmt.Sprintf("bbox: unbound variable x%d in box program", v))
			}
			scr.vals[sp] = env[v]
			sp++
		case progConst:
			scr.vals[sp] = p.consts[op.arg]
			sp++
		case progMeet:
			sp--
			scr.vals[sp-1].MeetInto(scr.vals[sp], &scr.slots[sp-1])
			scr.vals[sp-1] = scr.slots[sp-1]
		case progJoin:
			sp--
			scr.vals[sp-1].JoinInto(scr.vals[sp], &scr.slots[sp-1])
			scr.vals[sp-1] = scr.slots[sp-1]
		}
	}
	return scr.vals[0]
}

// EvalCopy is Eval returning a box the caller owns (one allocation per
// call; for callers outside the hot path).
func (p *Program) EvalCopy(k int, env []Box, scr *Scratch) Box {
	var out Box
	p.Eval(k, env, scr).CopyInto(&out)
	return out
}
