package bbox

import (
	"math/rand"
	"testing"
)

// randProgBox returns an empty, universe, or random proper box in k dims.
func randProgBox(r *rand.Rand, k int) Box {
	switch r.Intn(5) {
	case 0:
		return Empty(k)
	case 1:
		return Univ(k)
	default:
		lo, hi := make([]float64, k), make([]float64, k)
		for i := range lo {
			a, b := r.Float64()*100, r.Float64()*100
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		return Box{K: k, Lo: lo, Hi: hi}
	}
}

// randProgFunc builds a raw function tree covering every node kind, bypassing
// the constructors' unit folding so FEmpty/FUniv appear as inner operands
// too.
func randProgFunc(r *rand.Rand, depth, nvars, k int) *Func {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &Func{kind: FEmpty}
		case 1:
			return &Func{kind: FUniv}
		case 2:
			return &Func{kind: FVar, v: r.Intn(nvars)}
		default:
			return &Func{kind: FConst, c: randProgBox(r, k)}
		}
	}
	kind := FMeet
	if r.Intn(2) == 0 {
		kind = FJoin
	}
	return &Func{kind: kind, l: randProgFunc(r, depth-1, nvars, k), r: randProgFunc(r, depth-1, nvars, k)}
}

// TestProgramEquivalentToFuncEval is the randomized property test: for
// random trees over all node kinds and random environments, the compiled
// program and the scratch-backed tree walk (EvalInto, sharing the
// program's scratch) compute exactly what the tree walk computes.
func TestProgramEquivalentToFuncEval(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var scr Scratch
	for trial := 0; trial < 2000; trial++ {
		k := 1 + r.Intn(3)
		nvars := 1 + r.Intn(5)
		f := randProgFunc(r, 1+r.Intn(4), nvars, k)
		env := make([]Box, nvars)
		for v := range env {
			env[v] = randProgBox(r, k)
		}
		want := f.Eval(k, env)
		got := f.Compile().Eval(k, env, &scr)
		if !got.Equal(want) {
			t.Fatalf("trial %d: Program.Eval = %v, Func.Eval = %v for %v over %v",
				trial, got, want, f, env)
		}
		if got := f.EvalInto(k, env, &scr); !got.Equal(want) {
			t.Fatalf("trial %d: Func.EvalInto = %v, Func.Eval = %v for %v over %v",
				trial, got, want, f, env)
		}
	}
}

func TestProgramEvalReusedScratch(t *testing.T) {
	// Two programs sharing one scratch must not corrupt each other, and a
	// result must survive until the next Eval.
	a := MeetFunc(VarFunc(0), VarFunc(1)).Compile()
	b := JoinFunc(VarFunc(0), ConstFunc(Rect(0, 0, 1, 1))).Compile()
	env := []Box{Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)}
	var scr Scratch
	for i := 0; i < 3; i++ {
		got := a.Eval(2, env, &scr)
		if !got.Equal(Rect(2, 2, 4, 4)) {
			t.Fatalf("meet program = %v", got)
		}
		got = b.Eval(2, env, &scr)
		if !got.Equal(Rect(0, 0, 4, 4)) {
			t.Fatalf("join program = %v", got)
		}
	}
}

func TestProgramEvalCopyOwnsResult(t *testing.T) {
	p := MeetFunc(VarFunc(0), VarFunc(1)).Compile()
	env := []Box{Rect(0, 0, 4, 4), Rect(1, 1, 6, 6)}
	var scr Scratch
	out := p.EvalCopy(2, env, &scr)
	// Overwrite the scratch with a different evaluation; out must not move.
	p.Eval(2, []Box{Rect(7, 7, 9, 9), Rect(8, 8, 9, 9)}, &scr)
	if !out.Equal(Rect(1, 1, 4, 4)) {
		t.Fatalf("EvalCopy result mutated by later Eval: %v", out)
	}
}

func TestProgramUnboundVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unbound variable")
		}
	}()
	var scr Scratch
	VarFunc(3).Compile().Eval(2, make([]Box, 2), &scr)
}

// TestProgramEvalAllocFree pins the tentpole invariant: a warm scratch
// makes Eval allocate nothing, whatever mix of empty/universe/proper boxes
// flows through the stack; nor does EvalInto, the tree walk the planner
// costs unlowered templates with.
func TestProgramEvalAllocFree(t *testing.T) {
	f := JoinFunc(
		MeetFunc(VarFunc(0), MeetFunc(VarFunc(1), ConstFunc(Rect(0, 0, 50, 50)))),
		MeetFunc(VarFunc(2), JoinFunc(VarFunc(3), EmptyFunc())),
	)
	p := f.Compile()
	env := []Box{Rect(0, 0, 4, 4), Rect(2, 2, 6, 6), Rect(1, 1, 3, 3), Empty(2)}
	var scr Scratch
	p.Eval(2, env, &scr) // warm-up: grow the scratch once
	allocs := testing.AllocsPerRun(200, func() {
		p.Eval(2, env, &scr)
	})
	if allocs != 0 {
		t.Fatalf("Program.Eval allocates %v per run with a warm scratch, want 0", allocs)
	}
	f.EvalInto(2, env, &scr)
	allocs = testing.AllocsPerRun(200, func() {
		f.EvalInto(2, env, &scr)
	})
	if allocs != 0 {
		t.Fatalf("Func.EvalInto allocates %v per run with a warm scratch, want 0", allocs)
	}
}

func BenchmarkProgramEval(b *testing.B) {
	f := JoinFunc(
		MeetFunc(VarFunc(0), MeetFunc(VarFunc(1), ConstFunc(Rect(0, 0, 50, 50)))),
		MeetFunc(VarFunc(2), VarFunc(3)),
	)
	env := []Box{Rect(0, 0, 4, 4), Rect(2, 2, 6, 6), Rect(1, 1, 3, 3), Rect(0, 0, 9, 9)}
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Eval(2, env)
		}
	})
	b.Run("program", func(b *testing.B) {
		p := f.Compile()
		var scr Scratch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Eval(2, env, &scr)
		}
	})
}
