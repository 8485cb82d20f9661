// Package walcheck enforces the durable-write protocol (PR 6) and the
// stats-maintenance contract (PR 7) on store mutation entry points. A
// function annotated //boolq:mutation must:
//
//  1. call the WAL append (default s.logMutation) at least once,
//  2. use its error — assigning to blank or dropping the result
//     silently discards ErrDurability,
//  3. log while a write lock is held (WAL order must equal apply
//     order; logging after unlock races concurrent mutators),
//  4. log after the epoch bump (the log entry describes an applied
//     mutation),
//  5. reach statistics maintenance — a call to a //boolq:statsink
//     function (internal/stats Add/Remove), directly or through
//     same-package helpers — unless annotated `//boolq:mutation
//     nostats` (layer creation has no per-object stats to touch),
//  6. pass the degraded-mode admission gate (default
//     s.admitMutationLocked, PR 9) before the WAL call — a degraded
//     store must reject the mutation before anything is applied, or
//     memory diverges from the log during repair,
//  7. never invoke the mutation sink field directly — the sink belongs
//     to logMutation, whose wrapper is what routes failures through
//     the retry/degrade machinery instead of raw ErrDurability.
//
// WAL recovery replays through the replica-apply entry point described
// below, whose contract forbids relogging: a relogged record would
// duplicate the tail. The apply core itself (applyMutationLocked) is not
// annotated; its callers admit, bump the epoch and log in their own
// bodies, where these rules check them.
//
// Replica-apply entry points — functions applying a primary's shipped
// records on a read replica (PR 10) — are annotated `//boolq:mutation
// replica` and carry an inverted contract: the record is already durable
// on the primary and the local admission gate exists to turn local
// writes away, so a replica-apply must NOT call the WAL append, NOT
// invoke the sink, and NOT pass the admission gate (it would reject
// every record once the replica gate is raised). It must still apply
// through the shared replay body (default applyMutationLocked) under a
// write lock, and still reach statistics maintenance unless `nostats`.
package walcheck

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var flags = flag.NewFlagSet("walcheck", flag.ContinueOnError)

// logFn is the method name that appends to the WAL sink.
var logFn = flags.String("logfn", "logMutation", "method name of the WAL append")

// guardFn is the degraded-mode admission gate every mutation must pass
// before its WAL call.
var guardFn = flags.String("guardfn", "admitMutationLocked", "method name of the degraded-mode admission gate")

// sinkField is the mutation-sink field only logFn may invoke.
var sinkField = flags.String("sinkfield", "sink", "field name of the raw mutation sink")

// applyFn is the shared replay body a `//boolq:mutation replica` entry
// point must invoke under the write lock.
var applyFn = flags.String("applyfn", "applyMutationLocked", "method name of the shared replay body replica applies go through")

// Analyzer is the walcheck analyzer.
var Analyzer = &analysis.Analyzer{
	Name:  "walcheck",
	Doc:   "check //boolq:mutation entry points log to the WAL under the write lock, propagate the error, and maintain stats",
	Flags: flags,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	dirs := analysis.CollectDirectives(pass.Fset, pass.Files)

	// Export statsink facts (and collect the local set) first, so both
	// same-package and importing mutation entry points can prove their
	// stats call.
	sinks := map[types.Object]bool{}
	decls := map[string][]*ast.FuncDecl{} // name → decls (methods may collide; all are candidates)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fn.Name.Name] = append(decls[fn.Name.Name], fn)
			if _, ok := dirs.Func(fn, "statsink"); ok {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					sinks[obj] = true
					pass.ExportFact(analysis.FuncSymbol(obj))
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			dir, ok := dirs.Func(fn, "mutation")
			if !ok {
				continue
			}
			nostats, replica := false, false
			for _, a := range dir.Args {
				switch a {
				case "nostats":
					nostats = true
				case "replica":
					replica = true
				}
			}
			if replica {
				checkReplicaMutation(pass, decls, sinks, fn, nostats)
			} else {
				checkMutation(pass, decls, sinks, fn, nostats)
			}
		}
	}
	return nil
}

func checkMutation(pass *analysis.Pass, decls map[string][]*ast.FuncDecl, sinks map[types.Object]bool, fn *ast.FuncDecl, nostats bool) {
	var (
		logCalls []logCall
		epochPos = token.NoPos
		guardPos = token.NoPos
	)

	// Walk with lock tracking so each WAL call knows the lock state at
	// its site.
	h := analysis.LockHandler{
		Call: func(call *ast.CallExpr, st *analysis.LockState) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			switch sel.Sel.Name {
			case *logFn:
				logCalls = append(logCalls, logCall{call: call, writeLocked: anyWriteHeld(st)})
			case *guardFn:
				if guardPos == token.NoPos || call.Pos() < guardPos {
					guardPos = call.Pos()
				}
			case *sinkField:
				// A direct s.sink(m) call bypasses logMutation's wrapper —
				// the layer that turns raw sink failures into the
				// retry/degrade protocol.
				pass.Reportf(call.Pos(), "mutation sink %s invoked directly; route through %s so failures go through retry/degrade instead of raw ErrDurability", *sinkField, *logFn)
			case "Add":
				// epoch bump: <recv>.epoch.Add(1)
				if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "epoch" {
					if epochPos == token.NoPos || call.Pos() < epochPos {
						epochPos = call.Pos()
					}
				}
			}
		},
	}
	lits := analysis.WalkLocks(fn.Body, analysis.NewLockState(), h)
	for i := 0; i < len(lits); i++ {
		lits = append(lits, analysis.WalkLocks(lits[i].Body, analysis.NewLockState(), h)...)
	}

	if len(logCalls) == 0 {
		pass.Reportf(fn.Name.Pos(), "//boolq:mutation %s never calls %s: the mutation would not survive a crash", fn.Name.Name, *logFn)
		return
	}
	if guardPos == token.NoPos {
		pass.Reportf(fn.Name.Pos(), "//boolq:mutation %s never calls %s: a degraded store must reject the mutation before anything is applied", fn.Name.Name, *guardFn)
	}
	for _, lc := range logCalls {
		if guardPos != token.NoPos && lc.call.Pos() < guardPos {
			pass.Reportf(lc.call.Pos(), "%s called before the %s gate; degraded mode must be checked before the mutation is logged", *logFn, *guardFn)
		}
		if !lc.writeLocked {
			pass.Reportf(lc.call.Pos(), "%s called without holding a write lock; WAL order may diverge from apply order", *logFn)
		}
		if epochPos == token.NoPos || lc.call.Pos() < epochPos {
			pass.Reportf(lc.call.Pos(), "%s called before the epoch bump; log after the mutation is applied", *logFn)
		}
		if !errorUsed(fn.Body, lc.call) {
			pass.Reportf(lc.call.Pos(), "%s error discarded; ErrDurability must propagate to the caller", *logFn)
		}
	}

	if !nostats && !reachesSink(pass, decls, sinks, fn, map[*ast.FuncDecl]bool{}, 0) {
		pass.Reportf(fn.Name.Pos(), "//boolq:mutation %s never reaches a //boolq:statsink call; planner statistics would go stale (use `//boolq:mutation nostats` only if no per-object stats change)", fn.Name.Name)
	}
}

// checkReplicaMutation enforces the inverted contract of a
// `//boolq:mutation replica` entry point: no WAL append (the record is
// already durable on the primary), no direct sink use, no local
// admission gate (it would reject every shipped record once the replica
// gate is raised), and at least one call to the shared replay body under
// a write lock. Stats reachability is shared with the local contract:
// replica applies feed the same planner statistics.
func checkReplicaMutation(pass *analysis.Pass, decls map[string][]*ast.FuncDecl, sinks map[types.Object]bool, fn *ast.FuncDecl, nostats bool) {
	applies := 0
	h := analysis.LockHandler{
		Call: func(call *ast.CallExpr, st *analysis.LockState) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			switch sel.Sel.Name {
			case *logFn:
				pass.Reportf(call.Pos(), "replica apply %s calls %s; shipped records are already durable on the primary and relogging them would duplicate the stream", fn.Name.Name, *logFn)
			case *sinkField:
				pass.Reportf(call.Pos(), "replica apply %s invokes the mutation sink %s; a replica owns no WAL", fn.Name.Name, *sinkField)
			case *guardFn:
				pass.Reportf(call.Pos(), "replica apply %s passes the %s gate; the gate rejects local writes and would turn away every shipped record in replica mode", fn.Name.Name, *guardFn)
			case *applyFn:
				applies++
				if !anyWriteHeld(st) {
					pass.Reportf(call.Pos(), "%s called without holding a write lock; replica applies must not interleave with readers", *applyFn)
				}
			}
		},
	}
	lits := analysis.WalkLocks(fn.Body, analysis.NewLockState(), h)
	for i := 0; i < len(lits); i++ {
		lits = append(lits, analysis.WalkLocks(lits[i].Body, analysis.NewLockState(), h)...)
	}
	if applies == 0 {
		pass.Reportf(fn.Name.Pos(), "//boolq:mutation replica %s never calls %s: shipped records must go through the shared replay body", fn.Name.Name, *applyFn)
	}
	if !nostats && !reachesSink(pass, decls, sinks, fn, map[*ast.FuncDecl]bool{}, 0) {
		pass.Reportf(fn.Name.Pos(), "//boolq:mutation %s never reaches a //boolq:statsink call; planner statistics would go stale (use `//boolq:mutation nostats` only if no per-object stats change)", fn.Name.Name)
	}
}

type logCall struct {
	call        *ast.CallExpr
	writeLocked bool
}

func anyWriteHeld(st *analysis.LockState) bool {
	return st.AnyWriteHeld()
}

// errorUsed reports whether call's result is consumed: anything but a
// bare expression statement or an all-blank assignment counts.
func errorUsed(body *ast.BlockStmt, call *ast.CallExpr) bool {
	used := true
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if n.X == call {
				used = false
				return false
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if r != call {
					continue
				}
				// Single-value assignment to blank(s) is a discard.
				allBlank := true
				if len(n.Rhs) == 1 {
					for _, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
							allBlank = false
						}
					}
				} else if id, ok := n.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
				if allBlank {
					used = false
				}
				return false
			}
		}
		return true
	})
	return used
}

// reachesSink reports whether fn (or a same-package callee, through a
// shallow call graph) calls a statsink function — locally annotated or
// exported as a fact by another package (internal/stats). visiting
// guards against cycles; depth bounds one exploration path (name-based
// resolution fans out over same-named methods, so the bound is per
// path, not a global budget).
func reachesSink(pass *analysis.Pass, decls map[string][]*ast.FuncDecl, sinks map[types.Object]bool, fn *ast.FuncDecl, visiting map[*ast.FuncDecl]bool, depth int) bool {
	if visiting[fn] || depth > 6 {
		return false
	}
	visiting[fn] = true
	defer delete(visiting, fn)
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(pass.TypesInfo, call)
		if callee != nil {
			if sinks[callee] || pass.HasFact(analysis.FuncSymbol(callee)) {
				found = true
				return false
			}
		}
		// Same-package recursion by name (methods included).
		name := calleeName(call)
		for _, cand := range decls[name] {
			if cand.Body == nil {
				continue
			}
			if reachesSink(pass, decls, sinks, cand, visiting, depth+1) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
