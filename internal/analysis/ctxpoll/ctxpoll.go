// Package ctxpoll enforces the executors' cancellation contract (PR 3):
// every candidate loop must sample the shared execCtl so a cancelled
// context halts the run within cancelCheckEvery candidates. Concretely,
// a function-literal callback passed to a candidate source — a method
// named All, Search, SearchStats or SearchInto — or stored for that use
// in a field or variable named visit (the pooled execFrame builds its
// per-step callbacks once) must reach a call to poll() on some path
// (directly or through a same-package helper).
// halted() alone does not satisfy the rule: it
// only reads the latched flag and never samples ctx.Done(), so a
// goroutine that only checks halted() would spin forever if nothing
// else polls.
//
// The check applies to the packages named by -ctxpoll.pkgs (default:
// the query executors) and to any function annotated //boolq:cancelloop
// elsewhere. Unbounded `for { ... }` loops in scope must also poll
// (halted() is accepted there — some other goroutine of the run owns
// the polling) unless they block on channel operations, which make the
// loop externally schedulable.
package ctxpoll

import (
	"flag"
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

var flags = flag.NewFlagSet("ctxpoll", flag.ContinueOnError)

// pkgs gates the whole-package check; //boolq:cancelloop opts single
// functions in anywhere.
var pkgs = flags.String("pkgs", "repro/internal/query", "comma-separated import paths checked in full")

// Analyzer is the ctxpoll analyzer.
var Analyzer = &analysis.Analyzer{
	Name:  "ctxpoll",
	Doc:   "check candidate-iteration callbacks poll execCtl cancellation",
	Flags: flags,
	Run:   run,
}

// candidateSources are the method names whose callback argument
// iterates candidates.
var candidateSources = map[string]bool{
	"All":         true,
	"Search":      true,
	"SearchStats": true,
	"SearchInto":  true,
}

func run(pass *analysis.Pass) error {
	dirs := analysis.CollectDirectives(pass.Fset, pass.Files)
	inScope := false
	for _, p := range strings.Split(*pkgs, ",") {
		if strings.TrimSpace(p) == pass.Pkg.Path() {
			inScope = true
		}
	}

	// helpers maps each declared function name to whether its body
	// polls, for the transitive "reaches poll through a helper" step.
	helpers := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				helpers[fn.Name.Name] = fn
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			_, optIn := dirs.Func(fn, "cancelloop")
			if !inScope && !optIn {
				continue
			}
			checkFunc(pass, helpers, fn)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, helpers map[string]*ast.FuncDecl, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !candidateSources[sel.Sel.Name] {
				return true
			}
			for _, arg := range n.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue // a named func or parameter: checked at its own definition site
				}
				if !reaches(pass, helpers, lit.Body, map[string]bool{}, false) {
					pass.Reportf(lit.Pos(), "candidate callback passed to %s never calls execCtl poll on any path; cancellation would go unnoticed", sel.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				lit, ok := n.Rhs[i].(*ast.FuncLit)
				if !ok || !namedVisit(lhs) {
					continue
				}
				if !reaches(pass, helpers, lit.Body, map[string]bool{}, false) {
					pass.Reportf(lit.Pos(), "candidate callback stored as visit never calls execCtl poll on any path; cancellation would go unnoticed")
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				return true
			}
			if blocksOnChannel(n.Body) {
				return true
			}
			if !reaches(pass, helpers, n.Body, map[string]bool{}, true) {
				pass.Reportf(n.Pos(), "unbounded for loop neither polls cancellation nor blocks on a channel")
			}
		}
		return true
	})
}

// namedVisit reports whether an assignment target is a variable or field
// called visit.
func namedVisit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "visit"
	case *ast.SelectorExpr:
		return e.Sel.Name == "visit"
	}
	return false
}

// reaches reports whether body contains a call to poll (or, when
// acceptHalted, halted), directly or through same-package function
// declarations up to a small depth. Nested function literals count:
// they are invoked from within the loop.
func reaches(pass *analysis.Pass, helpers map[string]*ast.FuncDecl, body ast.Node, visiting map[string]bool, acceptHalted bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "poll" || (acceptHalted && fun.Sel.Name == "halted") {
				found = true
				return false
			}
			if helper, ok := helpers[fun.Sel.Name]; ok && !visiting[fun.Sel.Name] && len(visiting) < 4 {
				visiting[fun.Sel.Name] = true
				if reaches(pass, helpers, helper.Body, visiting, acceptHalted) {
					found = true
					return false
				}
			}
		case *ast.Ident:
			if fun.Name == "poll" || (acceptHalted && fun.Name == "halted") {
				found = true
				return false
			}
			if helper, ok := helpers[fun.Name]; ok && !visiting[fun.Name] && len(visiting) < 4 {
				visiting[fun.Name] = true
				if reaches(pass, helpers, helper.Body, visiting, acceptHalted) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// blocksOnChannel reports whether the loop body contains a select
// statement or channel receive/send at its top level of control flow —
// such loops park on the scheduler instead of burning a core.
func blocksOnChannel(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			blocking = true
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				blocking = true
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return !blocking
	})
	return blocking
}
