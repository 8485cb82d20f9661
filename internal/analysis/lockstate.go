package analysis

import (
	"go/ast"
	"go/token"
)

// This file implements the lexical lock tracker behind lockguard (and
// walcheck's under-lock ordering check): a statement-order walk of a
// function body that maintains which mutexes are held, merging branches
// conservatively (a lock survives an if/else only if every non-returning
// arm holds it). It is an approximation, not a dataflow analysis — but
// the engine's locking is deliberately block-structured (lock at entry,
// defer or trailing unlock), so the approximation is exact on this
// codebase, and anything it cannot prove must be annotated or fixed.

// LockMode distinguishes shared from exclusive acquisition.
type LockMode uint8

// Lock modes.
const (
	ModeRead LockMode = iota
	ModeWrite
)

// lockInfo is the tracked state of one held mutex.
type lockInfo struct {
	mode     LockMode
	deferred bool // a deferred unlock pins it to function exit
	pos      token.Pos
}

// LockState is the set of mutexes held at a program point, keyed by the
// rendered receiver expression of the Lock call ("s.mu", "store").
type LockState struct {
	held map[string]lockInfo
	// pendingDefer records deferred unlocks seen before (or after) their
	// lock, keyed like held.
	pendingDefer map[string]bool
}

// NewLockState returns an empty state.
func NewLockState() *LockState {
	return &LockState{held: map[string]lockInfo{}, pendingDefer: map[string]bool{}}
}

// Seed marks key as held (used for //boolq:locked annotations: the
// caller guarantees the lock at entry, released by the caller too).
func (st *LockState) Seed(key string, mode LockMode) {
	st.held[key] = lockInfo{mode: mode, deferred: true}
}

func (st *LockState) clone() *LockState {
	c := NewLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	for k, v := range st.pendingDefer {
		c.pendingDefer[k] = v
	}
	return c
}

// intersect keeps only locks held in both states, weakening the mode and
// clearing deferred if either side disagrees.
func (st *LockState) intersect(o *LockState) {
	for k, v := range st.held {
		ov, ok := o.held[k]
		if !ok {
			delete(st.held, k)
			continue
		}
		if ov.mode == ModeRead {
			v.mode = ModeRead
		}
		v.deferred = v.deferred && ov.deferred
		st.held[k] = v
	}
	for k := range st.pendingDefer {
		if !o.pendingDefer[k] {
			delete(st.pendingDefer, k)
		}
	}
}

// HeldFor reports whether the mutex guarding base.field accesses is held:
// either base.field itself was locked ("s.mu.Lock()") or base exposes
// lock methods directly ("store.RLock()").
func (st *LockState) HeldFor(base, field string, needWrite bool) bool {
	for _, key := range []string{base + "." + field, base} {
		if li, ok := st.held[key]; ok {
			if !needWrite || li.mode == ModeWrite {
				return true
			}
		}
	}
	return false
}

// AnyWriteHeld reports whether any mutex is currently held in write
// mode (walcheck's "logged under the write lock" test).
func (st *LockState) AnyWriteHeld() bool {
	for _, li := range st.held {
		if li.mode == ModeWrite {
			return true
		}
	}
	return false
}

// InlineHeld returns the keys held without a deferred unlock, i.e. locks
// that must be released before any exit on this path.
func (st *LockState) InlineHeld() map[string]token.Pos {
	out := map[string]token.Pos{}
	for k, v := range st.held {
		if !v.deferred {
			out[k] = v.pos
		}
	}
	return out
}

// LockHandler receives the walk's events.
type LockHandler struct {
	// Expr is invoked for every expression node in evaluation-ish order
	// with the current state; write marks assignment targets and
	// address-taken operands.
	Expr func(e ast.Expr, write bool, st *LockState)
	// Exit is invoked at every return statement and at fall-off-the-end
	// with the state at that point.
	Exit func(pos token.Pos, st *LockState)
	// Call is invoked for every call expression (after its arguments),
	// including lock/unlock calls themselves.
	Call func(call *ast.CallExpr, st *LockState)
}

// lockMethods maps method names to (mode, isRelease).
var lockMethods = map[string]struct {
	mode    LockMode
	release bool
}{
	"Lock":    {ModeWrite, false},
	"RLock":   {ModeRead, false},
	"Unlock":  {ModeWrite, true},
	"RUnlock": {ModeRead, true},
}

// LockEvent decodes a call as a lock-protocol event, returning the state
// key ("s.mu" for s.mu.Lock(), "store" for store.RLock()).
func LockEvent(call *ast.CallExpr) (key string, mode LockMode, release, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false, false
	}
	ev, isLock := lockMethods[sel.Sel.Name]
	if !isLock || len(call.Args) != 0 {
		return "", 0, false, false
	}
	key = RenderExpr(sel.X)
	if key == "" {
		return "", 0, false, false
	}
	return key, ev.mode, ev.release, true
}

// RenderExpr renders a selector/ident path ("s.mu", "f.ctl"); "" for
// anything not a plain path.
func RenderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := RenderExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return RenderExpr(e.X)
	case *ast.StarExpr:
		return RenderExpr(e.X)
	}
	return ""
}

// LockWalker walks one function body.
type LockWalker struct {
	h    LockHandler
	lits []*ast.FuncLit
}

// WalkLocks walks body from init, firing h's events. Nested function
// literals are not descended; they are returned for the caller to walk
// with whatever initial state is appropriate (usually empty: a closure
// may run on another goroutine or after the lock is gone).
func WalkLocks(body *ast.BlockStmt, init *LockState, h LockHandler) []*ast.FuncLit {
	w := &LockWalker{h: h}
	if !w.stmts(body.List, init) {
		if h.Exit != nil {
			h.Exit(body.End(), init)
		}
	}
	return w.lits
}

// stmts walks a statement list; true means every path terminated
// (returned/branched) before the end.
func (w *LockWalker) stmts(list []ast.Stmt, st *LockState) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *LockWalker) stmt(s ast.Stmt, st *LockState) bool {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.ExprStmt:
		w.expr(s.X, false, st)
	case *ast.SendStmt:
		w.expr(s.Chan, false, st)
		w.expr(s.Value, false, st)
	case *ast.IncDecStmt:
		w.expr(s.X, true, st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, false, st)
		}
		for _, l := range s.Lhs {
			w.expr(l, true, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, false, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.deferred(s.Call, st)
	case *ast.GoStmt:
		// The goroutine body runs with its own (empty) lock state; its
		// arguments are evaluated here.
		for _, a := range s.Call.Args {
			w.expr(a, false, st)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		} else {
			w.expr(s.Call.Fun, false, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, false, st)
		}
		if w.h.Exit != nil {
			w.h.Exit(s.Pos(), st)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		w.stmt(s.Init, st)
		w.expr(s.Cond, false, st)
		thenSt := st.clone()
		thenTerm := w.stmts(s.Body.List, thenSt)
		if s.Else == nil {
			if !thenTerm {
				st.intersect(thenSt)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := w.stmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.intersect(elseSt)
		}
	case *ast.ForStmt:
		w.stmt(s.Init, st)
		if s.Cond != nil {
			w.expr(s.Cond, false, st)
		}
		bodySt := st.clone()
		w.stmts(s.Body.List, bodySt)
		w.stmt(s.Post, bodySt)
		// After the loop the entry state is the sound approximation: zero
		// iterations are possible, and a balanced body changes nothing.
	case *ast.RangeStmt:
		w.expr(s.X, false, st)
		if s.Key != nil {
			w.expr(s.Key, true, st)
		}
		if s.Value != nil {
			w.expr(s.Value, true, st)
		}
		bodySt := st.clone()
		w.stmts(s.Body.List, bodySt)
	case *ast.SwitchStmt:
		w.stmt(s.Init, st)
		if s.Tag != nil {
			w.expr(s.Tag, false, st)
		}
		w.caseBodies(s.Body, st)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, st)
		w.stmt(s.Assign, st)
		w.caseBodies(s.Body, st)
	case *ast.SelectStmt:
		w.caseBodies(s.Body, st)
	}
	return false
}

// caseBodies walks every case clause on a cloned state and merges the
// survivors into st by intersection.
func (w *LockWalker) caseBodies(body *ast.BlockStmt, st *LockState) {
	var survivors []*LockState
	for _, cc := range body.List {
		var stmts []ast.Stmt
		switch cc := cc.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.expr(e, false, st)
			}
			stmts = cc.Body
		case *ast.CommClause:
			w.stmt(cc.Comm, st)
			stmts = cc.Body
		default:
			continue
		}
		cs := st.clone()
		if !w.stmts(stmts, cs) {
			survivors = append(survivors, cs)
		}
	}
	for _, s := range survivors {
		st.intersect(s)
	}
}

// deferred processes a defer statement: a deferred unlock keeps the lock
// "held to exit" instead of requiring an inline release.
func (w *LockWalker) deferred(call *ast.CallExpr, st *LockState) {
	for _, a := range call.Args {
		w.expr(a, false, st)
	}
	if key, _, release, ok := LockEvent(call); ok && release {
		if li, held := st.held[key]; held {
			li.deferred = true
			st.held[key] = li
		} else {
			st.pendingDefer[key] = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.lits = append(w.lits, lit)
		return
	}
	w.expr(call.Fun, false, st)
	if w.h.Call != nil {
		w.h.Call(call, st)
	}
}

// expr walks one expression tree in evaluation order, updating lock
// state at Lock/Unlock calls and firing handler events.
func (w *LockWalker) expr(e ast.Expr, write bool, st *LockState) {
	if e == nil {
		return
	}
	if w.h.Expr != nil {
		w.h.Expr(e, write, st)
	}
	switch e := e.(type) {
	case *ast.Ident, *ast.BasicLit:
	case *ast.SelectorExpr:
		w.expr(e.X, false, st)
	case *ast.ParenExpr:
		w.expr(e.X, write, st)
	case *ast.StarExpr:
		w.expr(e.X, write, st)
	case *ast.UnaryExpr:
		w.expr(e.X, e.Op.String() == "&", st)
	case *ast.BinaryExpr:
		w.expr(e.X, false, st)
		w.expr(e.Y, false, st)
	case *ast.IndexExpr:
		w.expr(e.X, write, st)
		w.expr(e.Index, false, st)
	case *ast.IndexListExpr:
		w.expr(e.X, write, st)
		for _, i := range e.Indices {
			w.expr(i, false, st)
		}
	case *ast.SliceExpr:
		w.expr(e.X, write, st)
		w.expr(e.Low, false, st)
		w.expr(e.High, false, st)
		w.expr(e.Max, false, st)
	case *ast.TypeAssertExpr:
		w.expr(e.X, false, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, false, st)
				continue
			}
			w.expr(el, false, st)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key, false, st)
		w.expr(e.Value, false, st)
	case *ast.FuncLit:
		w.lits = append(w.lits, e)
	case *ast.CallExpr:
		// delete(x.f, k) mutates its map argument.
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "delete" && len(e.Args) == 2 {
			w.expr(e.Args[0], true, st)
			w.expr(e.Args[1], false, st)
			if w.h.Call != nil {
				w.h.Call(e, st)
			}
			return
		}
		if key, mode, release, ok := LockEvent(e); ok {
			// Visit the receiver path (so s.mu itself is still an access
			// event for handlers that care), then apply the transition.
			w.expr(e.Fun, false, st)
			if release {
				delete(st.held, key)
			} else {
				li := lockInfo{mode: mode, pos: e.Pos()}
				if st.pendingDefer[key] {
					li.deferred = true
				}
				st.held[key] = li
			}
			if w.h.Call != nil {
				w.h.Call(e, st)
			}
			return
		}
		w.expr(e.Fun, false, st)
		for _, a := range e.Args {
			w.expr(a, false, st)
		}
		if w.h.Call != nil {
			w.h.Call(e, st)
		}
	}
}
