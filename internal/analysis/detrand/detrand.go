// Package detrand implements the anonlint analyzer that keeps ambient
// nondeterminism out of the determinism-contract packages: the packages
// whose outputs are pinned bit-for-bit per seed by the differential
// harness and the golden-file tests (simnet, events, faults, adversary,
// scenario, optimize, pathsel, stats, and montecarlo's trace synthesis).
//
// Three sources of silent nondeterminism are flagged:
//
//  1. Wall clock: any call to time.Now. Timing probes that never flow
//     into a Result are legitimate, but each such site must say so with
//     an //anonlint:allow detrand(reason) annotation.
//
//  2. Ambient entropy: the global math/rand top-level functions (Intn,
//     Float64, Perm, Shuffle, ...), whose shared source is seeded from
//     runtime state and contended across goroutines. Every random draw
//     in the contract packages must come from an explicitly seeded
//     *rand.Rand or stats.Stream.
//
//  3. Map iteration order: a `for ... range m` over a map whose body
//     does something order-sensitive — appends to a slice, sends on a
//     channel, writes an outer variable, returns or breaks early, or
//     calls a function that may observe the order (any call not known to
//     be order-safe). Writes keyed by the loop key (out[k] = v,
//     delete(m, k)) and commutative integer accumulation (n++, n += ...)
//     are recognized as order-independent, as is the key-collection
//     idiom `for k := range m { keys = append(keys, k) }` provided keys
//     is passed to a sort in the same function.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"

	"anonmix/internal/analysis/anonlint"
)

// Analyzer is the detrand check.
var Analyzer = &anonlint.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock reads, global math/rand draws, and order-sensitive map iteration " +
		"in determinism-contract packages",
	Run: run,
}

// globalRandFuncs are the math/rand top-level functions that draw from
// the shared, runtime-seeded global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

func run(pass *anonlint.Pass) error {
	for _, file := range pass.Files {
		// funcs is the stack of enclosing function bodies, innermost
		// last; the key-collection idiom needs the enclosing body to
		// look for the later sort call.
		var funcs []*ast.BlockStmt
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					funcs = append(funcs, n.Body)
					ast.Inspect(n.Body, visit)
					funcs = funcs[:len(funcs)-1]
				}
				return false
			case *ast.FuncLit:
				funcs = append(funcs, n.Body)
				ast.Inspect(n.Body, visit)
				funcs = funcs[:len(funcs)-1]
				return false
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				var body *ast.BlockStmt
				if len(funcs) > 0 {
					body = funcs[len(funcs)-1]
				}
				checkMapRange(pass, n, body)
			}
			return true
		}
		ast.Inspect(file, visit)
	}
	return nil
}

// checkCall flags time.Now and global math/rand draws.
func checkCall(pass *anonlint.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now in determinism-contract package %s: wall clock must not flow into results (annotate timing probes with //anonlint:allow detrand(reason))",
				pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
			pass.Reportf(call.Pos(),
				"global math/rand.%s draws from the runtime-seeded shared source: use an explicitly seeded generator (stats.NewRand, stats.Stream)",
				fn.Name())
		}
	}
}

// calleeFunc resolves the called package-level function, or nil.
func calleeFunc(pass *anonlint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkMapRange analyzes one range statement; enclosing is the innermost
// surrounding function body (for the key-collection idiom), possibly nil.
func checkMapRange(pass *anonlint.Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	key := rangeVar(pass, rng.Key)
	value := rangeVar(pass, rng.Value)

	// The collect-and-sort idiom: the body only appends the key (or the
	// value) to a slice, and that slice is sorted later in the same
	// function, which re-establishes a deterministic order.
	if target, ok := collectTarget(pass, rng, key, value); ok {
		if enclosing != nil && sortedAfter(pass, enclosing, rng, target) {
			return
		}
		pass.Reportf(rng.Pos(),
			"map entries collected into %s but never sorted in this function: iteration order leaks into the slice",
			target.Name())
		return
	}

	c := &bodyChecker{pass: pass, rng: rng, key: key, value: value, written: writtenObjects(pass, rng.Body)}
	c.block(rng.Body)
	if c.badPos != token.NoPos {
		// Report at the loop, not the inner statement: the annotation
		// granularity is the whole range statement.
		pass.Reportf(rng.Pos(),
			"range over map %s is order-sensitive: %s at line %d (sort the keys first, or annotate with //anonlint:allow detrand(reason))",
			types.ExprString(rng.X), c.badWhat, pass.Fset.Position(c.badPos).Line)
	}
}

// rangeVar resolves a range clause variable to its object (nil for _ or
// absent variables).
func rangeVar(pass *anonlint.Pass, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[id].(*types.Var)
	if v == nil {
		v, _ = pass.TypesInfo.Uses[id].(*types.Var)
	}
	return v
}

// collectTarget matches a body of exactly `target = append(target, k)`
// (or appending the loop value) and returns the target slice variable.
func collectTarget(pass *anonlint.Pass, rng *ast.RangeStmt, key, value *types.Var) (*types.Var, bool) {
	if (key == nil && value == nil) || len(rng.Body.List) != 1 {
		return nil, false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return nil, false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	target, _ := pass.TypesInfo.Uses[lhs].(*types.Var)
	if target == nil {
		target, _ = pass.TypesInfo.Defs[lhs].(*types.Var)
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || target == nil || !isBuiltin(pass, call.Fun, "append") || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return nil, false
	}
	if obj := identObj(pass, call.Args[0]); obj != target {
		return nil, false
	}
	appended := identObj(pass, call.Args[1])
	if appended == nil || ((key == nil || appended != key) && (value == nil || appended != value)) {
		return nil, false
	}
	return target, true
}

// sortedAfter reports whether, somewhere after the range statement in the
// enclosing body, target is passed as the first argument to a sort.* or
// slices.Sort* call.
func sortedAfter(pass *anonlint.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, target *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if identObj(pass, call.Args[0]) == target {
			found = true
		}
		return true
	})
	return found
}

// identObj resolves a plain identifier expression to its object.
func identObj(pass *anonlint.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

func isBuiltin(pass *anonlint.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// writtenObjects collects every object assigned, incremented, or
// address-taken anywhere in the body — the variables whose value may
// differ between iterations.
func writtenObjects(pass *anonlint.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				add(lhs)
			}
		case *ast.IncDecStmt:
			add(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				add(n.X)
			}
		}
		return true
	})
	return out
}

// bodyChecker walks a map-range body and records the first
// order-sensitive statement.
type bodyChecker struct {
	pass    *anonlint.Pass
	rng     *ast.RangeStmt
	key     *types.Var
	value   *types.Var
	written map[types.Object]bool
	badPos  token.Pos
	badWhat string
}

func (c *bodyChecker) bad(pos token.Pos, what string) {
	if c.badPos == token.NoPos {
		c.badPos, c.badWhat = pos, what
	}
}

func (c *bodyChecker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		c.stmt(s)
	}
}

func (c *bodyChecker) stmt(s ast.Stmt) {
	if c.badPos != token.NoPos {
		return
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.IncDecStmt:
		// n++ / n-- on integers is commutative across iterations.
		if !c.isIntExpr(s.X) {
			c.bad(s.Pos(), "increment of non-integer "+types.ExprString(s.X))
		} else {
			c.exprs(s.X)
		}
	case *ast.ExprStmt:
		c.exprs(s.X)
	case *ast.SendStmt:
		c.bad(s.Pos(), "channel send")
	case *ast.ReturnStmt:
		c.bad(s.Pos(), "return inside map iteration (which element returns first depends on order)")
	case *ast.BranchStmt:
		// break/goto leave the loop early: the processed subset depends
		// on order. continue merely skips an element and is fine.
		if s.Tok == token.BREAK || s.Tok == token.GOTO {
			c.bad(s.Pos(), s.Tok.String()+" inside map iteration (the processed subset depends on order)")
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		c.exprs(s.Cond)
		c.block(s.Body)
		if s.Else != nil {
			c.stmt(s.Else)
		}
	case *ast.BlockStmt:
		c.block(s)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			c.exprs(s.Cond)
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.block(s.Body)
	case *ast.RangeStmt:
		c.exprs(s.X)
		c.block(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Tag != nil {
			c.exprs(s.Tag)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.exprs(cl.List...)
				for _, st := range cl.Body {
					c.stmt(st)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.exprs(vs.Values...)
				}
			}
		}
	case *ast.DeferStmt:
		c.bad(s.Pos(), "defer inside map iteration (deferred calls run in iteration order)")
	case *ast.GoStmt:
		c.bad(s.Pos(), "goroutine launch inside map iteration")
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	case *ast.EmptyStmt:
	default:
		c.bad(s.Pos(), "statement the analyzer cannot prove order-independent")
	}
}

// assign classifies an assignment inside the loop body.
func (c *bodyChecker) assign(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		c.exprs(rhs)
	}
	for _, lhs := range s.Lhs {
		c.assignTarget(s, lhs)
	}
}

func (c *bodyChecker) assignTarget(s *ast.AssignStmt, lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := c.pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[lhs]
		}
		if c.isLoopLocal(obj) {
			return
		}
		// Writes to outer variables: commutative integer accumulation
		// (n += x and friends) is order-independent; anything else —
		// plain assignment (last writer wins), float accumulation (IEEE
		// addition is not associative), append — depends on order.
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			if c.isIntExpr(lhs) {
				return
			}
			c.bad(s.Pos(), "accumulation into outer non-integer variable "+lhs.Name+" (IEEE float reduction is order-dependent)")
		default:
			c.bad(s.Pos(), "write to variable "+lhs.Name+" declared outside the loop")
		}
	case *ast.IndexExpr:
		// container[k] = v keyed by the loop key hits a distinct cell
		// each iteration, so plain and compound writes are both safe.
		if c.key != nil && identUse(c.pass, lhs.Index) == c.key {
			c.exprs(lhs.X)
			return
		}
		// container[f(k)] = <loop-invariant>: every iteration stores the
		// same value, so even colliding indices commute
		// (lp[live[id]] = math.Inf(-1) and friends).
		if s.Tok == token.ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 && c.invariant(s.Rhs[0]) {
			c.exprs(lhs.X, lhs.Index)
			return
		}
		c.bad(s.Pos(), "indexed write not keyed by the loop key")
	case *ast.SelectorExpr:
		// value.Field = x through the loop value (a pointer element)
		// mutates each element independently.
		if c.value != nil && identUse(c.pass, lhs.X) == c.value {
			return
		}
		c.bad(s.Pos(), "write to field "+types.ExprString(lhs)+" outside the loop element")
	case *ast.StarExpr:
		c.bad(s.Pos(), "write through pointer "+types.ExprString(lhs))
	default:
		c.bad(s.Pos(), "write to "+types.ExprString(lhs))
	}
}

// exprs scans expressions for order-observing operations: calls that are
// not provably order-safe, and channel receives.
func (c *bodyChecker) exprs(list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if c.badPos != token.NoPos {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if !c.safeCall(n) {
					c.bad(n.Pos(), "call to "+types.ExprString(n.Fun)+" (not provably order-independent)")
					return false
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					c.bad(n.Pos(), "channel receive")
					return false
				}
			case *ast.FuncLit:
				// A function literal defined (not called) in the body is
				// inert by itself.
				return false
			}
			return true
		})
	}
}

// invariant reports whether e provably evaluates to the same value on
// every iteration: it references neither loop variable nor any variable
// written in the body, and contains only order-safe calls.
func (c *bodyChecker) invariant(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[n]
			if obj == nil {
				return true
			}
			if (c.key != nil && obj == c.key) || (c.value != nil && obj == c.value) || c.written[obj] {
				ok = false
			}
		case *ast.CallExpr:
			if !c.safeCall(n) {
				ok = false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// safeCall reports whether a call inside the body cannot observe
// iteration order: builtins without side effects, delete keyed by the
// loop key, conversions, and pure math.
func (c *bodyChecker) safeCall(call *ast.CallExpr) bool {
	// Type conversions are pure.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "len", "cap", "min", "max", "make", "new", "real", "imag", "complex":
				return true
			case "append":
				// append flows through assignTarget; the call itself is
				// safe, the assignment decides.
				return true
			case "delete":
				return len(call.Args) == 2 && c.key != nil && identUse(c.pass, call.Args[1]) == c.key
			default:
				return false
			}
		}
	}
	fn := calleeFunc(c.pass, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		return true
	}
	return false
}

// isLoopLocal reports whether obj is declared inside the range statement
// (the loop variables or body-local declarations).
func (c *bodyChecker) isLoopLocal(obj types.Object) bool {
	if obj == nil {
		return false // unresolved: be conservative, treat as outer
	}
	return obj.Pos() >= c.rng.Pos() && obj.Pos() < c.rng.End()
}

// isIntExpr reports whether e has integer type.
func (c *bodyChecker) isIntExpr(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func identUse(pass *anonlint.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}
