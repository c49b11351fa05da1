package analysis

import (
	"flag"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Txescape flags *stm.Tx values that escape the code they were handed
// to.
//
// Sessions recycle Tx descriptors: the moment Atomically returns, the
// descriptor a body was using may be re-armed for an unrelated
// transaction on another goroutine (DESIGN.md §2 is the safety argument
// for why the engine itself tolerates this — the argument covers only
// references that stay inert). A Tx stored in a struct field, global,
// map, slice or channel, or captured by a spawned goroutine, is a live
// reference to memory that will be reused: reads through it alias a
// stranger's transaction — the classic ABA hazard — and a Halt through
// it (valid only while the attempt's function is running) crashes the
// stranger.
//
// Keep descriptors on the stack of the function that received them.
// Deliberate escapes carry //stm:escape(reason).
var Txescape = &analysis.Analyzer{
	Name: "txescape",
	Doc: "check that *stm.Tx descriptors do not escape into structs, " +
		"globals, containers, channels or spawned goroutines (sessions recycle them)",
	Run: runTxescape,
}

// TxescapeUnusedSuppressions mirrors -txescape.unused-suppressions.
var TxescapeUnusedSuppressions bool

func init() {
	Txescape.Flags.Init("txescape", flag.ExitOnError)
	Txescape.Flags.BoolVar(&TxescapeUnusedSuppressions, "unused-suppressions", false, "report //stm:escape comments that suppress nothing")
}

func runTxescape(pass *analysis.Pass) (any, error) {
	// The engine and the contention managers legitimately hold
	// descriptors (sessions own them; managers park enemy Tx values in
	// waiter queues) — the contract binds their *consumers*.
	if isEnginePackage(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := newSuppressor(pass, "escape")
	e := &escape{pass: pass, sup: sup}
	for _, f := range pass.Files {
		if isGenerated(f) {
			continue
		}
		ast.Inspect(f, e.check)
	}
	sup.finish(pass, TxescapeUnusedSuppressions)
	return nil, nil
}

type escape struct {
	pass *analysis.Pass
	sup  *suppressor
}

func (e *escape) descriptor(expr ast.Expr) bool {
	t := e.pass.TypesInfo.TypeOf(expr)
	return t != nil && isTxType(t)
}

func (e *escape) reportEscape(expr ast.Expr, how string) {
	e.sup.report(e.pass, expr.Pos(),
		"*stm.Tx %s: sessions recycle descriptors, so a stored reference aliases a future, unrelated transaction (DESIGN.md §2)",
		how)
}

func (e *escape) check(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if len(n.Rhs) != len(n.Lhs) {
				break // tuple assignment can't produce a descriptor from a call we care about positionally
			}
			rhs := n.Rhs[i]
			if !e.descriptor(rhs) {
				continue
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				e.reportEscape(rhs, "stored in a struct field")
			case *ast.IndexExpr:
				e.reportEscape(rhs, "stored in a map or slice element")
			case *ast.StarExpr:
				e.reportEscape(rhs, "stored through a pointer")
			case *ast.Ident:
				if obj := e.pass.TypesInfo.ObjectOf(l); obj != nil && obj.Parent() == obj.Pkg().Scope() {
					e.reportEscape(rhs, "stored in a package-level variable")
				}
			}
		}
	case *ast.ValueSpec:
		// var x = tx at package level.
		for _, v := range n.Values {
			if e.descriptor(v) {
				if obj := e.pass.TypesInfo.ObjectOf(n.Names[0]); obj != nil && obj.Parent() == obj.Pkg().Scope() {
					e.reportEscape(v, "stored in a package-level variable")
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if e.descriptor(v) {
				e.reportEscape(v, "stored in a composite literal")
			}
		}
	case *ast.SendStmt:
		if e.descriptor(n.Value) {
			e.reportEscape(n.Value, "sent on a channel")
		}
	case *ast.CallExpr:
		// append(s, tx): stored in a slice.
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := e.pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
				for _, arg := range n.Args[1:] {
					if e.descriptor(arg) {
						e.reportEscape(arg, "appended to a slice")
					}
				}
			}
		}
	case *ast.GoStmt:
		e.checkGo(n)
		return false
	}
	return true
}

// checkGo flags descriptors handed to a spawned goroutine, either as
// call arguments or as captures of a go'd function literal. The
// goroutine outlives the attempt: by the time it runs, the descriptor
// may already belong to someone else.
func (e *escape) checkGo(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if e.descriptor(arg) {
			e.reportEscape(arg, "passed to a spawned goroutine")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	info := e.pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar || !isTxType(obj.Type()) {
			return true
		}
		// Declared outside the literal = captured by the goroutine.
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			e.sup.report(e.pass, id.Pos(),
				"*stm.Tx captured by a goroutine spawned at %s: the descriptor may be recycled before the goroutine runs (DESIGN.md §2)",
				e.pass.Fset.Position(g.Pos()))
		}
		return true
	})
}
