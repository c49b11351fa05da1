package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// stmPkgPath is the engine package every contract here is about.
const stmPkgPath = "repro/internal/stm"

// enginePackages are exempt from the transactional-purity contract:
// internal/stm IS the machinery the contract protects (its commit
// path, session pool and tests manipulate descriptors and scheduling
// on purpose), and internal/core implements contention managers —
// policy code that runs *during* conflicts and legitimately sleeps,
// reads clocks and randomizes backoff. Test packages compiled
// alongside them ("repro/internal/stm.test", external _test variants)
// share the exemption.
func isEnginePackage(path string) bool {
	for _, p := range [...]string{stmPkgPath, "repro/internal/core"} {
		if path == p || strings.HasPrefix(path, p+".") || strings.HasPrefix(path, p+"_test") || strings.HasPrefix(path, p+" ") {
			return true
		}
	}
	return false
}

// isTxType reports whether t is *stm.Tx — the descriptor handle that
// sessions recycle and that must therefore never escape the code that
// was handed it.
func isTxType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == stmPkgPath && obj.Name() == "Tx"
}

// sigHasTxParam reports whether any parameter of sig is *stm.Tx.
func sigHasTxParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isTxType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// callee resolves the called function or method, seeing through
// generic instantiation (stm.Atomic[int] and friends).
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(pass.TypesInfo, call)
}

// isStmCall reports whether call is a call of one of the named
// package-level functions or methods of the engine package.
func isStmCall(pass *analysis.Pass, call *ast.CallExpr, names ...string) bool {
	fn := callee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != stmPkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// funcLitsPassedTo returns the index of the first FuncLit argument of
// call, or -1.
func funcLitArg(call *ast.CallExpr) (int, *ast.FuncLit) {
	for i, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			return i, lit
		}
	}
	return -1, nil
}
