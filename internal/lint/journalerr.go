package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// JournalErr flags dropped errors from the campaign persistence layer:
// journal appends (journal.Writer.Append, CellStore.AppendJournal) and
// cell-store mutations (StoreCell). The journal is the
// exactly-once evidence of a campaign — a swallowed append error means
// a record the forensics replay, the -watch rates and the double-done
// audit will silently never see, and a swallowed StoreCell means a
// simulated cell that a resume will silently re-simulate. Unlike a
// general errcheck, explicit discards (`_ = w.Append(...)`) are
// findings too: deliberately lossy journaling must carry an
// //ompssvet:allow journalerr <reason> so the policy is auditable.
var JournalErr = &analysis.Analyzer{
	Name: "journalerr",
	Doc: "flags dropped errors on journal appends and cell-store mutations " +
		"(a swallowed append is a silent exactly-once violation)",
	Run: runJournalErr,
}

// journalMethods are the mutation methods whose error return is the
// exactly-once contract. The receiver must come from a journal/store
// package (see journalRecv) so unrelated Append/Write methods stay
// out of scope.
var journalMethods = map[string]bool{
	"Append":        true, // journal.Writer
	"AppendJournal": true, // exp.CellStore and implementations
	"StoreCell":     true,
}

// journalRecvPkgs are the import-path tails a flagged receiver type
// may come from: the repo's journal/store layer (and the fixture
// mirrors of it).
var journalRecvPkgs = map[string]bool{
	"journal": true,
	"exp":     true,
	"sweepd":  true,
}

// journalRecv reports whether t (an interface or concrete receiver
// type) belongs to the persistence layer.
func journalRecv(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		// Interface-typed receivers (CellStore method sets) resolve to
		// *types.Func whose receiver is the interface's named type, so
		// recvNamed covers them; anything else is out of scope.
		return false
	}
	return journalRecvPkgs[pkgBase(named.Obj().Pkg())]
}

func runJournalErr(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					reportIfJournalCall(pass, call, "discarded")
				}
			case *ast.GoStmt:
				reportIfJournalCall(pass, stmt.Call, "discarded by go statement")
			case *ast.DeferStmt:
				reportIfJournalCall(pass, stmt.Call, "discarded by defer")
			case *ast.AssignStmt:
				// Single-call assignments where the error result lands in
				// the blank identifier: `_ = w.Append(r)` or `v, _ := ...`.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				errIdx, fn := journalCallErrIndex(pass.TypesInfo, call)
				if fn == nil || errIdx >= len(stmt.Lhs) {
					return true
				}
				if id, ok := stmt.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
					reportJournal(pass, call, fn, "assigned to _")
				}
			}
			return true
		})
	}
	return nil, nil
}

// journalCallErrIndex resolves call to a persistence-layer mutation
// and returns the index of its error result (last position), or
// (-1, nil) when out of scope.
func journalCallErrIndex(info *types.Info, call *ast.CallExpr) (int, *types.Func) {
	fn := calleeFunc(info, call)
	if fn == nil || !journalMethods[fn.Name()] || !journalRecv(fn) {
		return -1, nil
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 {
		return -1, nil
	}
	last := res.At(res.Len() - 1).Type()
	if !types.Implements(last, types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
		return -1, nil
	}
	return res.Len() - 1, fn
}

func reportIfJournalCall(pass *analysis.Pass, call *ast.CallExpr, how string) {
	if _, fn := journalCallErrIndex(pass.TypesInfo, call); fn != nil {
		reportJournal(pass, call, fn, how)
	}
}

func reportJournal(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func, how string) {
	recv := ""
	if named := recvNamed(fn); named != nil {
		recv = named.Obj().Name() + "."
	}
	pass.Reportf(call.Pos(),
		"error from %s%s %s: a dropped journal/store write is a silent exactly-once violation — propagate it, or //ompssvet:allow journalerr <reason>",
		recv, fn.Name(), how)
}
