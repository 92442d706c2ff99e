package main

// hotallocAnalyzer polices per-row allocation in the kernel packages —
// internal/stats, internal/sched, and the engines' cursor Next paths —
// where the paper's workloads execute once per meter-reading and an
// allocation per iteration dominates the profile. Inside loops it
// flags:
//
//   - fmt.Sprintf / fmt.Errorf: formatting allocates the result and
//     boxes every operand; hot paths should format once outside the
//     loop or use fixed errors.
//   - append to a slice declared outside the loop without capacity:
//     the backing array reallocates O(log n) times; pre-size with
//     make(T, 0, n).
//   - assignments that box a concrete value into an interface: each
//     store allocates; keep hot-loop state concrete.
//   - function literals: each iteration allocates a closure; hoist it
//     out of the loop. go/defer statements are exempt — spawning is
//     the point there, and the loop body usually needs the capture.
//
// Return statements are exempt: `return nil, fmt.Errorf(...)` runs
// once on the way out, not once per iteration.
//
// An engine cursor's Next method is implicitly hot: the consumer drives
// it in a loop, so its whole body is treated as loop context. There the
// analyzer additionally flags appends to receiver fields
// (c.buf = append(c.buf, …)) — state that grows across Next calls
// should be pre-sized when the cursor is built.
//
// Beyond those structural rules, hotFuncs names individual functions in
// otherwise-unpoliced packages that profiling showed on the per-consumer
// path: the parallel encode pool's per-consumer encoder in colstore and
// the PAR fast path's series reconstruction in exec. Listed functions
// get the kernel treatment; listed Next methods get the cursor
// treatment.
//
// Scope is deliberate: only the kernel packages and the named hot
// functions are held to this standard. Orchestration and reporting code
// may allocate freely.

import (
	"go/ast"
	"go/types"
	"strings"
)

var hotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags per-iteration allocations (Sprintf, un-capped append, interface boxing, closures) in loops of kernel packages",
	Run:  runHotalloc,
}

func runHotalloc(p *Pass) {
	wholePkg := hotPackage(p.Pkg.Path())
	enginePkg := strings.Contains(p.Pkg.Path()+"/", "/internal/engine/")
	named := hotFuncNames(p.Pkg.Path())
	if !wholePkg && !enginePkg && len(named) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isTestFile(p.Fset, fd.Pos()) {
				continue
			}
			if wholePkg {
				checkHotFunc(p, fd, nil)
				continue
			}
			// In engine packages the cursor hot path is always a
			// kernel: the Next method, whose whole body is implicitly a
			// loop body (the consumer drives it once per row).
			if enginePkg && fd.Recv != nil && fd.Name.Name == "Next" {
				checkHotFunc(p, fd, fd.Body)
				continue
			}
			if named[funcKey(fd)] {
				if fd.Name.Name == "Next" {
					checkHotFunc(p, fd, fd.Body)
				} else {
					checkHotFunc(p, fd, nil)
				}
			}
		}
	}
}

// hotFuncs names individual hot functions in packages the structural
// rules above do not already police wholesale. Each entry maps a
// package-path substring to function names within it; methods are
// written "Type.Method". These run once per consumer with per-reading
// inner loops, so they are held to the same standard as the stats
// kernels.
var hotFuncs = map[string][]string{
	"/internal/engine/colstore/": {"encodeConsumer"},
	"/internal/exec/":            {"summaryAssemblyCursor.Next", "summaryAssemblyCursor.assemble"},
}

// hotFuncNames resolves the hotFuncs entries that apply to pkg path.
func hotFuncNames(path string) map[string]bool {
	out := map[string]bool{}
	path += "/"
	for sub, names := range hotFuncs {
		if !strings.Contains(path, sub) {
			continue
		}
		for _, n := range names {
			out[n] = true
		}
	}
	return out
}

// funcKey renders a declaration the way hotFuncs spells it: the bare
// name for functions, "Type.Method" for methods.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := ast.Unparen(fd.Recv.List[0].Type)
	if star, ok := t.(*ast.StarExpr); ok {
		t = ast.Unparen(star.X)
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// hotPackage reports whether every function in the package is on the
// hot path. internal/colcodec is implicitly hot: every reading decodes
// through it, so a per-iteration allocation there costs once per meter
// reading, same as the stats kernels. internal/incr is hot for the
// same reason from the other direction: its maintainers run on every
// ingested reading, so a per-reading allocation there taxes the whole
// live path. internal/threeline is hot because its T1 percentile pass
// and T2 breakpoint search run once per consumer over every reading
// and every bin; they use pooled scratch and must stay
// allocation-free.
func hotPackage(path string) bool {
	path += "/"
	return strings.Contains(path, "/internal/stats/") ||
		strings.Contains(path, "/internal/sched/") ||
		strings.Contains(path, "/internal/colcodec/") ||
		strings.Contains(path, "/internal/incr/") ||
		strings.Contains(path, "/internal/threeline/")
}

// checkHotFunc walks one kernel function, flagging allocation patterns
// inside its loops. When implicitLoop is non-nil (an engine Next body)
// the whole body counts as loop context and receiver-field appends are
// also policed.
func checkHotFunc(p *Pass, fd *ast.FuncDecl, implicitLoop ast.Node) {
	uncapped := collectUncappedSlices(p, fd.Body)
	fieldHot := implicitLoop != nil
	var walk func(n ast.Node, loop ast.Node)
	walk = func(n ast.Node, loop ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m := m.(type) {
			case *ast.ForStmt:
				walk(m.Body, m)
				return false
			case *ast.RangeStmt:
				walk(m.Body, m)
				return false
			case *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.ReturnStmt:
				// A return runs once on the way out of the loop;
				// fmt.Errorf there is the normal exit path, not a
				// per-iteration allocation.
				walk(m, nil)
				return false
			case *ast.FuncLit:
				if loop != nil {
					p.Reportf(m.Pos(), "closure allocated on every iteration of this loop; hoist the function literal out of the loop")
				}
				walk(m.Body, nil) // the literal's own loops start fresh
				return false
			case *ast.CallExpr:
				if loop != nil {
					checkHotCall(p, m, uncapped, loop, fieldHot)
				}
			case *ast.AssignStmt:
				if loop != nil {
					checkBoxingAssign(p, m)
				}
			}
			return true
		})
	}
	walk(fd.Body, implicitLoop)
}

// checkHotCall flags formatting calls and un-capped appends inside a
// loop.
func checkHotCall(p *Pass, call *ast.CallExpr, uncapped map[types.Object]bool, loop ast.Node, fieldHot bool) {
	if fn := staticCallee(p.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		if fn.Name() == "Sprintf" || fn.Name() == "Errorf" {
			p.Reportf(call.Pos(), "fmt.%s allocates on every iteration of this loop; format outside the loop or use a fixed value", fn.Name())
			return
		}
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch target := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[target]
		if obj == nil || !uncapped[obj] {
			return
		}
		// Only appends that grow across iterations matter: the slice
		// must be declared before the loop.
		if obj.Pos() >= loop.Pos() {
			return
		}
		p.Reportf(call.Pos(), "append to %s grows an un-capped slice inside this loop; pre-size it with make(..., 0, n) before the loop", target.Name)
	case *ast.SelectorExpr:
		if !fieldHot {
			return
		}
		p.Reportf(call.Pos(), "append to field %s grows per Next call; pre-size the slice (the cursor knows its size when built) and index into it", target.Sel.Name)
	}
}

// checkBoxingAssign flags stores of concrete values into
// interface-typed destinations inside a loop — each one allocates.
func checkBoxingAssign(p *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := p.Info.TypeOf(lhs)
		rt := p.Info.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if _, isIface := lt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if _, rhsIface := rt.Underlying().(*types.Interface); rhsIface {
			continue // interface-to-interface: no new box
		}
		if isUntypedNil(rt) {
			continue
		}
		p.Reportf(as.Rhs[i].Pos(), "storing a concrete %s into an interface boxes it on every iteration of this loop; keep the hot-loop value concrete", types.TypeString(rt, types.RelativeTo(p.Pkg)))
	}
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// collectUncappedSlices finds slice variables the function declares
// with no capacity hint: `var xs []T`, `xs := []T{}`, or
// `xs := make([]T, 0)`.
func collectUncappedSlices(p *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(name *ast.Ident) {
		if obj := p.Info.Defs[name]; obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gen, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if uncappedValue(p, n.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// uncappedValue reports whether the expression builds a slice with no
// capacity: an empty literal or make with zero length and no cap.
func uncappedValue(p *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		lit, ok := ast.Unparen(e.Args[1]).(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}
