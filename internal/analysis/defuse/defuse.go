// Package defuse is the kpavet suite's def-use / value-flow layer: per
// function body it computes every definition site of every local
// variable, flow-sensitive reaching definitions over the shared
// control-flow graphs, transitive alias roots (which outer objects a
// local's value may reach), conservative freshness (does a local only
// ever hold newly allocated memory), and closure-capture classification
// (which enclosing variables a function literal reads by reference,
// whether it writes them, and whether they are per-iteration loop
// bindings).
//
// The package sits between cfg and the analyzers exactly as the call
// graph does: it is built from syntax plus go/types results alone (no
// analysis.Pass dependency, so analysis can expose it on the Pass), and
// the driver builds one Info per function body on first request and
// shares it across every analyzer of the run. Analyzers consume it for
// value-flow questions the CFG alone cannot answer: "is this write
// target shard-owned?", "does this local alias the DenseSet a shard
// captured?", "which defs reach this use?".
//
// Like the CFG builder, the analysis is intra-body and conservative.
// Values returned by calls are opaque (AliasRoots reports them via the
// Opaque flag rather than guessing), literal bodies are analyzed with
// the pessimistic boundary "every definition of a captured variable may
// reach the literal", and compound assignments count as definitions
// that preserve the variable's previous provenance.
package defuse

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"

	"kpa/internal/analysis/cfg"
)

// DefKind says how a definition binds its variable.
type DefKind int

const (
	// DefAssign is x := e or x = e with a paired right-hand side.
	DefAssign DefKind = iota
	// DefTuple is a binding from a multi-value right-hand side (call,
	// comma-ok); Rhs is the shared source expression.
	DefTuple
	// DefParam is a parameter, receiver or named result of a function
	// literal declared inside the body. Rhs is nil.
	DefParam
	// DefRange is a range key/value binding; Rhs is the ranged operand.
	DefRange
	// DefZero is a var declaration without an initializer. Rhs is nil.
	DefZero
	// DefUpdate is x++, x--, or x op= e: a redefinition that derives from
	// the variable's own previous value.
	DefUpdate
)

// Def is one definition site of a local variable.
type Def struct {
	// Obj is the defined variable.
	Obj *types.Var
	// Kind classifies the binding.
	Kind DefKind
	// Site is the statement or clause that performs the definition.
	Site ast.Node
	// Rhs is the defining expression: the paired right-hand side for
	// DefAssign, the multi-value source for DefTuple, the ranged operand
	// for DefRange, the update operand (possibly nil for ++/--) for
	// DefUpdate, nil for DefParam and DefZero.
	Rhs ast.Expr
}

// Capture is one enclosing variable a function literal uses by
// reference. (Values passed to the literal as call arguments at its
// launch site are the by-value complement; they are ordinary parameters
// and appear as DefParam definitions, not captures.)
type Capture struct {
	// Obj is the captured variable, declared outside the literal.
	Obj *types.Var
	// Assigned reports that the literal writes the variable itself
	// (assignment, ++/--, or taking its address inside the literal).
	Assigned bool
	// LoopVar reports that the variable is a per-iteration binding (a
	// range key/value or for-init variable) of a loop enclosing the
	// literal, so each iteration's literal sees its own copy under Go
	// 1.22 semantics.
	LoopVar bool
	// First is the first identifier inside the literal that uses the
	// variable, for diagnostics.
	First *ast.Ident
}

// Info is the def-use summary of one function body.
type Info struct {
	body   *ast.BlockStmt
	info   *types.Info
	graphs func(*ast.BlockStmt) *cfg.Graph
	defs   map[*types.Var][]*Def
	reach  map[*ast.Ident][]*Def
	addr   map[*types.Var]bool
	caps   map[*ast.FuncLit][]Capture
	goLit  map[*ast.FuncLit]bool
	fresh  map[*types.Var]int8 // memo: 0 unknown, 1 fresh, -1 not
	rootsM map[*types.Var]*aliasResult

	// memoMu serializes Fresh and AliasRoots, which fill the fresh and
	// rootsM memos lazily: the driver hands one Info to every analyzer
	// of a pass, and analyzers run in parallel.
	memoMu sync.Mutex
}

// New computes the def-use summary of body. info must be the
// type-checking results of the package containing body; graphs supplies
// the shared control-flow graphs (the driver passes its cache, tests may
// pass cfg.New directly).
func New(body *ast.BlockStmt, info *types.Info, graphs func(*ast.BlockStmt) *cfg.Graph) *Info {
	in := &Info{
		body:   body,
		info:   info,
		graphs: graphs,
		defs:   make(map[*types.Var][]*Def),
		reach:  make(map[*ast.Ident][]*Def),
		addr:   make(map[*types.Var]bool),
		caps:   make(map[*ast.FuncLit][]Capture),
		goLit:  make(map[*ast.FuncLit]bool),
		fresh:  make(map[*types.Var]int8),
		rootsM: make(map[*types.Var]*aliasResult),
	}
	in.collect()
	in.solve()
	in.captures()
	return in
}

// DefsOf returns every definition site of obj within the body, in
// source order. Variables declared outside the body (enclosing function
// parameters, package variables) have no definitions here.
func (in *Info) DefsOf(obj *types.Var) []*Def { return in.defs[obj] }

// ReachingDefs returns the definitions of the identifier's variable
// that may reach this use, in source order. Uses inside nested function
// literals see every definition (the literal may run at any time).
func (in *Info) ReachingDefs(use *ast.Ident) []*Def { return in.reach[use] }

// AddressTaken reports whether &obj occurs anywhere in the body.
func (in *Info) AddressTaken(obj *types.Var) bool { return in.addr[obj] }

// IsLocal reports whether obj is declared within the body (including
// inside nested literals).
func (in *Info) IsLocal(obj *types.Var) bool { return len(in.defs[obj]) > 0 }

// Captures returns the enclosing variables lit uses by reference, in
// order of first use. lit must occur within the body.
func (in *Info) Captures(lit *ast.FuncLit) []Capture { return in.caps[lit] }

// LaunchedByGo reports whether lit is the immediate operand of a go
// statement in the body, the "captured-before-go" shape whose captures
// outlive the enclosing frame's discipline.
func (in *Info) LaunchedByGo(lit *ast.FuncLit) bool { return in.goLit[lit] }

// FreshExpr reports whether e syntactically allocates fresh memory:
// make, new, a composite literal or its address.
func FreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "make" || id.Name == "new"
		}
	}
	return false
}

// Fresh reports whether every definition of obj binds freshly allocated
// memory — directly (make, new, composite literal) or through another
// local that is itself fresh. A variable with no definitions here, a
// tuple or parameter binding, or a def through an opaque call is not
// fresh.
func (in *Info) Fresh(obj *types.Var) bool {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	return in.freshVar(obj, make(map[*types.Var]bool))
}

func (in *Info) freshVar(obj *types.Var, onPath map[*types.Var]bool) bool {
	switch in.fresh[obj] {
	case 1:
		return true
	case -1:
		return false
	}
	if onPath[obj] {
		return false
	}
	onPath[obj] = true
	defer delete(onPath, obj)
	defs := in.defs[obj]
	if len(defs) == 0 {
		in.fresh[obj] = -1
		return false
	}
	for _, d := range defs {
		ok := false
		switch d.Kind {
		case DefAssign:
			if FreshExpr(d.Rhs) {
				ok = true
			} else if id, isID := ast.Unparen(d.Rhs).(*ast.Ident); isID {
				if v, isVar := in.objOf(id).(*types.Var); isVar {
					ok = in.freshVar(v, onPath)
				}
			}
		}
		if !ok {
			in.fresh[obj] = -1
			return false
		}
	}
	in.fresh[obj] = 1
	return true
}

// aliasResult caches AliasRoots output per variable.
type aliasResult struct {
	roots  []*types.Var
	opaque bool
	done   bool
}

// AliasRoots returns the set of variables declared outside the body
// whose memory obj's value may reach, walking definitions transitively
// (v := outer.bits; w := v[lo:hi] makes outer a root of w). opaque is
// true when some definition flows through an expression the analysis
// cannot resolve — a call result, a channel receive — so the value may
// alias anything. Fresh allocations and scalar arithmetic contribute no
// roots.
func (in *Info) AliasRoots(obj *types.Var) (roots []*types.Var, opaque bool) {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	r := in.aliasVar(obj, make(map[*types.Var]bool))
	return r.roots, r.opaque
}

func (in *Info) aliasVar(obj *types.Var, onPath map[*types.Var]bool) *aliasResult {
	if r, ok := in.rootsM[obj]; ok && r.done {
		return r
	}
	if onPath[obj] {
		return &aliasResult{}
	}
	onPath[obj] = true
	defer delete(onPath, obj)
	r := &aliasResult{}
	defs := in.defs[obj]
	if len(defs) == 0 {
		// Declared outside the body: the variable is its own root.
		r.roots = []*types.Var{obj}
	} else {
		for _, d := range defs {
			switch d.Kind {
			case DefParam:
				// A literal's parameter receives values from its caller;
				// with no call-site information it is opaque.
				r.opaque = true
			case DefZero:
				// zero value: no aliases
			case DefTuple:
				r.opaque = true
			default:
				in.exprRoots(d.Rhs, r, onPath)
			}
		}
	}
	sort.Slice(r.roots, func(i, j int) bool { return r.roots[i].Pos() < r.roots[j].Pos() })
	r.done = true
	in.rootsM[obj] = r
	return r
}

// exprRoots accumulates the alias roots of expression e into r.
func (in *Info) exprRoots(e ast.Expr, r *aliasResult, onPath map[*types.Var]bool) {
	if e == nil || FreshExpr(e) {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := in.objOf(e).(*types.Var)
		if !ok {
			return // constant, function, type: no memory
		}
		sub := in.aliasVar(v, onPath)
		r.opaque = r.opaque || sub.opaque
		for _, root := range sub.roots {
			if !containsVar(r.roots, root) {
				r.roots = append(r.roots, root)
			}
		}
	case *ast.IndexExpr:
		in.exprRoots(e.X, r, onPath)
	case *ast.SliceExpr:
		in.exprRoots(e.X, r, onPath)
	case *ast.SelectorExpr:
		in.exprRoots(e.X, r, onPath)
	case *ast.StarExpr:
		in.exprRoots(e.X, r, onPath)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			in.exprRoots(e.X, r, onPath)
		}
		// arithmetic/receive: scalars or opaque below
		if e.Op == token.ARROW {
			r.opaque = true
		}
	case *ast.BinaryExpr, *ast.BasicLit, *ast.FuncLit, *ast.CompositeLit:
		// scalar arithmetic, literals: no outer roots
	case *ast.TypeAssertExpr:
		in.exprRoots(e.X, r, onPath)
	case *ast.CallExpr:
		r.opaque = true
	default:
		r.opaque = true
	}
}

func containsVar(s []*types.Var, v *types.Var) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (in *Info) objOf(id *ast.Ident) types.Object {
	if o := in.info.Uses[id]; o != nil {
		return o
	}
	return in.info.Defs[id]
}

// --- definition collection ---

// collect walks the whole body (including nested literals) recording
// every definition site and every address-taken variable.
func (in *Info) collect() {
	ast.Inspect(in.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			in.assign(n)
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				in.addDef(id, &Def{Kind: DefUpdate, Site: n})
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					switch {
					case len(vs.Values) == 0:
						in.addDef(name, &Def{Kind: DefZero, Site: vs})
					case len(vs.Values) == len(vs.Names):
						in.addDef(name, &Def{Kind: DefAssign, Site: vs, Rhs: vs.Values[i]})
					default:
						in.addDef(name, &Def{Kind: DefTuple, Site: vs, Rhs: vs.Values[0]})
					}
				}
			}
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{n.Key, n.Value} {
				if id, ok := x.(*ast.Ident); ok && n.Tok == token.DEFINE {
					in.addDef(id, &Def{Kind: DefRange, Site: n, Rhs: n.X})
				}
			}
		case *ast.FuncLit:
			in.litParams(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := in.objOf(id).(*types.Var); ok {
						in.addr[v] = true
					}
				}
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				in.goLit[lit] = true
			}
		}
		return true
	})
}

func (in *Info) assign(n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// op= : an update deriving from the variable's own value.
		if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
			in.addDef(id, &Def{Kind: DefUpdate, Site: n, Rhs: n.Rhs[0]})
		}
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if len(n.Rhs) == len(n.Lhs) {
			in.addDef(id, &Def{Kind: DefAssign, Site: n, Rhs: n.Rhs[i]})
		} else {
			in.addDef(id, &Def{Kind: DefTuple, Site: n, Rhs: n.Rhs[0]})
		}
	}
}

func (in *Info) litParams(lit *ast.FuncLit) {
	fields := []*ast.FieldList{lit.Type.Params, lit.Type.Results}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				in.addDef(name, &Def{Kind: DefParam, Site: lit})
			}
		}
	}
}

func (in *Info) addDef(id *ast.Ident, d *Def) {
	v, ok := in.info.Defs[id].(*types.Var)
	if !ok {
		if v, ok = in.objOf(id).(*types.Var); !ok {
			return
		}
	}
	d.Obj = v
	in.defs[v] = append(in.defs[v], d)
}

// --- reaching definitions ---

// defSet is a sorted set of indices into a flat def table, the dataflow
// state per variable.
type defSet []int

func (s defSet) union(t defSet) defSet {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t
	}
	out := make(defSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	return append(out, t[j:]...)
}

func (s defSet) equal(t defSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

type reachState map[*types.Var]defSet

// solve runs reaching definitions over the outer body and every nested
// literal body, each on its own control-flow graph, and records the
// reaching set at every use identifier.
func (in *Info) solve() {
	// Flat def table, indexed per variable in source order.
	table := make(map[*types.Var][]*Def, len(in.defs))
	for v, defs := range in.defs {
		sorted := append([]*Def(nil), defs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Site.Pos() < sorted[j].Site.Pos() })
		table[v] = sorted
	}
	in.defs = table

	all := make(reachState, len(table))
	for v, defs := range table {
		s := make(defSet, len(defs))
		for i := range defs {
			s[i] = i
		}
		all[v] = s
	}

	// The outer body starts with nothing defined (enclosing parameters
	// have no defs here and are reported as reaching-nothing); literal
	// bodies start with every def of every variable, the conservative
	// boundary for code that runs at an unknown time.
	in.solveBody(in.body, make(reachState))
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				boundary := make(reachState, len(all))
				for v, s := range all {
					boundary[v] = s
				}
				in.solveBody(lit.Body, boundary)
				walk(lit.Body)
				return false
			}
			return true
		})
	}
	walk(in.body)
}

func (in *Info) solveBody(body *ast.BlockStmt, boundary reachState) {
	g := in.graph(body)
	merge := func(a, b reachState) reachState {
		out := make(reachState, len(a)+len(b))
		for v, s := range a {
			out[v] = s
		}
		for v, s := range b {
			out[v] = out[v].union(s)
		}
		return out
	}
	equal := func(a, b reachState) bool {
		if len(a) != len(b) {
			return false
		}
		for v, s := range a {
			if !s.equal(b[v]) {
				return false
			}
		}
		return true
	}
	transfer := func(blk *cfg.Block, s reachState) reachState {
		cur := make(reachState, len(s))
		for v, ds := range s {
			cur[v] = ds
		}
		for _, n := range blk.Nodes {
			in.transferNode(n, cur, nil)
		}
		return cur
	}
	inStates := cfg.Forward(g, boundary, merge, equal, transfer)
	for blk, s := range inStates {
		cur := make(reachState, len(s))
		for v, ds := range s {
			cur[v] = ds
		}
		for _, n := range blk.Nodes {
			in.transferNode(n, cur, in.recordUse)
		}
	}
}

func (in *Info) recordUse(id *ast.Ident, v *types.Var, cur reachState) {
	defs := in.defs[v]
	if len(defs) == 0 {
		return
	}
	// Range and parameter bindings never appear as CFG nodes (the graph
	// keeps compound statements out of Nodes), so they are treated as
	// always reaching within the body.
	set := cur[v]
	for i, d := range defs {
		if d.Kind == DefRange || d.Kind == DefParam {
			set = set.union(defSet{i})
		}
	}
	out := make([]*Def, 0, len(set))
	for _, i := range set {
		out = append(out, defs[i])
	}
	in.reach[id] = out
}

// transferNode applies one CFG node to the state: uses first (reported
// through record when non-nil), then kills and gens for the node's
// definitions. Nested literals are opaque at this program point.
func (in *Info) transferNode(n ast.Node, cur reachState, record func(*ast.Ident, *types.Var, reachState)) {
	var defsHere []*ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			// lhs plain idents are definitions, not uses; everything
			// else in the statement is a use position.
			if m.Tok == token.ASSIGN || m.Tok == token.DEFINE {
				for _, lhs := range m.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						defsHere = append(defsHere, id)
					}
				}
			} else if id, ok := ast.Unparen(m.Lhs[0]).(*ast.Ident); ok {
				defsHere = append(defsHere, id)
			}
			for _, rhs := range m.Rhs {
				in.transferNode(rhs, cur, record)
			}
			for _, lhs := range m.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					in.transferNode(lhs, cur, record)
				}
			}
			in.applyDefs(defsHere, cur)
			defsHere = nil
			return false
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(m.X).(*ast.Ident); ok {
				if record != nil {
					if v, isVar := in.objOf(id).(*types.Var); isVar {
						record(id, v, cur)
					}
				}
				in.applyDefs([]*ast.Ident{id}, cur)
				return false
			}
		case *ast.Ident:
			if v, ok := in.info.Uses[m].(*types.Var); ok {
				if record != nil {
					record(m, v, cur)
				}
			}
		}
		return true
	})
	// Declarations and range clauses gen their bindings after their
	// initializer/operand uses (handled above as ordinary idents).
	if ds, ok := n.(*ast.DeclStmt); ok {
		if gd, ok := ds.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					in.applyDefs(vs.Names, cur)
				}
			}
		}
	}
}

func (in *Info) applyDefs(ids []*ast.Ident, cur reachState) {
	for _, id := range ids {
		v, ok := in.objOf(id).(*types.Var)
		if !ok {
			continue
		}
		defs := in.defs[v]
		for i, d := range defs {
			if withinNode(d.Site, id.Pos()) {
				cur[v] = defSet{i}
				break
			}
		}
	}
}

func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos <= n.End()
}

func (in *Info) graph(body *ast.BlockStmt) *cfg.Graph {
	if in.graphs != nil {
		return in.graphs(body)
	}
	return cfg.New(body)
}

// --- captures ---

// captures records, per literal, the outer variables it uses.
func (in *Info) captures() {
	var loops []ast.Node // enclosing loop stack while walking
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				// Manual recursion so the loop pops off the stack when
				// its subtree is done.
				loops = append(loops, m)
				switch s := m.(type) {
				case *ast.ForStmt:
					if s.Init != nil {
						walk(s.Init)
					}
					if s.Cond != nil {
						walk(s.Cond)
					}
					if s.Post != nil {
						walk(s.Post)
					}
					walk(s.Body)
				case *ast.RangeStmt:
					walk(s.X)
					walk(s.Body)
				}
				loops = loops[:len(loops)-1]
				return false
			case *ast.FuncLit:
				in.captureLit(m, append([]ast.Node(nil), loops...))
				walk(m.Body)
				return false
			}
			return true
		})
	}
	walk(in.body)
}

func (in *Info) captureLit(lit *ast.FuncLit, loops []ast.Node) {
	seen := make(map[*types.Var]int)
	var caps []Capture
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := in.objOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Pkg() == nil {
			return true
		}
		// Package-level variables are shared but not captures.
		if v.Parent() == v.Pkg().Scope() {
			return true
		}
		if withinNode(lit, v.Pos()) {
			return true // declared inside the literal
		}
		idx, found := seen[v]
		if !found {
			idx = len(caps)
			seen[v] = idx
			caps = append(caps, Capture{Obj: v, First: id, LoopVar: in.isLoopVar(v, loops)})
		}
		if in.assignedAt(id, lit) {
			caps[idx].Assigned = true
		}
		return true
	})
	in.caps[lit] = caps
}

// isLoopVar reports whether v is a per-iteration binding of one of the
// loops enclosing the literal.
func (in *Info) isLoopVar(v *types.Var, loops []ast.Node) bool {
	for _, l := range loops {
		switch l := l.(type) {
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{l.Key, l.Value} {
				if id, ok := x.(*ast.Ident); ok && in.info.Defs[id] == v {
					return true
				}
			}
		case *ast.ForStmt:
			if l.Init == nil {
				continue
			}
			if as, ok := l.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && in.info.Defs[id] == v {
						return true
					}
				}
			}
		}
	}
	return false
}

// assignedAt reports whether the identifier use is a write: the target
// of an assignment or ++/--, or has its address taken, inside lit.
func (in *Info) assignedAt(id *ast.Ident, lit *ast.FuncLit) bool {
	var write bool
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if write {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ast.Unparen(lhs) == ast.Expr(id) {
					write = true
				}
			}
		case *ast.IncDecStmt:
			if ast.Unparen(n.X) == ast.Expr(id) {
				write = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && ast.Unparen(n.X) == ast.Expr(id) {
				write = true
			}
		}
		return true
	})
	return write
}
