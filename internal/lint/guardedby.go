package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The guardedby analyzer machine-checks the lock map that used to live in
// prose. Three annotations form the grammar:
//
//	//tvdp:guardedby <mu>[|<mu>...]
//	    on a struct field: every read of the field must hold one of the
//	    named mutexes (RLock suffices), every write must hold one
//	    exclusively. Alternation encodes fields legally covered by more
//	    than one regime (either named mutex suffices).
//
//	//tvdp:requires <clause>[,<clause>...]   clause = <mu>[|<mu>...][:r]
//	    on a function: callers must hold every clause at the call site.
//	    A clause is satisfied by holding any one of its alternatives;
//	    the :r suffix downgrades it to "at least read-held". The
//	    declared locks seed the function's own held-set, so its guarded
//	    accesses are checked under the contract it advertises.
//
//	//tvdp:serial <reason>
//	    on a function: it runs before the store is shared (Open,
//	    recovery, migration), so lock requirements are vacuous inside it
//	    and its calls to //tvdp:requires functions are exempt. The
//	    reason is mandatory, exactly as for nolint.
//
// The checker is intra-procedural with the same one-level same-package
// splice lockorder uses, plus enough flow sensitivity for the store's
// idioms: an early-return branch that releases and bails does not poison
// the fall-through path, `unlock := func() {...}` closures execute at
// their call sites, `go func` bodies start with an empty held-set, and a
// deferred Unlock keeps its mutex held to the end of the function.
// Held-sets track mutex *names* (s.featMu and a local featMu alias are
// the same lock for checking purposes) — a deliberate approximation that
// matches how the store names its locks.

const (
	guardedPrefix  = "tvdp:guardedby"
	requiresPrefix = "tvdp:requires"
	serialPrefix   = "tvdp:serial"
)

// GuardedBy is the analyzer. It is annotation-driven: packages without
// annotations produce no findings, so it needs no path scope.
type GuardedBy struct{}

// NewGuardedBy returns the production-configured analyzer.
func NewGuardedBy() *GuardedBy { return &GuardedBy{} }

func (g *GuardedBy) Name() string { return "guardedby" }

// Doc describes the analyzer in one line.
func (g *GuardedBy) Doc() string {
	return "fields annotated //tvdp:guardedby must be accessed under their mutex; //tvdp:requires contracts are checked at every call site"
}

// reqClause is one comma-separated element of a requires list (or the
// single clause of a guardedby annotation): alternative mutex names, any
// one of which satisfies the clause, and whether read-held suffices.
type reqClause struct {
	alts []string
	read bool
}

func (rc reqClause) String() string {
	s := strings.Join(rc.alts, "|")
	if rc.read {
		s += ":r"
	}
	return s
}

// gbAnnotations is one package's parsed annotation set.
type gbAnnotations struct {
	fieldGuards map[*types.Var]reqClause
	fieldNames  map[*types.Var]string
	funcReqs    map[*types.Func][]reqClause
	serial      map[*types.Func]bool
	bad         []Finding
}

// annotationLine extracts the body of an annotation comment with the
// given prefix, if the comment is one. A "//" inside the body starts a
// trailing remark and is cut off.
func annotationLine(comment, prefix string) (string, bool) {
	body := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(body, prefix)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	rest, _, _ = strings.Cut(rest, "//")
	return strings.TrimSpace(rest), true
}

// parseClause parses "<mu>[|<mu>...][:r]". Every alternative must be a
// plain identifier.
func parseClause(spec string) (reqClause, bool) {
	var rc reqClause
	if rest, ok := strings.CutSuffix(spec, ":r"); ok {
		rc.read = true
		spec = rest
	}
	for _, m := range strings.Split(spec, "|") {
		if m = strings.TrimSpace(m); m != "" && isIdent(m) {
			rc.alts = append(rc.alts, m)
		} else {
			return reqClause{}, false
		}
	}
	return rc, len(rc.alts) > 0
}

func isIdent(s string) bool {
	for i, r := range s {
		alpha := r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}

// collectAnnotations scans a package for guardedby/requires/serial
// annotations. Malformed ones are reported and ignored.
func collectAnnotations(pkg *Package) *gbAnnotations {
	ann := &gbAnnotations{
		fieldGuards: map[*types.Var]reqClause{},
		fieldNames:  map[*types.Var]string{},
		funcReqs:    map[*types.Func][]reqClause{},
		serial:      map[*types.Func]bool{},
	}
	malformed := func(pos token.Pos, msg, hint string) {
		ann.bad = append(ann.bad, Finding{
			Analyzer: "guardedby",
			Pos:      posOf(pkg, pos),
			Message:  msg,
			Hint:     hint,
		})
	}
	fieldComments := func(f *ast.Field) []*ast.Comment {
		var cs []*ast.Comment
		if f.Doc != nil {
			cs = append(cs, f.Doc.List...)
		}
		if f.Comment != nil {
			cs = append(cs, f.Comment.List...)
		}
		return cs
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, f := range st.Fields.List {
				for _, c := range fieldComments(f) {
					rest, ok := annotationLine(c.Text, guardedPrefix)
					if !ok {
						continue
					}
					spec, _, _ := strings.Cut(rest, " ")
					rc, ok := parseClause(spec)
					if !ok {
						malformed(c.Pos(), "guardedby annotation names no mutex", "write //tvdp:guardedby <mu>")
						continue
					}
					for _, name := range f.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							ann.fieldGuards[v] = rc
							ann.fieldNames[v] = name.Name
						}
					}
				}
			}
			return true
		})
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if rest, ok := annotationLine(c.Text, requiresPrefix); ok {
					spec, _, _ := strings.Cut(rest, " ")
					var clauses []reqClause
					good := spec != ""
					for _, part := range strings.Split(spec, ",") {
						rc, ok := parseClause(part)
						if !ok {
							good = false
							break
						}
						clauses = append(clauses, rc)
					}
					if !good {
						malformed(c.Pos(), "requires annotation names no mutex", "write //tvdp:requires <mu>[,<mu>...]")
						continue
					}
					ann.funcReqs[fn] = append(ann.funcReqs[fn], clauses...)
				}
				if rest, ok := annotationLine(c.Text, serialPrefix); ok {
					if rest == "" {
						malformed(c.Pos(), "serial annotation has no justification; it exempts nothing", "append a reason: //tvdp:serial <why this runs single-threaded>")
						continue
					}
					ann.serial[fn] = true
				}
			}
		}
	}
	return ann
}

// gbHeld is the checker's held-set: mutex names held exclusively, names
// held at least for reading, and alternation groups seeded by requires
// clauses (one unknown member of the group is write-held).
type gbHeld struct {
	write  map[string]bool
	read   map[string]bool
	groups []map[string]bool
}

func newGBHeld() *gbHeld {
	return &gbHeld{write: map[string]bool{}, read: map[string]bool{}}
}

func (h *gbHeld) clone() *gbHeld {
	c := newGBHeld()
	for n := range h.write {
		c.write[n] = true
	}
	for n := range h.read {
		c.read[n] = true
	}
	c.groups = h.groups // seeded at entry, never mutated
	return c
}

// intersect narrows h to the locks provably held in both h and o.
func (h *gbHeld) intersect(o *gbHeld) {
	for n := range h.write {
		if !o.write[n] {
			delete(h.write, n)
			if o.read[n] {
				h.read[n] = true
			}
		}
	}
	for n := range h.read {
		if !o.read[n] && !o.write[n] {
			delete(h.read, n)
		}
	}
}

// groupCovers reports whether a seeded alternation group proves one of
// alts is held: every group member must be an accepted alternative.
func (h *gbHeld) groupCovers(alts []string) bool {
	ok := func(g map[string]bool) bool {
		for m := range g {
			found := false
			for _, a := range alts {
				if a == m {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return len(g) > 0
	}
	for _, g := range h.groups {
		if ok(g) {
			return true
		}
	}
	return false
}

func (h *gbHeld) writeHeld(alts []string) bool {
	for _, a := range alts {
		if h.write[a] {
			return true
		}
	}
	return h.groupCovers(alts)
}

func (h *gbHeld) readHeld(alts []string) bool {
	for _, a := range alts {
		if h.read[a] || h.write[a] {
			return true
		}
	}
	return h.groupCovers(alts)
}

func (h *gbHeld) describe() string {
	var names []string
	for n := range h.write {
		names = append(names, n)
	}
	for n := range h.read {
		names = append(names, n+" (read)")
	}
	if len(names) == 0 {
		return "no locks"
	}
	sortStrings(names)
	return strings.Join(names, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// gbChecker walks one function.
type gbChecker struct {
	pkg      *Package
	ann      *gbAnnotations
	events   map[*types.Func][]lockEvent
	closures map[types.Object]*ast.FuncLit
	splicing map[types.Object]bool
	fname    string
	out      []Finding
}

// Check runs the analyzer over one package.
func (g *GuardedBy) Check(pkg *Package) []Finding {
	ann := collectAnnotations(pkg)
	out := ann.bad
	if len(ann.fieldGuards) == 0 && len(ann.funcReqs) == 0 {
		return out
	}

	// Pre-pass: per-function direct mutex events for the one-level splice
	// (lockAll/unlockAll and friends), generalized to any mutex name.
	events := map[*types.Func][]lockEvent{}
	var decls []*ast.FuncDecl
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			decls = append(decls, fd)
			events[fn] = directMutexEvents(pkg, fd)
		}
	}

	for _, fd := range decls {
		fn := pkg.Info.Defs[fd.Name].(*types.Func)
		if ann.serial[fn] {
			continue
		}
		c := &gbChecker{
			pkg:      pkg,
			ann:      ann,
			events:   events,
			closures: boundClosures(pkg, fd),
			splicing: map[types.Object]bool{},
			fname:    fd.Name.Name,
		}
		held := newGBHeld()
		for _, rc := range ann.funcReqs[fn] {
			switch {
			case len(rc.alts) == 1 && rc.read:
				held.read[rc.alts[0]] = true
			case len(rc.alts) == 1:
				held.write[rc.alts[0]] = true
			default:
				g := map[string]bool{}
				for _, a := range rc.alts {
					g[a] = true
				}
				held.groups = append(held.groups, g)
			}
		}
		c.stmts(fd.Body.List, held)
		out = append(out, c.out...)
	}
	return out
}

// directMutexEvents collects a function's own sync.(RW)Mutex traffic in
// source order, deferred events last — the splice payload.
func directMutexEvents(pkg *Package, fd *ast.FuncDecl) []lockEvent {
	var events, deferred []lockEvent
	var walk func(n ast.Node, sink *[]lockEvent)
	walk = func(n ast.Node, sink *[]lockEvent) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, &deferred)
				return false
			case *ast.CallExpr:
				if ev, ok := classifyMutexOp(pkg, n); ok {
					*sink = append(*sink, ev)
				}
			}
			return true
		})
	}
	walk(fd.Body, &events)
	return append(events, deferred...)
}

// classifyMutexOp recognises <expr>.<mu>.Lock/RLock/TryLock/TryRLock/
// Unlock/RUnlock where the method genuinely belongs to package sync.
func classifyMutexOp(pkg *Package, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return lockEvent{}, false
	}
	fn, _ := pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	name, ok := mutexName(sel.X)
	if !ok {
		return lockEvent{}, false
	}
	ev := lockEvent{pos: call.Pos(), what: name}
	switch method {
	case "Lock", "TryLock":
		ev.kind = evAcquire
	case "RLock", "TryRLock":
		ev.kind, ev.rlock = evAcquire, true
	default:
		ev.kind = evRelease
	}
	return ev, true
}

// boundClosures maps `name := func() {...}` bindings so the checker can
// execute the closure at its call sites — the store's unlock idiom.
func boundClosures(pkg *Package, fd *ast.FuncDecl) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		var obj types.Object
		if as.Tok == token.DEFINE {
			obj = pkg.Info.Defs[id]
		} else {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil {
			out[obj] = lit
		}
		return true
	})
	return out
}

func (c *gbChecker) report(pos token.Pos, msg, hint string) {
	c.out = append(c.out, Finding{
		Analyzer: "guardedby",
		Pos:      posOf(c.pkg, pos),
		Message:  msg,
		Hint:     hint,
	})
}

// stmts walks a statement list; true means the tail is unreachable.
func (c *gbChecker) stmts(list []ast.Stmt, h *gbHeld) bool {
	for _, st := range list {
		if c.stmt(st, h) {
			return true
		}
	}
	return false
}

func (c *gbChecker) stmt(s ast.Stmt, h *gbHeld) bool {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		return c.stmts(s.List, h)
	case *ast.ExprStmt:
		c.expr(s.X, h, false)
	case *ast.SendStmt:
		c.expr(s.Chan, h, false)
		c.expr(s.Value, h, false)
	case *ast.IncDecStmt:
		c.expr(s.X, h, true)
	case *ast.AssignStmt:
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if _, isLit := s.Rhs[0].(*ast.FuncLit); isLit {
				if id, ok := s.Lhs[0].(*ast.Ident); ok {
					obj := c.pkg.Info.Defs[id]
					if obj == nil {
						obj = c.pkg.Info.Uses[id]
					}
					if obj != nil && c.closures[obj] != nil {
						return false // body executes at its call sites
					}
				}
			}
		}
		for _, r := range s.Rhs {
			c.expr(r, h, false)
		}
		for _, l := range s.Lhs {
			c.expr(l, h, true)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, h, false)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.expr(r, h, false)
		}
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, h)
	case *ast.IfStmt:
		c.stmt(s.Init, h)
		c.expr(s.Cond, h, false)
		bodyH := h.clone()
		bt := c.stmts(s.Body.List, bodyH)
		if s.Else != nil {
			elseH := h.clone()
			et := c.stmt(s.Else, elseH)
			switch {
			case bt && et:
				return true
			case bt:
				*h = *elseH
			case et:
				*h = *bodyH
			default:
				*h = *bodyH
				h.intersect(elseH)
			}
		} else if !bt {
			h.intersect(bodyH)
		}
	case *ast.ForStmt:
		c.stmt(s.Init, h)
		if s.Cond != nil {
			c.expr(s.Cond, h, false)
		}
		bh := h.clone()
		c.stmts(s.Body.List, bh)
		c.stmt(s.Post, bh)
	case *ast.RangeStmt:
		c.expr(s.X, h, false)
		bh := h.clone()
		c.stmts(s.Body.List, bh)
	case *ast.SwitchStmt:
		c.stmt(s.Init, h)
		if s.Tag != nil {
			c.expr(s.Tag, h, false)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				ch := h.clone()
				for _, e := range cl.List {
					c.expr(e, ch, false)
				}
				c.stmts(cl.Body, ch)
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init, h)
		c.stmt(s.Assign, h)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				ch := h.clone()
				c.stmts(cl.Body, ch)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				ch := h.clone()
				c.stmt(cl.Comm, ch)
				c.stmts(cl.Body, ch)
			}
		}
	case *ast.DeferStmt:
		c.deferCall(s.Call, h)
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.expr(a, h, false)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// A spawned goroutine inherits nothing: its body starts with
			// an empty held-set.
			c.stmts(lit.Body.List, newGBHeld())
		}
	}
	return false
}

// deferCall handles a deferred call: a deferred Unlock keeps its mutex
// held for the remainder of the function (it runs at exit), a deferred
// closure is checked against the held-set at the defer site, and a
// deferred same-package call still has its requires contract checked.
func (c *gbChecker) deferCall(call *ast.CallExpr, h *gbHeld) {
	if _, ok := classifyMutexOp(c.pkg, call); ok {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		bh := h.clone()
		c.stmts(lit.Body.List, bh)
		return
	}
	for _, a := range call.Args {
		c.expr(a, h, false)
	}
	if fn := funcObj(c.pkg.Info, call); fn != nil && fn.Pkg() == c.pkg.Pkg {
		c.checkRequires(fn, call.Pos(), h)
	}
}

func (c *gbChecker) expr(e ast.Expr, h *gbHeld, write bool) {
	switch e := e.(type) {
	case nil:
	case *ast.SelectorExpr:
		c.expr(e.X, h, false)
		c.checkAccess(e, h, write)
	case *ast.IndexExpr:
		c.expr(e.X, h, write)
		c.expr(e.Index, h, false)
	case *ast.IndexListExpr:
		c.expr(e.X, h, write)
		for _, ix := range e.Indices {
			c.expr(ix, h, false)
		}
	case *ast.SliceExpr:
		c.expr(e.X, h, write)
		c.expr(e.Low, h, false)
		c.expr(e.High, h, false)
		c.expr(e.Max, h, false)
	case *ast.StarExpr:
		c.expr(e.X, h, write)
	case *ast.ParenExpr:
		c.expr(e.X, h, write)
	case *ast.UnaryExpr:
		c.expr(e.X, h, false)
	case *ast.BinaryExpr:
		c.expr(e.X, h, false)
		c.expr(e.Y, h, false)
	case *ast.CallExpr:
		c.call(e, h)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if _, isIdent := kv.Key.(*ast.Ident); !isIdent {
					c.expr(kv.Key, h, false)
				}
				c.expr(kv.Value, h, false)
				continue
			}
			c.expr(el, h, false)
		}
	case *ast.FuncLit:
		// A literal used inline (sort.Search callback, IIFE argument)
		// executes where it appears: check it under the current held-set.
		bh := h.clone()
		c.stmts(e.Body.List, bh)
	case *ast.TypeAssertExpr:
		c.expr(e.X, h, false)
	}
}

func (c *gbChecker) call(call *ast.CallExpr, h *gbHeld) {
	// Mutex traffic mutates the held-set and is never a guarded access.
	if ev, ok := classifyMutexOp(c.pkg, call); ok {
		switch {
		case ev.kind == evAcquire && ev.rlock:
			h.read[ev.what] = true
		case ev.kind == evAcquire:
			h.write[ev.what] = true
		default:
			delete(h.write, ev.what)
			delete(h.read, ev.what)
		}
		return
	}

	// delete(m, k) writes its map argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := c.pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "delete" && len(call.Args) == 2 {
			c.expr(call.Args[0], h, true)
			c.expr(call.Args[1], h, false)
			return
		}
		// Bound closure call: the body executes here and its lock
		// effects (the unlock idiom) escape into this flow.
		var obj types.Object = c.pkg.Info.Uses[id]
		if lit := c.closures[obj]; lit != nil && !c.splicing[obj] {
			for _, a := range call.Args {
				c.expr(a, h, false)
			}
			c.splicing[obj] = true
			c.stmts(lit.Body.List, h)
			delete(c.splicing, obj)
			return
		}
	}

	c.expr(call.Fun, h, false)
	for _, a := range call.Args {
		c.expr(a, h, false)
	}

	if fn := funcObj(c.pkg.Info, call); fn != nil && fn.Pkg() == c.pkg.Pkg {
		c.checkRequires(fn, call.Pos(), h)
		// One-level splice: the callee's own mutex traffic (lockAll,
		// unlockAll, self-locking helpers) happens at this call site.
		for _, ev := range c.events[fn] {
			switch {
			case ev.kind == evAcquire && ev.rlock:
				h.read[ev.what] = true
			case ev.kind == evAcquire:
				h.write[ev.what] = true
			case ev.kind == evRelease:
				delete(h.write, ev.what)
				delete(h.read, ev.what)
			}
		}
	}
}

func (c *gbChecker) checkRequires(fn *types.Func, pos token.Pos, h *gbHeld) {
	for _, rc := range c.ann.funcReqs[fn] {
		ok := rc.read && h.readHeld(rc.alts) || !rc.read && h.writeHeld(rc.alts)
		if !ok {
			c.report(pos,
				fmt.Sprintf("%s: call to %s requires %s held, but caller holds %s", c.fname, fn.Name(), rc, h.describe()),
				"acquire the declared lock before the call, or mark the caller //tvdp:serial if it runs before the store is shared")
		}
	}
}

func (c *gbChecker) checkAccess(sel *ast.SelectorExpr, h *gbHeld, write bool) {
	obj := c.pkg.Info.Uses[sel.Sel]
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	rc, ok := c.ann.fieldGuards[v]
	if !ok {
		return
	}
	name := c.ann.fieldNames[v]
	if write {
		if !h.writeHeld(rc.alts) {
			c.report(sel.Sel.Pos(),
				fmt.Sprintf("%s: write to %s (guarded by %s) holding %s", c.fname, name, strings.Join(rc.alts, "|"), h.describe()),
				"hold "+strings.Join(rc.alts, " or ")+" exclusively across the write")
		}
		return
	}
	if !h.readHeld(rc.alts) {
		c.report(sel.Sel.Pos(),
			fmt.Sprintf("%s: read of %s (guarded by %s) holding %s", c.fname, name, strings.Join(rc.alts, "|"), h.describe()),
			"hold "+strings.Join(rc.alts, " or ")+" (read lock suffices) across the read")
	}
}
