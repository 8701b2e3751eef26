package engine

import (
	"fmt"

	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// noValue is the "unbound" sentinel in binding frames. Its tag bits are 3,
// which no real term.Value uses.
const noValue term.Value = -1

// pat is an ast.Term with variables renumbered to dense frame slots.
type pat struct {
	kind    ast.TermKind
	val     term.Value // Const
	slot    int        // Var
	functor symtab.Sym // Comp
	args    []pat
}

// litKind distinguishes how a body literal is evaluated.
type litKind uint8

const (
	litRelation litKind = iota // positive atom over a base or derived relation
	litNegated                 // negated atom, evaluated by absence check
	litBuiltin                 // builtin predicate
)

// builtinOp enumerates the builtins.
type builtinOp uint8

const (
	opNone builtinOp = iota
	opEq
	opNeq
	opLt
	opLe
	opGt
	opGe
	opSucc
)

func builtinOpFor(name string) builtinOp {
	switch name {
	case ast.BuiltinEq:
		return opEq
	case ast.BuiltinNeq:
		return opNeq
	case ast.BuiltinLt:
		return opLt
	case ast.BuiltinLe:
		return opLe
	case ast.BuiltinGt:
		return opGt
	case ast.BuiltinGe:
		return opGe
	case ast.BuiltinSucc:
		return opSucc
	}
	return opNone
}

// compiledLit is one body literal in evaluation order.
type compiledLit struct {
	kind litKind
	op   builtinOp
	pred symtab.Sym
	args []pat
	// bodyIdx is the literal's position in the source rule body; the
	// evaluator compares it against the delta occurrence.
	bodyIdx int
	// probeMask marks argument positions that are statically ground when
	// this literal is reached (Const args and args whose variables are all
	// bound by earlier literals). Used for index selection.
	probeMask uint64
	// expect is the estimated cardinality of the probed (build-side)
	// relation at compile time, from the evaluator's size function —
	// planner stats when available, relation length otherwise. It
	// pre-sizes the literal's hash index so growth to the expected size
	// never rehashes, and is surfaced by PlanText. 0 means unknown.
	expect int
}

// compiledRule is a rule prepared for evaluation. For semi-naive variants
// it holds one literal ordering per recursive body occurrence, with the
// delta literal evaluated first — the standard differential join order. A
// compiled rule is immutable after compileRule returns — all runtime
// buffers live in per-evaluation ruleExec structs, so one compiled program
// is safe to evaluate from many goroutines at once.
type compiledRule struct {
	src      ast.Rule
	nslots   int
	varNames []symtab.Sym // slot → source-level name, for diagnostics
	head     []pat
	headPred symtab.Sym
	// defaultOrder evaluates the body with no delta substitution.
	defaultOrder []compiledLit
	// deltaOrders[i] is the ordering for the i-th recursive occurrence,
	// that occurrence first. recBodyIdx[i] is its body position.
	deltaOrders [][]compiledLit
	recBodyIdx  []int
}

// nRecOccur reports the number of recursive body occurrences.
func (cr *compiledRule) nRecOccur() int { return len(cr.recBodyIdx) }

// orderFor returns the literal ordering and delta body index for a variant.
func (cr *compiledRule) orderFor(deltaOcc int) ([]compiledLit, int) {
	if deltaOcc < 0 || deltaOcc >= len(cr.deltaOrders) {
		return cr.defaultOrder, -1
	}
	return cr.deltaOrders[deltaOcc], cr.recBodyIdx[deltaOcc]
}

// patVars accumulates the slots occurring in p.
func (p pat) patVars(dst []int) []int {
	switch p.kind {
	case ast.Var:
		dst = append(dst, p.slot)
	case ast.Comp:
		for _, a := range p.args {
			dst = a.patVars(dst)
		}
	}
	return dst
}

// groundUnder reports whether p is ground given the bound-slot set.
func (p pat) groundUnder(bound []bool) bool {
	switch p.kind {
	case ast.Const:
		return true
	case ast.Var:
		return bound[p.slot]
	default:
		for _, a := range p.args {
			if !a.groundUnder(bound) {
				return false
			}
		}
		return true
	}
}

// groundIn reports whether p is ground under a runtime binding frame.
func (p pat) groundIn(frame []term.Value) bool {
	switch p.kind {
	case ast.Const:
		return true
	case ast.Var:
		return frame[p.slot] != noValue
	default:
		for _, a := range p.args {
			if !a.groundIn(frame) {
				return false
			}
		}
		return true
	}
}

type ruleCompiler struct {
	bank  *term.Bank
	slots map[symtab.Sym]int
	names []symtab.Sym
}

func (rc *ruleCompiler) pat(t ast.Term) pat {
	switch t.Kind {
	case ast.Const:
		return pat{kind: ast.Const, val: t.Value}
	case ast.Var:
		s, ok := rc.slots[t.Name]
		if !ok {
			s = len(rc.names)
			rc.slots[t.Name] = s
			rc.names = append(rc.names, t.Name)
		}
		return pat{kind: ast.Var, slot: s}
	default:
		args := make([]pat, len(t.Args))
		for i, a := range t.Args {
			args[i] = rc.pat(a)
		}
		return pat{kind: ast.Comp, functor: t.Name, args: args}
	}
}

// bodyLit is the pre-ordering form of one body literal.
type bodyLit struct {
	lit     ast.Literal
	kind    litKind
	op      builtinOp
	args    []pat
	bodyIdx int
}

// sizeFn estimates a relation's cardinality for join ordering; nil means
// no estimates are available.
type sizeFn func(symtab.Sym) int

// compileRule renumbers variables, picks body evaluation orders and
// computes probe masks. inComponent tells which predicates are mutually
// recursive with the head (for semi-naive variant generation).
//
// Ordering strategy: repeatedly select the next literal among the remaining
// ones, preferring (1) builtins whose binding requirements are met,
// (2) negated literals with all variables bound, (3) the positive literal
// with the most statically-bound argument positions, breaking ties by the
// estimated relation size (smaller first) and then source order. For each
// recursive occurrence an additional ordering is produced with that
// literal forced first, so semi-naive variants start from the (small)
// delta relation.
func compileRule(bank *term.Bank, r ast.Rule, inComponent map[symtab.Sym]bool, sizeOf sizeFn) (*compiledRule, error) {
	syms := bank.Symbols()
	rc := &ruleCompiler{bank: bank, slots: map[symtab.Sym]int{}}

	lits := make([]bodyLit, len(r.Body))
	for i, l := range r.Body {
		name := syms.String(l.Pred)
		bl := bodyLit{lit: l, bodyIdx: i}
		switch {
		case ast.IsBuiltinName(name):
			if l.Negated {
				return nil, fmt.Errorf("engine: negated builtin %s is not supported", name)
			}
			bl.kind = litBuiltin
			bl.op = builtinOpFor(name)
			if len(l.Args) != 2 {
				return nil, fmt.Errorf("engine: builtin %s expects 2 arguments, got %d", name, len(l.Args))
			}
		case l.Negated:
			bl.kind = litNegated
		default:
			bl.kind = litRelation
		}
		args := make([]pat, len(l.Args))
		for j, a := range l.Args {
			args[j] = rc.pat(a)
		}
		bl.args = args
		lits[i] = bl
	}
	headPats := make([]pat, len(r.Head.Args))
	for i, a := range r.Head.Args {
		headPats[i] = rc.pat(a)
	}
	nslots := len(rc.names)

	order := func(first int) ([]compiledLit, error) {
		return orderBody(bank, r, lits, nslots, first, sizeOf)
	}

	defaultOrder, err := order(-1)
	if err != nil {
		return nil, err
	}

	cr := &compiledRule{
		src:          r,
		nslots:       nslots,
		varNames:     rc.names,
		head:         headPats,
		headPred:     r.Head.Pred,
		defaultOrder: defaultOrder,
	}

	// Safety: every head variable must be bound by the (default) body
	// ordering; all orderings bind the same variable set.
	bound := make([]bool, nslots)
	for _, cl := range defaultOrder {
		for _, a := range cl.args {
			for _, s := range a.patVars(nil) {
				bound[s] = true
			}
		}
	}
	for _, hp := range headPats {
		for _, s := range hp.patVars(nil) {
			if !bound[s] {
				return nil, fmt.Errorf(
					"engine: rule %s is unsafe: head variable %s does not occur in a positive body literal",
					ast.FormatRule(bank, r), syms.String(rc.names[s]))
			}
		}
	}

	for i, bl := range lits {
		if bl.kind == litRelation && inComponent[bl.lit.Pred] {
			deltaOrder, err := order(i)
			if err != nil {
				return nil, err
			}
			cr.deltaOrders = append(cr.deltaOrders, deltaOrder)
			cr.recBodyIdx = append(cr.recBodyIdx, i)
		}
	}
	return cr, nil
}

// orderBody computes one evaluation ordering; when first >= 0 that body
// literal is placed first (the semi-naive delta position).
func orderBody(bank *term.Bank, r ast.Rule, lits []bodyLit, nslots, first int, sizeOf sizeFn) ([]compiledLit, error) {
	bound := make([]bool, nslots)
	used := make([]bool, len(lits))
	var order []compiledLit

	litReady := func(bl bodyLit) bool {
		switch bl.kind {
		case litRelation:
			return true
		case litNegated:
			for _, a := range bl.args {
				if !a.groundUnder(bound) {
					return false
				}
			}
			return true
		default:
			x, y := bl.args[0], bl.args[1]
			gx, gy := x.groundUnder(bound), y.groundUnder(bound)
			switch bl.op {
			case opEq, opSucc:
				// One side may be bound by the builtin, but only if it
				// is a plain variable.
				if gx && gy {
					return true
				}
				if gx && y.kind == ast.Var {
					return true
				}
				if gy && x.kind == ast.Var {
					return true
				}
				return false
			default:
				return gx && gy
			}
		}
	}

	boundCount := func(bl bodyLit) int {
		n := 0
		for _, a := range bl.args {
			if a.groundUnder(bound) {
				n++
			}
		}
		return n
	}

	emit := func(i int) {
		bl := lits[i]
		used[i] = true
		var mask uint64
		for j, a := range bl.args {
			if a.groundUnder(bound) {
				mask |= 1 << uint(j)
			}
		}
		expect := 0
		if bl.kind == litRelation && sizeOf != nil {
			expect = sizeOf(bl.lit.Pred)
		}
		order = append(order, compiledLit{
			kind:      bl.kind,
			op:        bl.op,
			pred:      bl.lit.Pred,
			args:      bl.args,
			bodyIdx:   bl.bodyIdx,
			probeMask: mask,
			expect:    expect,
		})
		for _, a := range bl.args {
			for _, s := range a.patVars(nil) {
				bound[s] = true
			}
		}
	}

	if first >= 0 {
		emit(first)
	}
	for len(order) < len(lits) {
		pick := -1
		// Pass 1: ready builtins and negations, in source order.
		for i, bl := range lits {
			if used[i] || bl.kind == litRelation {
				continue
			}
			if litReady(bl) {
				pick = i
				break
			}
		}
		// Pass 2: best positive literal — most bound argument positions,
		// ties broken by estimated relation size, then source order.
		if pick < 0 {
			best, bestSize := -1, 0
			for i, bl := range lits {
				if used[i] || bl.kind != litRelation {
					continue
				}
				c := boundCount(bl)
				size := 0
				if sizeOf != nil {
					size = sizeOf(bl.lit.Pred)
				}
				if c > best || (c == best && sizeOf != nil && size < bestSize) {
					best, bestSize = c, size
					pick = i
				}
			}
		}
		if pick < 0 {
			// Only unready builtins/negations remain: the rule is unsafe.
			for i, bl := range lits {
				if !used[i] {
					return nil, fmt.Errorf(
						"engine: rule %s is unsafe: %s cannot be evaluated with its variables unbound",
						ast.FormatRule(bank, r), ast.FormatLiteral(bank, bl.lit))
				}
			}
		}
		emit(pick)
	}
	return order, nil
}
