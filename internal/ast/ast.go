// Package ast defines the abstract syntax of Datalog programs: terms with
// variables, literals, rules, programs and queries, plus the traversal and
// substitution helpers the rewriters are built from.
//
// Ground constants are term.Value handles interned in a term.Bank; all
// formatting therefore needs the bank that owns the program.
package ast

import (
	"fmt"
	"sort"
	"strings"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// TermKind discriminates the three syntactic term shapes.
type TermKind uint8

const (
	// Const is a ground value (integer, symbol or interned compound).
	Const TermKind = iota
	// Var is a named logic variable.
	Var
	// Comp is a compound term with at least one variable somewhere below
	// it. Fully ground compounds are interned into the bank and become
	// Const, so Comp never needs hashing during evaluation.
	Comp
)

// Term is a syntactic term: a constant, a variable, or a non-ground
// compound.
type Term struct {
	Kind  TermKind
	Value term.Value // Const only
	Name  symtab.Sym // Var: variable name; Comp: functor
	Args  []Term     // Comp only
}

// C wraps a ground value as a constant term.
func C(v term.Value) Term { return Term{Kind: Const, Value: v} }

// V wraps a variable name as a variable term.
func V(name symtab.Sym) Term { return Term{Kind: Var, Name: name} }

// Vs builds one variable term per name.
func Vs(names []symtab.Sym) []Term {
	ts := make([]Term, len(names))
	for i, n := range names {
		ts[i] = V(n)
	}
	return ts
}

// Mk builds a compound term, interning it into the bank when every argument
// is ground (so ground compounds are always Const).
func Mk(b *term.Bank, functor symtab.Sym, args ...Term) Term {
	ground := true
	for _, a := range args {
		if a.Kind != Const {
			ground = false
			break
		}
	}
	if ground {
		vals := make([]term.Value, len(args))
		for i, a := range args {
			vals[i] = a.Value
		}
		return C(b.Compound(functor, vals...))
	}
	return Term{Kind: Comp, Name: functor, Args: args}
}

// MkList builds a list term [e1,...,en|tail], interning ground prefixes.
func MkList(b *term.Bank, elems []Term, tail Term) Term {
	consSym := b.Symbols().Intern(term.ListConsName)
	t := tail
	for i := len(elems) - 1; i >= 0; i-- {
		if elems[i].Kind == Const && t.Kind == Const {
			t = C(b.Cons(elems[i].Value, t.Value))
		} else {
			t = Mk(b, consSym, elems[i], t)
		}
	}
	return t
}

// NilTerm returns the empty-list constant.
func NilTerm(b *term.Bank) Term { return C(b.Nil()) }

// IsGround reports whether t contains no variables.
func (t Term) IsGround() bool { return t.Kind == Const }

// Vars appends the variables occurring in t, in order of first occurrence,
// to dst (without duplicates against seen) and returns the extended slice.
func (t Term) vars(dst []symtab.Sym, seen map[symtab.Sym]bool) []symtab.Sym {
	switch t.Kind {
	case Var:
		if !seen[t.Name] {
			seen[t.Name] = true
			dst = append(dst, t.Name)
		}
	case Comp:
		for _, a := range t.Args {
			dst = a.vars(dst, seen)
		}
	}
	return dst
}

// Equal reports structural equality of two syntactic terms.
func (t Term) Equal(o Term) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Const:
		return t.Value == o.Value
	case Var:
		return t.Name == o.Name
	default:
		if t.Name != o.Name || len(t.Args) != len(o.Args) {
			return false
		}
		for i := range t.Args {
			if !t.Args[i].Equal(o.Args[i]) {
				return false
			}
		}
		return true
	}
}

// Subst applies a variable substitution, interning any compound that becomes
// ground. Unmapped variables are left in place.
func (t Term) Subst(b *term.Bank, s map[symtab.Sym]Term) Term {
	switch t.Kind {
	case Const:
		return t
	case Var:
		if r, ok := s[t.Name]; ok {
			return r
		}
		return t
	default:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.Subst(b, s)
		}
		return Mk(b, t.Name, args...)
	}
}

// Rename renames every variable via f, preserving structure.
func (t Term) Rename(b *term.Bank, f func(symtab.Sym) symtab.Sym) Term {
	switch t.Kind {
	case Const:
		return t
	case Var:
		return V(f(t.Name))
	default:
		args := make([]Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = a.Rename(b, f)
		}
		return Mk(b, t.Name, args...)
	}
}

// Builtin predicate names recognized by the engine. They are ordinary
// predicate symbols syntactically; the engine gives them fixed meaning.
const (
	BuiltinEq   = "="
	BuiltinNeq  = "!="
	BuiltinLt   = "<"
	BuiltinLe   = "<="
	BuiltinGt   = ">"
	BuiltinGe   = ">="
	BuiltinSucc = "succ" // succ(X, Y) ⇔ Y = X+1 over integers
)

// builtinNames is the closed set of builtin predicate spellings.
var builtinNames = map[string]bool{
	BuiltinEq: true, BuiltinNeq: true,
	BuiltinLt: true, BuiltinLe: true, BuiltinGt: true, BuiltinGe: true,
	BuiltinSucc: true,
}

// IsBuiltinName reports whether name is a reserved builtin predicate.
func IsBuiltinName(name string) bool { return builtinNames[name] }

// Literal is one body or head atom, possibly negated.
type Literal struct {
	Pred    symtab.Sym
	Args    []Term
	Negated bool
}

// Atom builds a positive literal.
func Atom(pred symtab.Sym, args ...Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (l Literal) Arity() int { return len(l.Args) }

// Vars returns the variables of the literal in first-occurrence order.
func (l Literal) Vars() []symtab.Sym {
	return l.appendVars(nil, map[symtab.Sym]bool{})
}

func (l Literal) appendVars(dst []symtab.Sym, seen map[symtab.Sym]bool) []symtab.Sym {
	for _, a := range l.Args {
		dst = a.vars(dst, seen)
	}
	return dst
}

// Subst applies a substitution to every argument.
func (l Literal) Subst(b *term.Bank, s map[symtab.Sym]Term) Literal {
	args := make([]Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = a.Subst(b, s)
	}
	return Literal{Pred: l.Pred, Args: args, Negated: l.Negated}
}

// Rename renames every variable in the literal via f.
func (l Literal) Rename(b *term.Bank, f func(symtab.Sym) symtab.Sym) Literal {
	args := make([]Term, len(l.Args))
	for i, a := range l.Args {
		args[i] = a.Rename(b, f)
	}
	return Literal{Pred: l.Pred, Args: args, Negated: l.Negated}
}

// Equal reports structural equality of two literals.
func (l Literal) Equal(o Literal) bool {
	if l.Pred != o.Pred || l.Negated != o.Negated || len(l.Args) != len(o.Args) {
		return false
	}
	for i := range l.Args {
		if !l.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Rule is a Horn clause head :- body. A fact is a rule with an empty body
// and a ground head.
type Rule struct {
	Head Literal
	Body []Literal
}

// IsFact reports whether the rule is a ground fact.
func (r Rule) IsFact() bool {
	if len(r.Body) != 0 {
		return false
	}
	for _, a := range r.Head.Args {
		if !a.IsGround() {
			return false
		}
	}
	return true
}

// Vars returns all variables of the rule in first-occurrence order
// (head first, then body left to right).
func (r Rule) Vars() []symtab.Sym {
	seen := map[symtab.Sym]bool{}
	vs := r.Head.appendVars(nil, seen)
	for _, l := range r.Body {
		vs = l.appendVars(vs, seen)
	}
	return vs
}

// Subst applies a substitution to head and body.
func (r Rule) Subst(b *term.Bank, s map[symtab.Sym]Term) Rule {
	body := make([]Literal, len(r.Body))
	for i, l := range r.Body {
		body[i] = l.Subst(b, s)
	}
	return Rule{Head: r.Head.Subst(b, s), Body: body}
}

// Equal reports structural equality of two rules.
func (r Rule) Equal(o Rule) bool {
	if !r.Head.Equal(o.Head) || len(r.Body) != len(o.Body) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	return true
}

// Program is an ordered list of rules sharing a bank.
type Program struct {
	Bank  *term.Bank
	Rules []Rule
}

// NewProgram returns an empty program over the given bank.
func NewProgram(b *term.Bank) *Program { return &Program{Bank: b} }

// Add appends rules to the program.
func (p *Program) Add(rules ...Rule) { p.Rules = append(p.Rules, rules...) }

// Predicates returns the set of head predicates, sorted by name.
func (p *Program) Predicates() []symtab.Sym {
	seen := map[symtab.Sym]bool{}
	var out []symtab.Sym
	for _, r := range p.Rules {
		if !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			out = append(out, r.Head.Pred)
		}
	}
	syms := p.Bank.Symbols()
	sort.Slice(out, func(i, j int) bool {
		return syms.String(out[i]) < syms.String(out[j])
	})
	return out
}

// Clone returns a deep-enough copy of the program (rules are value types;
// the bank is shared).
func (p *Program) Clone() *Program {
	q := NewProgram(p.Bank)
	q.Rules = make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		body := make([]Literal, len(r.Body))
		copy(body, r.Body)
		q.Rules[i] = Rule{Head: r.Head, Body: body}
	}
	return q
}

// Query is a goal to evaluate against a program and database.
type Query struct {
	Goal Literal
}

// ---------------------------------------------------------------------------
// Formatting

// FormatTerm renders a term as source text.
func FormatTerm(b *term.Bank, t Term) string {
	var sb strings.Builder
	formatTerm(&sb, b, t)
	return sb.String()
}

func formatTerm(sb *strings.Builder, b *term.Bank, t Term) {
	syms := b.Symbols()
	switch t.Kind {
	case Const:
		sb.WriteString(b.Format(t.Value))
	case Var:
		sb.WriteString(syms.String(t.Name))
	default:
		if syms.String(t.Name) == term.ListConsName && len(t.Args) == 2 {
			formatListTerm(sb, b, t)
			return
		}
		sb.WriteString(syms.String(t.Name))
		sb.WriteByte('(')
		for i, a := range t.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			formatTerm(sb, b, a)
		}
		sb.WriteByte(')')
	}
}

func formatListTerm(sb *strings.Builder, b *term.Bank, t Term) {
	syms := b.Symbols()
	sb.WriteByte('[')
	first := true
	for {
		if t.Kind == Comp && syms.String(t.Name) == term.ListConsName && len(t.Args) == 2 {
			if !first {
				sb.WriteByte(',')
			}
			first = false
			formatTerm(sb, b, t.Args[0])
			t = t.Args[1]
			continue
		}
		if t.Kind == Const && b.IsNil(t.Value) {
			break
		}
		if t.Kind == Const && b.IsCons(t.Value) {
			// Ground tail: splice its elements.
			c := b.Deref(t.Value)
			if !first {
				sb.WriteByte(',')
			}
			first = false
			sb.WriteString(b.Format(c.Args[0]))
			t = C(c.Args[1])
			continue
		}
		sb.WriteByte('|')
		formatTerm(sb, b, t)
		break
	}
	sb.WriteByte(']')
}

// FormatLiteral renders a literal as source text.
func FormatLiteral(b *term.Bank, l Literal) string {
	var sb strings.Builder
	formatLiteral(&sb, b, l)
	return sb.String()
}

func formatLiteral(sb *strings.Builder, b *term.Bank, l Literal) {
	syms := b.Symbols()
	name := syms.String(l.Pred)
	if l.Negated {
		sb.WriteString("not ")
	}
	if IsBuiltinName(name) && len(l.Args) == 2 && name != BuiltinSucc {
		formatTerm(sb, b, l.Args[0])
		sb.WriteByte(' ')
		sb.WriteString(name)
		sb.WriteByte(' ')
		formatTerm(sb, b, l.Args[1])
		return
	}
	sb.WriteString(name)
	if len(l.Args) == 0 {
		return
	}
	sb.WriteByte('(')
	for i, a := range l.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		formatTerm(sb, b, a)
	}
	sb.WriteByte(')')
}

// FormatRule renders a rule as source text, terminated by a period.
func FormatRule(b *term.Bank, r Rule) string {
	var sb strings.Builder
	formatLiteral(&sb, b, r.Head)
	if len(r.Body) > 0 {
		sb.WriteString(" :- ")
		for i, l := range r.Body {
			if i > 0 {
				sb.WriteString(", ")
			}
			formatLiteral(&sb, b, l)
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

// Format renders the whole program, one rule per line.
func (p *Program) Format() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(FormatRule(p.Bank, r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String implements fmt.Stringer for diagnostics; it does not include facts
// stored in a database.
func (p *Program) String() string { return p.Format() }

// FormatQuery renders a query as "?- goal.".
func FormatQuery(b *term.Bank, q Query) string {
	return fmt.Sprintf("?- %s.", FormatLiteral(b, q.Goal))
}
