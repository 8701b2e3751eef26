package parser

import (
	"fmt"
	"slices"
	"strconv"

	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Result holds everything found in one source unit: a program (rules and
// facts, in order) and any queries.
type Result struct {
	Program *ast.Program
	Queries []ast.Query
}

type parser struct {
	bank *term.Bank
	syms *symtab.Table
	lx   lexer
	// tok is the one token of lookahead. A lexical error is held in lexErr
	// and surfaces, as a tokErr token, when the parser reaches it — no
	// production accepts tokErr, so the error is always reported.
	tok    token
	lexErr error
	anonN  int
	// terms is the stack every term production pushes its result onto.
	// Whoever consumes the terms (a literal, a compound, a list, a streamed
	// fact) pops them, copying only what it keeps: a streamed fact's
	// arguments are never copied at all.
	terms []ast.Term
}

func newParser(b *term.Bank, src string) *parser {
	p := &parser{bank: b, syms: b.Symbols(), lx: newLexer(src)}
	p.advance()
	return p
}

// Parse parses src into rules, facts and queries over the given bank.
func Parse(b *term.Bank, src string) (*Result, error) {
	p := newParser(b, src)
	res := &Result{Program: ast.NewProgram(b)}
	for p.tok.kind != tokEOF {
		if p.at("?-") {
			p.advance()
			goal, err := p.literal()
			if err != nil {
				return nil, err
			}
			if goal.Negated {
				return nil, p.errAt(p.tok, "query goal must be positive")
			}
			if err := p.expect("."); err != nil {
				return nil, err
			}
			res.Queries = append(res.Queries, ast.Query{Goal: goal})
			continue
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		res.Program.Add(r)
	}
	return res, nil
}

// ParseRule parses a single rule or fact (terminated by '.').
func ParseRule(b *term.Bank, src string) (ast.Rule, error) {
	res, err := Parse(b, src)
	if err != nil {
		return ast.Rule{}, err
	}
	if len(res.Queries) != 0 || len(res.Program.Rules) != 1 {
		return ast.Rule{}, fmt.Errorf("expected exactly one rule in %q", src)
	}
	return res.Program.Rules[0], nil
}

// ParseQuery parses a single "?- goal." query.
func ParseQuery(b *term.Bank, src string) (ast.Query, error) {
	res, err := Parse(b, src)
	if err != nil {
		return ast.Query{}, err
	}
	if len(res.Queries) != 1 || len(res.Program.Rules) != 0 {
		return ast.Query{}, fmt.Errorf("expected exactly one query in %q", src)
	}
	return res.Queries[0], nil
}

// advance consumes the lookahead token, pulling the next one from the
// lexer, and returns the consumed token.
func (p *parser) advance() token {
	t := p.tok
	next, err := p.lx.next()
	if err != nil {
		p.lexErr = err
		next = token{kind: tokErr}
	}
	p.tok = next
	return t
}

// at reports whether the lookahead is the given punctuation.
func (p *parser) at(text string) bool {
	return p.tok.kind == tokPunct && p.tok.text == text
}

func (p *parser) errAt(t token, format string, args ...any) error {
	if t.kind == tokErr {
		return p.lexErr
	}
	return fmt.Errorf("%d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(text string) error {
	if !p.at(text) {
		return p.errAt(p.tok, "expected %q, found %s", text, p.tok)
	}
	p.advance()
	return nil
}

func (p *parser) rule() (ast.Rule, error) {
	head, err := p.literal()
	if err != nil {
		return ast.Rule{}, err
	}
	return p.ruleFrom(head)
}

// ruleFrom parses the rest of a clause whose head literal has been read.
func (p *parser) ruleFrom(head ast.Literal) (ast.Rule, error) {
	if head.Negated {
		return ast.Rule{}, p.errAt(p.tok, "rule head must be positive")
	}
	r := ast.Rule{Head: head}
	if p.at(":-") {
		p.advance()
		for {
			l, err := p.literal()
			if err != nil {
				return ast.Rule{}, err
			}
			r.Body = append(r.Body, l)
			if !p.at(",") {
				break
			}
			p.advance()
		}
	}
	if err := p.expect("."); err != nil {
		return ast.Rule{}, err
	}
	return r, nil
}

func isInfixOp(t token) bool {
	if t.kind != tokPunct {
		return false
	}
	switch t.text {
	case ast.BuiltinEq, ast.BuiltinNeq, ast.BuiltinLt, ast.BuiltinLe, ast.BuiltinGt, ast.BuiltinGe:
		return true
	}
	return false
}

// literal parses an atom p(t,...), a zero-arity atom p, or an infix builtin
// t1 op t2, each optionally under `not`.
func (p *parser) literal() (ast.Literal, error) {
	base := len(p.terms)
	pred, negated, err := p.literalArgs()
	if err != nil {
		return ast.Literal{}, err
	}
	l := ast.Literal{Pred: pred, Negated: negated}
	if len(p.terms) > base {
		l.Args = slices.Clone(p.terms[base:])
		p.terms = p.terms[:base]
	}
	return l, nil
}

// literalArgs is literal with the arguments left on the term stack. An
// atom is parsed as functor plus argument list and is never a term: only
// when an infix operator follows it (f(a) = X) is it folded into a
// compound, so ground atoms leave no trace in the term bank.
func (p *parser) literalArgs() (pred symtab.Sym, negated bool, err error) {
	if p.tok.kind == tokIdent && p.tok.text == "not" {
		p.advance()
		negated = true
	}
	first := p.tok
	if first.kind == tokIdent {
		p.advance()
		sym := p.syms.Intern(first.text)
		base := len(p.terms)
		parens := p.at("(")
		if parens {
			if err := p.args(); err != nil {
				return 0, false, err
			}
		}
		if !isInfixOp(p.tok) {
			return sym, negated, nil
		}
		if parens {
			p.compound(sym, base)
		} else {
			p.terms = append(p.terms, ast.C(term.Symbol(sym)))
		}
	} else {
		if err := p.term(); err != nil {
			return 0, false, err
		}
		if !isInfixOp(p.tok) {
			if p.tok.kind == tokErr {
				first = p.tok // a bad byte after the term: report that instead
			}
			return 0, false, p.errAt(first, "expected a literal")
		}
	}
	op := p.advance()
	if err := p.term(); err != nil {
		return 0, false, err
	}
	return p.syms.Intern(op.text), negated, nil
}

// args parses "(t, ..., t)" with the lookahead on "(", pushing each
// argument; "()" pushes none.
func (p *parser) args() error {
	p.advance()
	if p.at(")") {
		p.advance()
		return nil
	}
	for {
		if err := p.term(); err != nil {
			return err
		}
		if !p.at(",") {
			break
		}
		p.advance()
	}
	return p.expect(")")
}

// compound replaces the terms above base with sym(...) over them: an
// interned constant when they are all ground.
func (p *parser) compound(sym symtab.Sym, base int) {
	t := ast.Mk(p.bank, sym, p.terms[base:]...)
	if t.Kind == ast.Comp {
		t.Args = slices.Clone(t.Args) // Mk kept the stack's own slice
	}
	p.terms = append(p.terms[:base], t)
}

// term parses one term and pushes it.
func (p *parser) term() error {
	t := p.tok
	switch {
	case t.kind == tokInt || p.at("-"):
		n, err := p.integer()
		if err != nil {
			return err
		}
		p.terms = append(p.terms, ast.C(term.Int(n)))
		return nil
	case t.kind == tokVar:
		p.advance()
		name := t.text
		if name == "_" {
			p.anonN++
			name = fmt.Sprintf("_G%d", p.anonN)
		}
		p.terms = append(p.terms, ast.V(p.syms.Intern(name)))
		return nil
	case t.kind == tokIdent:
		p.advance()
		sym := p.syms.Intern(t.text)
		if !p.at("(") {
			p.terms = append(p.terms, ast.C(term.Symbol(sym)))
			return nil
		}
		base := len(p.terms)
		if err := p.args(); err != nil {
			return err
		}
		p.compound(sym, base)
		return nil
	case p.at("["):
		return p.list()
	}
	return p.errAt(t, "expected a term, found %s", t)
}

// integer parses an optionally negated integer literal with the lookahead
// on the digits or the '-', enforcing the 62-bit range the term.Value
// encoding supports.
func (p *parser) integer() (int64, error) {
	negate := p.at("-")
	if negate {
		p.advance()
		if p.tok.kind != tokInt {
			return 0, p.errAt(p.tok, "expected integer after '-'")
		}
	}
	t := p.advance()
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errAt(t, "bad integer %q", t.text)
	}
	if negate {
		n = -n
	}
	const maxTermInt = 1<<61 - 1
	if n > maxTermInt || n < -(1<<61) {
		return 0, p.errAt(t, "integer %d outside the supported range [−2^61, 2^61−1]", n)
	}
	return n, nil
}

// list parses "[e, ..., e]" or "[e, ... | tail]" with the lookahead on "["
// and pushes the list.
func (p *parser) list() error {
	p.advance()
	base := len(p.terms)
	tail := ast.NilTerm(p.bank)
	if !p.at("]") {
		for {
			if err := p.term(); err != nil {
				return err
			}
			if !p.at(",") {
				break
			}
			p.advance()
		}
		if p.at("|") {
			p.advance()
			if err := p.term(); err != nil {
				return err
			}
			tail = p.terms[len(p.terms)-1]
			p.terms = p.terms[:len(p.terms)-1]
		}
	}
	if err := p.expect("]"); err != nil {
		return err
	}
	p.terms = append(p.terms[:base], ast.MkList(p.bank, p.terms[base:], tail))
	return nil
}

// ParseFacts parses fact text — ground facts only — handing each fact to
// sink in source order, without building an ast.Rule or ast.Program and
// without interning the fact's atom: only genuine compound and list
// arguments reach the bank. args is reused between calls; sink must copy
// what it keeps. Anything but a ground fact (a rule, a query, a variable)
// is an error naming its position, as is the first error sink returns.
func ParseFacts(b *term.Bank, src string, sink func(pred symtab.Sym, args []term.Value) error) error {
	p := newParser(b, src)
	var vals []term.Value
	for p.tok.kind != tokEOF {
		first := p.tok
		if p.at("?-") {
			return p.errAt(first, "queries are not allowed in fact text")
		}
		pred, negated, err := p.literalArgs()
		if err != nil {
			return err
		}
		vals = vals[:0]
		for _, a := range p.terms {
			if a.Kind == ast.Const {
				vals = append(vals, a.Value)
			}
		}
		if negated || !p.at(".") || len(vals) != len(p.terms) {
			// Not a ground fact: read the clause to its end, so that it is
			// either a syntax error or can be shown in the message.
			head := ast.Literal{Pred: pred, Args: slices.Clone(p.terms), Negated: negated}
			r, err := p.ruleFrom(head)
			if err != nil {
				return err
			}
			return p.errAt(first, "%s is not a ground fact", ast.FormatRule(b, r))
		}
		p.advance()
		p.terms = p.terms[:0]
		if err := sink(pred, vals); err != nil {
			return err
		}
	}
	return nil
}

// MustParse is a test and example helper: it parses src and panics on error.
func MustParse(b *term.Bank, src string) *Result {
	res, err := Parse(b, src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v", err))
	}
	return res
}

// Pred is a small helper to intern a predicate name.
func Pred(b *term.Bank, name string) symtab.Sym {
	return b.Symbols().Intern(name)
}
