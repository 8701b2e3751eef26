// Package parser turns Datalog source text into ast values.
//
// Syntax summary:
//
//	fact.                      % ground head, no body
//	head :- lit, ..., lit.     % rule
//	?- goal.                   % query
//
// Literals are atoms p(t,...), optionally prefixed with `not`, or infix
// builtins t1 = t2, t1 != t2, t1 < t2, and so on. Terms are integers,
// lowercase identifiers (constants), uppercase or `_`-prefixed identifiers
// (variables), compounds f(t,...), and lists [a,b|T]. `%` starts a comment
// running to end of line.
package parser

import (
	"fmt"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokIdent           // lowercase-leading identifier
	tokVar             // uppercase- or underscore-leading identifier
	tokInt
	tokPunct // ( ) [ ] , . | and operators :- ?- = != < <= > >=
	tokErr   // stands in for a token the lexer rejected; see parser.lexErr
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte; col = pos-lineStart+1
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1}
}

func (lx *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case '%':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case '\n':
			lx.pos++
			lx.line++
			lx.lineStart = lx.pos
		case ' ', '\t', '\r':
			lx.pos++
		default:
			return
		}
	}
}

// Byte classes. Identifiers are classified byte by byte, each byte read as
// a Latin-1 code point, so the tables are filled from the unicode
// predicates once instead of calling them per byte.
const (
	classIdentStart = 1 << iota
	classIdentPart
	classUpper
	classDigit
)

var byteClass = func() (tab [256]uint8) {
	for i := range tab {
		r := rune(i)
		if r == '_' || unicode.IsLetter(r) {
			tab[i] |= classIdentStart | classIdentPart
		}
		if unicode.IsDigit(r) {
			tab[i] |= classIdentPart | classDigit
		}
		if r == '_' || unicode.IsUpper(r) {
			tab[i] |= classUpper
		}
	}
	return tab
}()

func isIdentStart(c byte) bool { return byteClass[c]&classIdentStart != 0 }

func isIdentPart(c byte) bool { return byteClass[c]&classIdentPart != 0 }

// next returns the next token. Token text is always a substring of the
// source, so lexing allocates nothing.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.pos-lx.lineStart+1
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	start := lx.pos
	c := lx.src[start]
	switch {
	case byteClass[c]&classDigit != 0:
		for lx.pos < len(lx.src) && byteClass[lx.src[lx.pos]]&classDigit != 0 {
			lx.pos++
		}
		return token{kind: tokInt, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		kind := tokIdent
		if byteClass[c]&classUpper != 0 {
			kind = tokVar
		}
		return token{kind: kind, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	// Punctuation and operators.
	if start+1 < len(lx.src) {
		switch lx.src[start : start+2] {
		case ":-", "?-", "!=", "<=", ">=":
			lx.pos += 2
			return token{kind: tokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
		}
	}
	switch c {
	case '(', ')', '[', ']', ',', '.', '|', '=', '<', '>', '-', '+':
		lx.pos++
		return token{kind: tokPunct, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", string(c))
}
