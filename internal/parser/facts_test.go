package parser

import (
	"errors"
	"fmt"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// collectFacts runs ParseFacts and renders every fact it hands over.
func collectFacts(b *term.Bank, src string) ([]string, error) {
	var out []string
	err := ParseFacts(b, src, func(pred symtab.Sym, args []term.Value) error {
		lit := ast.Literal{Pred: pred}
		for _, a := range args {
			lit.Args = append(lit.Args, ast.C(a))
		}
		out = append(out, ast.FormatLiteral(b, lit))
		return nil
	})
	return out, err
}

// TestParseFactsTable pins the streaming entry against the general parser
// shape by shape: what it yields, and what it leaves in the bank.
func TestParseFactsTable(t *testing.T) {
	cases := []struct {
		src       string
		want      []string
		compounds int // bank growth
	}{
		{"up(a,b).", []string{"up(a,b)"}, 0},
		{"% only a comment\n", nil, 0},
		{"up(a,b). % trailing\n% line\n  flat( b , c ) .", []string{"up(a,b)", "flat(b,c)"}, 0},
		{"flag.", []string{"flag"}, 0},
		{"flag().", []string{"flag"}, 0},
		{"n(7). n(-3). n(0). n(-0).", []string{"n(7)", "n(-3)", "n(0)", "n(0)"}, 0},
		{"big(2305843009213693951). small(-2305843009213693952).",
			[]string{"big(2305843009213693951)", "small(-2305843009213693952)"}, 0},
		{"\xe9t\xe9(\xe0, b\xfc).", []string{"\xe9t\xe9(\xe0,b\xfc)"}, 0}, // Latin-1 letters, byte by byte
		{"pt(p(1,2)).", []string{"pt(p(1,2))"}, 1},
		{"l([1,[2,x]]).", []string{"l([1,[2,x]])"}, 4},
		{"l([]). l([a|b]). l(f()).", []string{"l([])", "l([a|b])", "l(f())"}, 2},
		{"1 = 1.", []string{"1 = 1"}, 0}, // a ground infix head is, oddly, a fact, as it is for Parse
		{"f(a) = b.", []string{"f(a) = b"}, 1},
	}
	for _, c := range cases {
		b := newBank()
		before := b.Len()
		got, err := collectFacts(b, c.src)
		if err != nil {
			t.Errorf("ParseFacts(%q): %v", c.src, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("ParseFacts(%q) = %q, want %q", c.src, got, c.want)
		}
		if grew := b.Len() - before; grew != c.compounds {
			t.Errorf("ParseFacts(%q) interned %d compounds, want %d", c.src, grew, c.compounds)
		}
	}
}

func TestParseFactsRejects(t *testing.T) {
	cases := []struct{ src, want string }{
		{"up(a,b). p(X) :- q(X).", "1:10: p(X) :- q(X). is not a ground fact"},
		{"up(a,b).\nup(X,b).", "2:1: up(X,b). is not a ground fact"},
		{"up(a,b).\n?- up(a,Y).", "2:1: queries are not allowed in fact text"},
		{"p :- f(a) = X, not q(a).", "1:1: p :- f(a) = X, not q(a). is not a ground fact"},
		{"up(a,b). up(a", `1:14: expected ")", found end of input`},
		{"up(a,b) up(b,c).", `1:9: expected ".", found "up"`},
		{"up(a,@).", `1:6: unexpected character "@"`},
		{"n(2305843009213693952).", "1:3: integer 2305843009213693952 outside the supported range [−2^61, 2^61−1]"},
		{"n(-).", "1:4: expected integer after '-'"},
		{"l([-]).", "1:5: expected integer after '-'"},
		{"not(a).", `1:4: expected a term, found "("`},
		{"7.", "1:1: expected a literal"},
		// A bad byte is reported as such, not as the syntax fault it causes.
		{"X $.", `1:3: unexpected character "$"`},
		{"p(a) @", `1:6: unexpected character "@"`},
		{"p :- 7 $ 8.", `1:8: unexpected character "$"`},
		// `_`-leading identifiers and upper-case Latin-1 bytes are variables.
		{"_p(a).", "1:1: expected a literal"},
		{"p(_x).", "1:1: p(_x). is not a ground fact"},
		{"p(\xc9).", "1:1: p(\xc9). is not a ground fact"},
	}
	for _, c := range cases {
		b := newBank()
		_, err := collectFacts(b, c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("ParseFacts(%q) error = %v, want %s", c.src, err, c.want)
		}
		// The general parser reports syntax errors identically.
		if _, perr := Parse(newBank(), c.src); perr != nil && perr.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, ParseFacts said %s", c.src, perr, c.want)
		}
	}
}

func TestParseFactsSinkErrorStops(t *testing.T) {
	stop := errors.New("stop")
	n := 0
	err := ParseFacts(newBank(), "a(1). a(2). a(3).", func(symtab.Sym, []term.Value) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if err != stop || n != 2 {
		t.Errorf("err = %v after %d facts, want the sink's error after 2", err, n)
	}
}

// TestAtomsAreNotTerms: the general parser folds an atom into a compound
// only as the left side of an infix builtin.
func TestAtomsAreNotTerms(t *testing.T) {
	b := newBank()
	res, err := Parse(b, "up(a,b). sg(X,Y) :- up(X,a), not down(a,b). ?- sg(a,Y).")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("atoms interned %d compounds", b.Len())
	}
	res, err = Parse(b, "p(X) :- f(a) = X, not g(b) != c, q(h(1)).")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 { // f(a), g(b) as infix operands; h(1) as an argument
		t.Errorf("interned %d compounds, want 3", b.Len())
	}
	body := res.Program.Rules[0].Body
	if got := ast.FormatLiteral(b, body[0]); got != "f(a) = X" {
		t.Errorf("body[0] = %s", got)
	}
	if got := ast.FormatLiteral(b, body[1]); got != "not g(b) != c" {
		t.Errorf("body[1] = %s", got)
	}
}
