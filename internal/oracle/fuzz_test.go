package oracle

import (
	"fmt"
	"strings"
	"testing"

	"lincount"
)

// FuzzOracle holds every strategy to magic sets and QSQ on small linear
// programs over a fixed schema, decoded from bytes by decodeOracleCase.
// Magic sets and QSQ are two independent references and must agree.
// Every other strategy whose gates pass, and Auto, must answer within the
// default budgets and equal them. The list-based counting rewrites are
// unsafe on cyclic data by design, so they are not run when the counting
// set the binding reaches has a cycle.
func FuzzOracle(f *testing.F) {
	for _, c := range boundHeadCases {
		f.Add(c.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeOracleCase(data)
		if !ok {
			return
		}
		p, err := lincount.ParseProgram(c.program)
		if err != nil {
			t.Fatalf("decoded program does not parse: %v\n%s", err, c)
		}
		db := lincount.NewDatabase(p)
		if err := db.LoadFacts(c.facts); err != nil {
			t.Fatalf("decoded facts do not load: %v\n%s", err, c)
		}
		ref, err := lincount.Eval(p, db, c.query, lincount.Magic)
		if err != nil {
			t.Fatalf("magic: %v\n%s", err, c)
		}
		cyclic := false
		if cs, err := lincount.CountingSet(p, db, c.query); err == nil {
			cyclic = strings.Contains(cs, "cycle(")
		}
		for _, s := range append(lincount.Strategies(), lincount.Auto) {
			if s == lincount.Magic || cyclic && listRewrite(s) {
				continue
			}
			res, err := lincount.Eval(p, db, c.query, s)
			if cl := Classify(err); cl == NotApplicable && s != lincount.Auto && s != lincount.QSQ {
				continue
			} else if cl != OK {
				t.Errorf("%s: %s: %v\n%s", s, cl, err, c)
				continue
			}
			if missing, extra := diffAnswers(ref.Answers, res.Answers); len(missing)+len(extra) > 0 {
				t.Errorf("%s against magic: missing %v, extra %v\n%s", s, missing, extra, c)
			}
		}
	})
}

// listRewrite reports whether s evaluates a list-based counting rewrite,
// which diverges on a cyclic counting set.
func listRewrite(s lincount.Strategy) bool {
	return s == lincount.CountingClassic || s == lincount.Counting || s == lincount.CountingReduced
}

// oracleCase is one decoded program, its facts and its bound query.
type oracleCase struct{ program, facts, query string }

func (c oracleCase) String() string {
	return fmt.Sprintf("program:\n%sfacts: %s\nquery: %s", c.program, c.facts, c.query)
}

// The schema: p(X,W,Y) is defined by the exit rule p(X,W,Y) :-
// flat(X,W,Y) and 1–3 linear recursive rules; the query binds p's first
// two arguments. The EDB relations are flat/3, up/2, down/2 and dx/3
// over the six nodes below; k is also the rules' constant.
var oracleNodes = [6]string{"a", "b", "c", "d", "e", "k"}

// decodeOracleCase reads data as: a rule-count byte (1 + b%3 rules),
// three bytes per recursive rule, two query bytes (the bound constants),
// then up to 16 facts of four bytes each (a relation, then its
// arguments). A rule's three bytes choose, in order:
//
//   - the head's second bound term (b%3: a distinct variable W, the
//     repeated X, the constant k) and whether the rule has the left part
//     up(X,X1) (b/3%2);
//   - the recursive literal's second bound term (b%3: W, a repeat of its
//     first bound term, k) and the head's free term (b/3%3: a distinct
//     variable Y, the repeated X, k);
//   - the right part (b%3: none, down(Z,Y), or dx(Z,Y,X), whose bound
//     head variable X makes D_r non-empty).
//
// A head that binds W while the body does not is unsafe, so the
// recursive literal then keeps W. It reports false when data is too
// short for its rules and query.
func decodeOracleCase(data []byte) (oracleCase, bool) {
	if len(data) < 1 {
		return oracleCase{}, false
	}
	n := 1 + int(data[0]%3)
	if len(data) < 1+3*n+2 {
		return oracleCase{}, false
	}
	var prog strings.Builder
	prog.WriteString("p(X,W,Y) :- flat(X,W,Y).\n")
	for r := 0; r < n; r++ {
		b := data[1+3*r : 4+3*r]
		headBound := [3]string{"W", "X", "k"}[b[0]%3]
		left, first := "", "X"
		if b[0]/3%2 == 1 {
			left, first = "up(X,X1), ", "X1"
		}
		recBound := [3]string{"W", first, "k"}[b[1]%3]
		if headBound == "W" {
			recBound = "W"
		}
		headFree := [3]string{"Y", "X", "k"}[b[1]/3%3]
		recFree, right := "Y", ""
		switch b[2] % 3 {
		case 1:
			recFree, right = "Z", ", down(Z,Y)"
		case 2:
			recFree, right = "Z", ", dx(Z,Y,X)"
		}
		fmt.Fprintf(&prog, "p(X,%s,%s) :- %sp(%s,%s,%s)%s.\n", headBound, headFree, left, first, recBound, recFree, right)
	}
	data = data[1+3*n:]
	node := func(b byte) string { return oracleNodes[int(b)%len(oracleNodes)] }
	query := fmt.Sprintf("?- p(%s,%s,Y).", node(data[0]), node(data[1]))
	var facts []string
	for rest := data[2:]; len(rest) >= 4 && len(facts) < 16; rest = rest[4:] {
		switch rest[0] % 4 {
		case 0:
			facts = append(facts, fmt.Sprintf("flat(%s,%s,%s).", node(rest[1]), node(rest[2]), node(rest[3])))
		case 1:
			facts = append(facts, fmt.Sprintf("up(%s,%s).", node(rest[1]), node(rest[2])))
		case 2:
			facts = append(facts, fmt.Sprintf("down(%s,%s).", node(rest[1]), node(rest[2])))
		default:
			facts = append(facts, fmt.Sprintf("dx(%s,%s,%s).", node(rest[1]), node(rest[2]), node(rest[3])))
		}
	}
	return oracleCase{program: prog.String(), facts: strings.Join(facts, " "), query: query}, true
}

// TestOracleSeedsDecode: FuzzOracle's seeds are TestBoundHeadPatterns'
// programs and queries.
func TestOracleSeedsDecode(t *testing.T) {
	for _, c := range boundHeadCases {
		got, ok := decodeOracleCase(c.seed)
		if !ok || got.program != c.program || got.query != c.query {
			t.Errorf("%s: seed decodes to\n%s", c.name, got)
		}
	}
}
