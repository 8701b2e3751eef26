package oracle

import (
	"fmt"
	"strings"
	"testing"

	"lincount"
	"lincount/internal/workload"
)

// The counting runtime's answers on the shapes that decide how its answer
// tuples may be shared between nodes: layered graphs where one path shape
// reaches every node, diamonds, shortcuts where shapes meet, cycles and a
// self-loop, two recursive rules, distinct shared values C_r, a bound head
// variable in the right part (D_r ≠ ∅), and right- and mixed-linear
// programs. Magic sets, whose correctness does not depend on the shape of
// the left graph, are the equivalence checker; the extended counting
// rewrite is a second one where it is safe (the list rewrite applies and
// the data is acyclic).

type classCase struct {
	name, program, facts, query string
	// rewrite: the list rewrite is safe on this program and the data is
	// acyclic, so Counting must agree too.
	rewrite bool
}

const boundRightProgram = `sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y,X).
`

// boundRightFacts is an up chain whose down arcs are tagged with the node
// they undo the step of; the wrongly tagged half must be filtered out.
func boundRightFacts(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(u%d,u%d). up(u%d,v%d). up(v%d,u%d).\n", i, i+1, i, i, i, i+1)
	}
	fmt.Fprintf(&sb, "flat(u%d,d%d).\n", n, n)
	for i := n; i > 0; i-- {
		fmt.Fprintf(&sb, "down(d%d,d%d,u%d). down(d%d,x%d,u%d). down(d%d,d%d,v%d).\n", i, i-1, i-1, i, i-1, i, i, i-1, i-1)
	}
	return sb.String()
}

// boundRightDiamonds is a chain of diamonds whose down arcs are tagged
// with the node they undo the step to, each leading somewhere else: the
// two nodes of a diamond's middle are reached along one path shape, but
// the answers a tuple at the diamond's bottom leads to depend on which of
// them it moves back to.
func boundRightDiamonds(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "up(m%d,a%d). up(m%d,b%d). up(a%d,m%d). up(b%d,m%d).\n", i, i, i, i, i, i+1, i, i+1)
		fmt.Fprintf(&sb, "down(y%d,p%d,a%d). down(y%d,q%d,b%d). down(p%d,y%d,m%d). down(q%d,w%d,m%d).\n",
			i+1, i, i, i+1, i, i, i, i, i, i, i, i)
	}
	fmt.Fprintf(&sb, "flat(m%d,y%d).\n", n, n)
	return sb.String()
}

// prefixIntoCycle is a layered grid prefix whose last layer feeds a cycle
// of the given length, with flat arcs on the cycle and down chains long
// enough to answer from every lap.
func prefixIntoCycle(depth, width, cycle int) string {
	var sb strings.Builder
	sb.WriteString(workload.Grid(depth, width))
	for j := 0; j < width; j++ {
		fmt.Fprintf(&sb, "up(u_%d_%d,c0).\n", depth, j)
	}
	for i := 0; i < cycle; i++ {
		fmt.Fprintf(&sb, "up(c%d,c%d).\n", i, (i+1)%cycle)
	}
	fmt.Fprintf(&sb, "flat(c0,e%d). flat(c1,e%d).\n", 4*cycle, 3*cycle)
	for i := 4 * cycle; i > 0; i-- {
		fmt.Fprintf(&sb, "down(e%d,e%d).\n", i, i-1)
	}
	return sb.String()
}

func classCases() []classCase {
	sg := workload.SGProgram
	rl := workload.RightLinearProgram
	mixed := workload.MixedLinearProgram
	return []classCase{
		{"cylinder", sg, workload.Cylinder(6, 8, 2), "?- sg(u_0_0,Y).", true},
		{"grid diamonds", sg, workload.Grid(5, 4), "?- sg(u_0_0,Y).", true},
		{"shortcut chain", sg, workload.ShortcutChain(12), "?- sg(v0,Y).", true},
		{"grid with a shortcut", sg, workload.Grid(5, 4) + "up(u_0_0,u_2_1).\n", "?- sg(u_0_0,Y).", true},
		{"cyclic chain", sg, workload.CyclicChain(20, 5), "?- sg(u0,Y).", false},
		{"prefix into a cycle", sg, prefixIntoCycle(3, 3, 4), "?- sg(u_0_0,Y).", false},
		{"self-loop", sg, "up(a,b). up(b,b). up(b,c). flat(c,f). flat(b,g). down(f,g). down(g,h). down(h,i).", "?- sg(a,Y).", false},
		{"random acyclic", sg, workload.Random(3, 14, 30, false), "?- sg(n0,Y).", true},
		{"random cyclic", sg, workload.Random(5, 12, 26, true), "?- sg(n0,Y).", false},
		{"two rules", workload.MultiRuleProgram(2), workload.MultiRule(9, 2) + "up1(u0,u1b). up2(u1b,u2).\n", "?- sg(u0,Y).", true},
		{"distinct shared values", workload.SGSharedVarProgram, workload.SharedVarChain(9) + "up(u0,u1,w2).\n", "?- sg(u0,Y).", true},
		{"bound head variable in the right part", boundRightProgram, boundRightFacts(5), "?- sg(u0,Y).", false},
		{"bound head variable on diamonds", boundRightProgram, boundRightDiamonds(3), "?- sg(m0,Y).", false},
		{"bound head variable, cyclic", boundRightProgram, boundRightFacts(4) + "up(u4,u1).\n", "?- sg(u0,Y).", false},
		{"right-linear chain", rl, workload.RightLinearChain(12, 3), "?- p(u0,Y).", true},
		{"right-linear grid", rl, workload.Grid(4, 3) + "flat(u_2_1,z). flat(u_4_0,y).\n", "?- p(u_0_0,Y).", true},
		{"right-linear cycle", rl, workload.RightLinearChain(12, 3) + "up(u9,u2). up(u5,u5). flat(u4,z).\n", "?- p(u0,Y).", false},
		{"right-linear with a repeated free variable", "p(X,Y,W) :- flat(X,Y,W).\np(X,Y,Y) :- up(X,X1), p(X1,Y,Y).\n",
			workload.RightLinearChain(6, 0) + "flat(u6,v,v). flat(u6,v,w). flat(u3,x,x). flat(u0,y,z).\n", "?- p(u0,Y,W).", true},
		{"mixed-linear", mixed, workload.RightLinearChain(8, 2) + "down(ans0,q1). down(q1,q2). flat(u3,r).\n", "?- p(u0,Y).", true},
		{"mixed-linear cycle", mixed, workload.RightLinearChain(8, 2) + "up(u7,u3). down(ans0,q1). down(q1,ans1). flat(u3,r).\n", "?- p(u0,Y).", false},
	}
}

// sameAsMagic evaluates query with magic sets and with each strategy and
// reports the first disagreement.
func sameAsMagic(p *lincount.Program, db *lincount.Database, query string, strategies ...lincount.Strategy) error {
	ref, err := lincount.Eval(p, db, query, lincount.Magic)
	if err != nil {
		return fmt.Errorf("magic: %w", err)
	}
	for _, s := range strategies {
		res, err := lincount.Eval(p, db, query, s)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		if missing, extra := diffAnswers(ref.Answers, res.Answers); len(missing)+len(extra) > 0 {
			return fmt.Errorf("%s against magic: missing %v, extra %v", s, missing, extra)
		}
	}
	return nil
}

func TestRuntimeClassesMatchMagic(t *testing.T) {
	for _, c := range classCases() {
		t.Run(c.name, func(t *testing.T) {
			p := lincount.MustParseProgram(c.program)
			db := lincount.NewDatabase(p)
			if err := db.LoadFacts(c.facts); err != nil {
				t.Fatal(err)
			}
			ref, err := lincount.Eval(p, db, c.query, lincount.Magic)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Answers) == 0 {
				t.Fatal("magic sets find no answer: the case checks nothing")
			}
			strategies := []lincount.Strategy{lincount.CountingRuntime}
			if c.rewrite {
				strategies = append(strategies, lincount.Counting)
			}
			if err := sameAsMagic(p, db, c.query, strategies...); err != nil {
				t.Error(err)
			}
		})
	}
}

// FuzzRuntimeClasses holds the runtime to magic sets on small random edge
// sets. The first byte picks the program (even: same-generation, odd:
// right-linear closure); the rest is read in pairs of node numbers
// (mod 6), dealt round-robin to the program's relations: up, flat, down
// for same-generation and up, up, flat for the closure. The query is
// bound to n0.
func FuzzRuntimeClasses(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		program, rels := workload.SGProgram, []string{"up", "flat", "down"}
		query := "?- sg(n0,Y)."
		if data[0]%2 == 1 {
			program, rels = workload.RightLinearProgram, []string{"up", "up", "flat"}
			query = "?- p(n0,Y)."
		}
		var facts strings.Builder
		for i := 1; i+1 < len(data) && i < 61; i += 2 {
			rel := rels[(i/2)%len(rels)]
			fmt.Fprintf(&facts, "%s(n%d,n%d).\n", rel, data[i]%6, data[i+1]%6)
		}
		p := lincount.MustParseProgram(program)
		db := lincount.NewDatabase(p)
		if err := db.LoadFacts(facts.String()); err != nil {
			t.Fatal(err)
		}
		if err := sameAsMagic(p, db, query, lincount.CountingRuntime); err != nil {
			t.Errorf("%v\nfacts:\n%s", err, facts.String())
		}
	})
}
