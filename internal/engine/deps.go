// Package engine implements bottom-up evaluation of Datalog programs:
// predicate dependency analysis, stratification, safety checking, and naive
// and semi-naive fixpoint computation with stratified negation and a small
// set of builtin predicates.
package engine

import (
	"fmt"
	"sort"

	"lincount/internal/ast"
	"lincount/internal/symtab"
)

// DepGraph is the predicate dependency graph of a program: an edge p → q
// for every rule with head p and body literal q.
type DepGraph struct {
	// adj[p] lists the distinct body predicates of p's rules.
	adj map[symtab.Sym][]symtab.Sym
	// derived is the set of head predicates.
	derived map[symtab.Sym]bool
}

// NewDepGraph builds the dependency graph of p. Builtin predicates are not
// graph nodes.
func NewDepGraph(p *ast.Program) *DepGraph {
	g := &DepGraph{
		adj:     make(map[symtab.Sym][]symtab.Sym),
		derived: make(map[symtab.Sym]bool),
	}
	syms := p.Bank.Symbols()
	seen := make(map[[2]symtab.Sym]bool)
	for _, r := range p.Rules {
		g.derived[r.Head.Pred] = true
		if _, ok := g.adj[r.Head.Pred]; !ok {
			g.adj[r.Head.Pred] = nil
		}
		for _, l := range r.Body {
			if ast.IsBuiltinName(syms.String(l.Pred)) {
				continue
			}
			e := [2]symtab.Sym{r.Head.Pred, l.Pred}
			if !seen[e] {
				seen[e] = true
				g.adj[r.Head.Pred] = append(g.adj[r.Head.Pred], l.Pred)
			}
		}
	}
	return g
}

// Component groups the mutually recursive predicates of one SCC together
// with the rules defining them.
type Component struct {
	// Preds lists the component's predicates, sorted by name.
	Preds []symtab.Sym
	// Rules lists the program rules whose head is in Preds, in program
	// order.
	Rules []ast.Rule
	// Recursive is true if the component has an internal dependency
	// (a genuinely recursive clique, as opposed to a lone non-recursive
	// predicate).
	Recursive bool
}

// Stratify computes the strongly connected components of the dependency
// graph in topological (bottom-up) order and verifies that no negated edge
// is internal to a component. It returns an error for non-stratified
// programs.
func Stratify(p *ast.Program) ([]Component, error) {
	g := NewDepGraph(p)
	syms := p.Bank.Symbols()

	// Deterministic node order: sorted by name.
	nodes := make([]symtab.Sym, 0, len(g.adj))
	for n := range g.adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		return syms.String(nodes[i]) < syms.String(nodes[j])
	})

	// Tarjan's SCC. Emits components in reverse topological order, i.e.
	// callees before callers, which is exactly bottom-up order.
	index := make(map[symtab.Sym]int)
	low := make(map[symtab.Sym]int)
	onStack := make(map[symtab.Sym]bool)
	var stack []symtab.Sym
	var comps [][]symtab.Sym
	counter := 0

	var strongconnect func(v symtab.Sym)
	strongconnect = func(v symtab.Sym) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.adj[v] {
			if !g.derived[w] {
				continue // base predicate: leaf, not a node
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []symtab.Sym
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}

	// Build Component values and check stratification.
	out := make([]Component, 0, len(comps))
	for _, c := range comps {
		sort.Slice(c, func(i, j int) bool {
			return syms.String(c[i]) < syms.String(c[j])
		})
		comp := Component{Preds: c}
		inComp := make(map[symtab.Sym]bool, len(c))
		for _, p := range c {
			inComp[p] = true
		}
		for _, r := range p.Rules {
			if !inComp[r.Head.Pred] {
				continue
			}
			comp.Rules = append(comp.Rules, r)
			for _, l := range r.Body {
				if !inComp[l.Pred] {
					continue
				}
				comp.Recursive = true
				if l.Negated {
					return nil, fmt.Errorf(
						"engine: program is not stratified: %s depends negatively on %s within a recursive clique",
						syms.String(r.Head.Pred), syms.String(l.Pred))
				}
			}
		}
		out = append(out, comp)
	}
	return out, nil
}
