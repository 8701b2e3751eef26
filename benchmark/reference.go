package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// answerSet identifies a set of answer rows independent of their order:
// the row count and the sum of the rows' hashes.
type answerSet struct {
	n   int
	sum uint64
}

func rowHash(row []string) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

func answersOf(rows [][]string) answerSet {
	s := answerSet{n: len(rows)}
	for _, r := range rows {
		s.sum += rowHash(r)
	}
	return s
}

// reference is the benchmark's oracle: the unrewritten program evaluated
// semi-naively to a full fixpoint over its own copy of the facts, from
// which any goal's answers are read. It shares nothing with the database,
// the server or the materialisation under test.
type reference struct {
	bank *term.Bank
	prog *ast.Program
	db   *database.Database
	res  *engine.Result
}

// newReference loads program and fact text, applies the net effect of the
// acked writes (present facts asserted, absent facts retracted) and runs
// the fixpoint.
func newReference(ctx context.Context, program, facts string, present, absent []string) (*reference, error) {
	bank := term.NewBank(symtab.New())
	parsed, err := parser.Parse(bank, program)
	if err != nil {
		return nil, fmt.Errorf("reference: parsing program: %w", err)
	}
	db := database.New(bank)
	if err := db.LoadText(facts); err != nil {
		return nil, fmt.Errorf("reference: loading facts: %w", err)
	}
	for _, f := range present {
		if err := db.LoadText(f); err != nil {
			return nil, fmt.Errorf("reference: asserting %s: %w", f, err)
		}
	}
	for _, f := range absent {
		if _, err := db.RetractText(f); err != nil {
			return nil, fmt.Errorf("reference: retracting %s: %w", f, err)
		}
	}
	res, err := engine.EvalContext(ctx, parsed.Program, db, engine.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference: semi-naive evaluation: %w", err)
	}
	return &reference{bank: bank, prog: parsed.Program, db: db, res: res}, nil
}

// answers reads a goal's rows off the fixpoint with one index probe on the
// goal's bound columns (a scan per goal would cost more than the whole
// measurement on the 800k-row workload).
func (r *reference) answers(goal string) (answerSet, error) {
	q, err := parser.ParseQuery(r.bank, goal)
	if err != nil {
		return answerSet{}, fmt.Errorf("reference: parsing %s: %w", goal, err)
	}
	var s answerSet
	rel := r.res.Relation(q.Goal.Pred)
	if rel == nil {
		return s, nil
	}
	var mask uint64
	var vals []term.Value
	for i, a := range q.Goal.Args {
		if a.Kind == ast.Const {
			mask |= 1 << uint(i)
			vals = append(vals, a.Value)
		}
	}
	row := make([]string, len(q.Goal.Args))
	it := rel.Probe(mask, vals)
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		for i, v := range rel.Row(id) {
			row[i] = r.bank.Format(v)
		}
		s.n++
		s.sum += rowHash(row)
	}
	return s, nil
}

func (r *reference) answersAll(goals []string) ([]answerSet, error) {
	out := make([]answerSet, len(goals))
	for i, g := range goals {
		var err error
		if out[i], err = r.answers(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}
