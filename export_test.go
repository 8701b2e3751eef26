package lincount

import (
	"errors"

	"lincount/internal/ast"
	"lincount/internal/counting"
	"lincount/internal/parser"
)

// BankLen reports how many compound terms the program's bank holds: the
// handle tests use to show that flat facts leave no trace there.
func (p *Program) BankLen() int { return p.bank.Len() }

// ForceVerdict plants probe as the left-graph verdict of query over db in
// its current state, as if the planner had just probed it: the handle the
// stale-verdict test uses to make Auto believe something the data does
// not say. It fails when a current verdict is already cached.
func ForceVerdict(p *Program, db *Database, query string, probe counting.LeftGraphProbe) error {
	q, err := parser.ParseQuery(p.bank, query)
	if err != nil {
		return err
	}
	sh := p.sharedFor(ast.FormatQuery(p.bank, q), q, false)
	_, hit, err := sh.Verdict(db.db, func() (counting.LeftGraphProbe, error) { return probe, nil })
	if hit {
		return errors.New("a current verdict is already cached")
	}
	return err
}
