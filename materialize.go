package lincount

import (
	"context"

	"lincount/internal/database"
	"lincount/internal/incremental"
	"lincount/internal/parser"
)

// ErrNotIncremental reports that a program is outside the incrementally
// maintainable fragment (currently: any rule using negation). Callers
// should fall back to full re-evaluation (Eval) on updates.
var ErrNotIncremental = incremental.ErrNotIncremental

// WriteOp is one ordered write of an update batch: a set of facts to
// assert (Retract false) or retract (Retract true), as fact text in the
// LoadFacts format. The ordering within a batch is significant — a
// retract followed by a re-assert of the same fact in one batch leaves
// the fact present, exactly as if the ops were applied sequentially.
type WriteOp = database.Op

// WriteError reports that an op of an Apply batch was rejected (syntax
// error, non-fact clause, or arity mismatch): Index is the op's position
// in the batch, Err the parse or validation error, and Error() is Err's
// text. The whole batch is rejected; nothing was applied.
type WriteError = database.OpError

// ApplyInfo reports the work one Apply performed; Database.Apply fills
// RetractedPerOp, NetInserted and NetDeleted.
type ApplyInfo = incremental.ApplyResult

// Materialization is a fully materialised evaluation of a Program over
// one Database epoch — the minimal model as a set of facts — maintained
// incrementally: Apply produces the next epoch's Materialization from a
// batch of assert/retract ops without re-running the fixpoint, using
// DRed for deletions (overdelete every fact with a derivation through a
// deleted one, then rederive those that keep live support) and
// watermark-resumed semi-naive rounds for insertions.
//
// Like Database forks, materialisations form a linear single-writer
// chain: Apply never mutates its receiver, so superseded epochs keep
// serving concurrent readers until released.
type Materialization struct {
	owner *Program
	base  *Database
	mat   *incremental.Materialization
}

// Materialize evaluates p's rules over db to a fixpoint and returns the
// maintained materialisation. Returns ErrNotIncremental (wrapped) when
// the program uses features outside the maintainable fragment.
func (p *Program) Materialize(ctx context.Context, db *Database) (*Materialization, error) {
	if db.owner != p {
		return nil, ErrWrongDatabase
	}
	m, err := incremental.New(ctx, p.program, db.db, incremental.Options{})
	if err != nil {
		return nil, err
	}
	return &Materialization{owner: p, base: db, mat: m}, nil
}

// Apply runs one ordered batch of write ops through incremental
// maintenance and returns the next epoch's Materialization, whose
// Database is a fork of this epoch's with the batch applied. The
// receiver is not modified. The batch means what it means to
// Database.Apply; in addition, every fact must agree with the arity the
// program uses its predicate with. A rejected op fails the whole batch
// with a *WriteError and applies nothing.
func (m *Materialization) Apply(ctx context.Context, ops []WriteOp) (*Materialization, *ApplyInfo, error) {
	fork := m.base.Fork()
	m2, info, err := m.mat.Apply(ctx, fork.db, ops)
	if err != nil {
		return nil, nil, err
	}
	return &Materialization{owner: m.owner, base: fork, mat: m2}, info, nil
}

// Database returns the base-fact epoch this materialisation covers.
func (m *Materialization) Database() *Database { return m.base }

// DerivedFacts reports the number of derived tuples materialised.
func (m *Materialization) DerivedFacts() int64 { return m.mat.DerivedFacts() }

// Answers evaluates a query goal ("?- tc(a, X).") directly against the
// materialised relations — no fixpoint, no rewriting; cost is one scan
// or index probe of the goal's predicate. Rows are rendered exactly as
// Eval renders them, in the same order.
func (m *Materialization) Answers(goal string) ([][]string, error) {
	q, err := parser.ParseQuery(m.owner.bank, goal)
	if err != nil {
		return nil, err
	}
	return finishRows(m.owner, m.mat.Answers(q)), nil
}

// Verify evaluates the program from scratch over the same epoch and
// diffs every derived relation, as a set, against the maintained state.
// It is the maintenance oracle used by the chaos suites; cost is a full
// re-evaluation.
func (m *Materialization) Verify(ctx context.Context) error {
	return m.mat.Verify(ctx)
}
