// Package incremental maintains materialised Datalog models under
// ordered assert/retract deltas without re-running the fixpoint, by DRed
// (delete/rederive, as in Hu, Motik & Horrocks) on top of the engine's
// semi-naive join machinery.
//
// A Materialization is a set of facts: the live rows of its derived
// relations are the program's minimal model, built by engine.EvalContext.
// Apply folds an ordered batch of +fact/-fact operations — the same record
// stream the server's WAL frames per epoch — into a new Materialization:
//
//   - The batch's net insert/delete sets, and how many facts each retract
//     op removed, come from database.Simulate, the one batch semantics
//     every write path shares (equal to applying the ops one at a time).
//   - Deletions run DRed component by component in stratification order:
//     every row with some derivation through a deleted atom is marked
//     dead (overdeletion), the dead rows that keep a derivation over live
//     rows, a surviving base row or a program fact are revived, and the
//     propagation loop revives what they support in turn.
//   - Deletion of derived rows is logical throughout: a per-row dead bit,
//     carried from epoch to epoch, and every read skips the rows it marks.
//     After every component is settled, a relation whose dead rows
//     outgrow database.AppendRoom over its live rows is compacted with
//     one capacity-reusing rebuild; the others keep theirs, so a batch
//     pays for its delta, not for the relations it touches. The base
//     relations are updated.
//   - Insertions run the same propagation loop: new base rows become
//     round-0 delta windows and each affected component resumes its
//     semi-naive fixpoint from them. A derived row that becomes true
//     again revives its dead row; a new one is appended to a relation
//     cloned, with append room, on the epoch's first append to it.
//
// Programs with negation are rejected with ErrNotIncremental; callers
// (the server) fall back to full re-evaluation. Any violated internal
// invariant surfaces as an InternalError rather than silent corruption,
// which callers likewise treat as a full-re-evaluation signal.
package incremental

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// ErrNotIncremental marks programs the maintenance engine refuses to
// maintain (currently: any rule with a negated literal). Callers should
// fall back to full re-evaluation.
var ErrNotIncremental = errors.New("incremental: program is not incrementally maintainable")

// InternalError reports a violated maintenance invariant (a derived
// tuple missing from its relation, ...).
// The materialisation that produced it must be discarded; callers should
// rebuild from scratch.
type InternalError struct{ Msg string }

func (e *InternalError) Error() string { return "incremental: invariant violation: " + e.Msg }

func internalErrf(format string, args ...any) error {
	return &InternalError{Msg: fmt.Sprintf(format, args...)}
}

// Options bound the maintenance fixpoints.
type Options struct {
	// MaxIterations caps rounds within one component fixpoint
	// (build, overdeletion and propagation alike).
	// 0 means engine.DefaultMaxIterations.
	MaxIterations int
	// MaxDerivedFacts caps the total number of derived rows across all
	// relations. 0 means engine.DefaultMaxDerivedFacts.
	MaxDerivedFacts int64
}

func (o Options) maxIter() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return engine.DefaultMaxIterations
}

func (o Options) maxFacts() int64 {
	if o.MaxDerivedFacts > 0 {
		return o.MaxDerivedFacts
	}
	return int64(engine.DefaultMaxDerivedFacts)
}

// eval computes prog's minimal model over db from scratch under the same
// budgets: the build and Verify's reference.
func (o Options) eval(ctx context.Context, prog *ast.Program, db *database.Database) (*engine.Result, error) {
	return engine.EvalContext(ctx, prog, db, engine.Options{
		MaxIterations: o.MaxIterations, MaxDerivedFacts: int(o.MaxDerivedFacts),
	})
}

// Materialization is a materialised model of one program over one epoch
// database. It is immutable after New or Apply returns: Apply produces a
// fresh Materialization for the next epoch (sharing unchanged relations),
// so a published snapshot keeps serving concurrent readers while the
// writer maintains its successor.
type Materialization struct {
	bank     *term.Bank
	prog     *ast.Program
	comps    []engine.Component
	db       *database.Database
	headPred map[symtab.Sym]bool
	arity    map[symtab.Sym]int

	derived map[symtab.Sym]*database.Relation
	// dead holds, per derived relation that has any, its dead rows: rows
	// a retraction took out of the model, kept until the relation is
	// compacted. Apply writes a new set for the next epoch; an epoch's
	// sets never change.
	dead map[symtab.Sym]deadSet
	// facts holds each head predicate's program facts: support no
	// retraction takes away (shared across epochs; the program is fixed).
	facts map[symtab.Sym]*database.Relation

	opts  Options
	total int64 // live derived rows across all relations, for the fact budget
}

// New builds the materialisation of prog over db (which may be nil for a
// program-facts-only model) with the engine's fixpoint. It returns
// ErrNotIncremental for programs with negation.
func New(ctx context.Context, prog *ast.Program, db *database.Database, opts Options) (*Materialization, error) {
	if db != nil && db.Bank() != prog.Bank {
		return nil, errors.New("incremental: program and database use different term banks")
	}
	syms := prog.Bank.Symbols()
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Negated {
				return nil, fmt.Errorf("%w: rule %s uses negation",
					ErrNotIncremental, ast.FormatRule(prog.Bank, r))
			}
		}
	}
	comps, err := engine.Stratify(prog)
	if err != nil {
		return nil, err
	}
	m := &Materialization{
		bank:     prog.Bank,
		prog:     prog,
		comps:    comps,
		db:       db,
		headPred: make(map[symtab.Sym]bool),
		arity:    make(map[symtab.Sym]int),
		dead:     make(map[symtab.Sym]deadSet),
		facts:    make(map[symtab.Sym]*database.Relation),
		opts:     opts,
	}
	note := func(pred symtab.Sym, n int) error {
		if ast.IsBuiltinName(syms.String(pred)) {
			return nil
		}
		if prev, ok := m.arity[pred]; ok && prev != n {
			return fmt.Errorf("incremental: predicate %s used with arities %d and %d",
				syms.String(pred), prev, n)
		}
		m.arity[pred] = n
		return nil
	}
	for _, r := range prog.Rules {
		m.headPred[r.Head.Pred] = true
		if err := note(r.Head.Pred, r.Head.Arity()); err != nil {
			return nil, err
		}
		for _, l := range r.Body {
			if err := note(l.Pred, l.Arity()); err != nil {
				return nil, err
			}
		}
		if r.IsFact() {
			fs := m.facts[r.Head.Pred]
			if fs == nil {
				fs = database.NewRelation(r.Head.Arity())
				m.facts[r.Head.Pred] = fs
			}
			t := make(database.Tuple, len(r.Head.Args))
			for i, a := range r.Head.Args {
				t[i] = a.Value
			}
			fs.Insert(t)
		}
	}
	res, err := opts.eval(ctx, prog, db)
	if err != nil {
		return nil, err
	}
	m.derived, m.total = res.Derived, res.Stats.DerivedFacts
	return m, nil
}

// newJoiner compiles the component's rules with every positive non-builtin
// body predicate mutable, so variants exist for deletion deltas and
// propagation windows alike.
func (m *Materialization) newJoiner(db *database.Database, comp engine.Component, check *limits.Checker) (*engine.Joiner, error) {
	syms := m.bank.Symbols()
	mutable := make(map[symtab.Sym]bool)
	for _, r := range comp.Rules {
		for _, l := range r.Body {
			if !l.Negated && !ast.IsBuiltinName(syms.String(l.Pred)) {
				mutable[l.Pred] = true
			}
		}
	}
	return engine.NewJoiner(m.bank, db, m.derived, comp.Rules, mutable, check)
}

// Bank returns the term bank.
func (m *Materialization) Bank() *term.Bank { return m.bank }

// Database returns the epoch database this materialisation matches.
func (m *Materialization) Database() *database.Database { return m.db }

// Program returns the maintained program.
func (m *Materialization) Program() *ast.Program { return m.prog }

// DerivedFacts returns the total number of live derived rows.
func (m *Materialization) DerivedFacts() int64 { return m.total }

// Relation returns the materialised relation for pred, or nil. A relation
// that carries dead rows is returned as a compacted copy (O(relation)).
func (m *Materialization) Relation(pred symtab.Sym) *database.Relation {
	rel, dead := m.derived[pred], m.dead[pred]
	if dead == nil {
		return rel
	}
	return rel.RebuildWithout(dead.has)
}

// Answers matches a query goal against the materialised relations (falling
// back to the base database for purely extensional goals), in no
// particular order. The goal's dead rows are filtered out of the answers.
func (m *Materialization) Answers(q ast.Query) []database.Tuple {
	out := engine.Answers(engine.NewResult(m.bank, m.derived), m.db, q)
	dead := m.dead[q.Goal.Pred]
	if dead == nil {
		return out
	}
	rel, live := m.derived[q.Goal.Pred], out[:0]
	for _, t := range out {
		if id, _ := rel.Find(t); !dead.has(id) {
			live = append(live, t)
		}
	}
	return live
}

// deadSet is one relation's dead rows, a bit per row id; the rows past
// its end are live.
type deadSet []uint64

func (d deadSet) has(id database.RowID) bool {
	w := int(id) >> 6
	return w < len(d) && d[w]&(1<<(uint(id)&63)) != 0
}

func (d deadSet) count() int {
	n := 0
	for _, w := range d {
		n += bits.OnesCount64(w)
	}
	return n
}

// flip returns a copy of d with the bits of ids turned.
func (d deadSet) flip(ids []database.RowID) deadSet {
	hi := len(d)
	for _, id := range ids {
		hi = max(hi, int(id)>>6+1)
	}
	out := make(deadSet, hi)
	copy(out, d)
	for _, id := range ids {
		out[id>>6] ^= 1 << (uint(id) & 63)
	}
	return out
}

// flags expands d into the executor's dead flags over n rows.
func (d deadSet) flags(n int) []bool {
	flags := make([]bool, n)
	for i, w := range d {
		for ; w != 0; w &= w - 1 {
			flags[i<<6+bits.TrailingZeros64(w)] = true
		}
	}
	return flags
}

// Verify evaluates the program from scratch over the same database with
// engine.EvalContext and diffs the derived relations as sets. It returns
// a descriptive error on the first divergence — the maintenance oracle
// the chaos suites call after every batch.
func (m *Materialization) Verify(ctx context.Context) error {
	fresh, err := m.opts.eval(ctx, m.prog, m.db)
	if err != nil {
		return fmt.Errorf("incremental: verify rebuild failed: %w", err)
	}
	syms := m.bank.Symbols()
	var total int64
	for pred, frel := range fresh.Derived {
		mrel := m.Relation(pred)
		if mrel == nil {
			if frel.Len() == 0 {
				continue
			}
			return fmt.Errorf("incremental: verify: relation %s missing from maintained state", syms.String(pred))
		}
		if mrel.Len() != frel.Len() {
			return fmt.Errorf("incremental: verify: %s has %d maintained tuples, %d from scratch",
				syms.String(pred), mrel.Len(), frel.Len())
		}
		for id := 0; id < frel.Len(); id++ {
			if t := frel.At(id); !mrel.Contains(t) {
				return fmt.Errorf("incremental: verify: %s missing maintained tuple %s",
					syms.String(pred), formatTuple(m.bank, t))
			}
		}
		total += int64(mrel.Len())
	}
	for pred := range m.derived {
		if fresh.Derived[pred] == nil && m.Relation(pred).Len() > 0 {
			return fmt.Errorf("incremental: verify: maintained state has unexpected relation %s", syms.String(pred))
		}
	}
	if m.total != total {
		return fmt.Errorf("incremental: verify: DerivedFacts is %d, the relations hold %d", m.total, total)
	}
	return nil
}

func formatTuple(bank *term.Bank, t database.Tuple) string {
	out := "("
	for i, v := range t {
		if i > 0 {
			out += ","
		}
		out += bank.Format(v)
	}
	return out + ")"
}
