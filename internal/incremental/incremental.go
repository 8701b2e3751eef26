// Package incremental maintains materialised Datalog models under
// ordered assert/retract deltas without re-running the fixpoint, using
// counting-based maintenance (Hu–Motik–Horrocks style) on top of the
// engine's semi-naive join machinery.
//
// A Materialization pairs every derived relation with a parallel slice of
// derivation counts: counts[p][id] is the number of distinct rule-body
// instantiations deriving row id of predicate p, plus one unit of external
// support if the tuple is also present in the base (EDB) relation of p and
// one per program-fact occurrence. The counts are built by a counting
// fixpoint that enumerates every derivation exactly once: each round's
// delta windows are read under the windowed discipline (occurrences before
// the delta position see the new state, occurrences after it see the old
// state), so a derivation whose newest atom appears several times is
// counted at its last newest-atom body position only.
//
// Apply folds an ordered batch of +fact/-fact operations — the same record
// stream the server's WAL frames per epoch — into a new Materialization:
//
//   - The batch's net insert/delete sets and per-op retract counts come
//     from database.Simulate, the one batch semantics every write path
//     shares (equal to applying the ops one at a time).
//   - Deletions run component-by-component in stratification order. In a
//     non-recursive component the lost derivations are counted exactly
//     once (delta at the last deleted-atom position, later occurrences
//     restricted to survivors) and subtracted; rows reaching zero are
//     logically deleted. In a recursive component the classic
//     overcount/rederive (DRed) pass runs instead: every tuple with some
//     derivation through a deleted atom is overdeleted, then survivors are
//     rederived — a backward counting pass over the surviving rows
//     (Stage A) followed by a counting insertion fixpoint seeded with the
//     reinsertions (Stage B) rebuilds their exact counts.
//   - Deletion is logical throughout (a per-row state map: -1 dead,
//     0 original, g >= 1 rederived in round g); only after every component
//     is settled are the derived relations compacted with a single
//     capacity-reusing rebuild each and the base relations updated.
//   - Insertions then ride the ordinary watermark machinery: new base rows
//     become round-0 delta windows and each affected component resumes its
//     counting fixpoint from those windows.
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

// InternalError reports a violated maintenance invariant (a decremented
// count going negative, a derived tuple missing from its relation, ...).
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
	// (build, overdeletion, rederivation and insertion alike).
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

// Materialization is a materialised model of one program over one epoch
// database, with per-row derivation counts. It is immutable after New or
// Apply returns: Apply produces a fresh Materialization for the next epoch
// (sharing unchanged relations), so a published snapshot keeps serving
// concurrent readers while the writer maintains its successor.
type Materialization struct {
	bank     *term.Bank
	prog     *ast.Program
	comps    []engine.Component
	db       *database.Database
	headPred map[symtab.Sym]bool
	arity    map[symtab.Sym]int

	derived map[symtab.Sym]*database.Relation
	counts  map[symtab.Sym][]int64
	// factSeeds/factCounts record the program-fact support per head pred
	// (shared across epochs; the program is fixed).
	factSeeds  map[symtab.Sym]*database.Relation
	factCounts map[symtab.Sym][]int64

	opts  Options
	total int64 // derived rows across all relations, for the fact budget
}

// New builds the counting materialisation of prog over db (which may be
// nil for a program-facts-only model). It returns ErrNotIncremental for
// programs with negation.
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
		bank:       prog.Bank,
		prog:       prog,
		comps:      comps,
		db:         db,
		headPred:   make(map[symtab.Sym]bool),
		arity:      make(map[symtab.Sym]int),
		derived:    make(map[symtab.Sym]*database.Relation),
		counts:     make(map[symtab.Sym][]int64),
		factSeeds:  make(map[symtab.Sym]*database.Relation),
		factCounts: make(map[symtab.Sym][]int64),
		opts:       opts,
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
	}
	check := limits.NewChecker(ctx, "incremental")
	for _, comp := range m.comps {
		if err := m.buildComponent(comp, check); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ensureDerived returns the derived relation for pred, creating it (with a
// parallel counts slice) on first use.
func (m *Materialization) ensureDerived(pred symtab.Sym, arity int) (*database.Relation, error) {
	if rel, ok := m.derived[pred]; ok {
		if rel.Arity() != arity {
			return nil, fmt.Errorf("incremental: predicate %s used with arities %d and %d",
				m.bank.Symbols().String(pred), rel.Arity(), arity)
		}
		return rel, nil
	}
	rel := database.NewRelation(arity)
	m.derived[pred] = rel
	return rel, nil
}

// bump adjusts the derivation count of row id of pred: a freshly appended
// row gets an initial count, an existing one is incremented. The total
// derived-row budget is enforced here.
func (m *Materialization) bump(pred symtab.Sym, id database.RowID, added bool, n int64) error {
	if added {
		if int(id) != len(m.counts[pred]) {
			return internalErrf("counts for %s out of step with relation (row %d, %d counts)",
				m.bank.Symbols().String(pred), id, len(m.counts[pred]))
		}
		m.counts[pred] = append(m.counts[pred], n)
		m.total++
		if m.total > m.opts.maxFacts() {
			return &limits.ResourceLimitError{
				Kind: limits.KindFacts, Limit: m.opts.maxFacts(), Used: m.total, Component: "incremental",
			}
		}
		return nil
	}
	m.counts[pred][id] += n
	return nil
}

// emitInto returns the head-tuple sink that counts one derivation per
// emitted body solution for the given predicate.
func (m *Materialization) emitInto(pred symtab.Sym) func(database.Tuple) error {
	rel := m.derived[pred]
	return func(t database.Tuple) error {
		id, added := rel.InsertRow(t)
		return m.bump(pred, id, added, 1)
	}
}

// newJoiner compiles the component's rules with every positive non-builtin
// body predicate mutable, so variants exist for build windows, deletion
// deltas and insertion windows alike.
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

// buildComponent seeds and fixpoints one component, counting every
// derivation exactly once.
func (m *Materialization) buildComponent(comp engine.Component, check *limits.Checker) error {
	// Seed: program facts (with multiplicity) and base rows of head preds.
	for _, r := range comp.Rules {
		rel, err := m.ensureDerived(r.Head.Pred, r.Head.Arity())
		if err != nil {
			return err
		}
		if !r.IsFact() {
			continue
		}
		t := make(database.Tuple, len(r.Head.Args))
		for i, a := range r.Head.Args {
			t[i] = a.Value
		}
		fs, ok := m.factSeeds[r.Head.Pred]
		if !ok {
			fs = database.NewRelation(rel.Arity())
			m.factSeeds[r.Head.Pred] = fs
		}
		fid, fadded := fs.InsertRow(t)
		if fadded {
			m.factCounts[r.Head.Pred] = append(m.factCounts[r.Head.Pred], 1)
		} else {
			m.factCounts[r.Head.Pred][fid]++
		}
		id, added := rel.InsertRow(t)
		if err := m.bump(r.Head.Pred, id, added, 1); err != nil {
			return err
		}
	}
	for _, p := range comp.Preds {
		rel, ok := m.derived[p]
		if !ok || m.db == nil {
			continue
		}
		base := m.db.Relation(p)
		if base == nil {
			continue
		}
		if base.Arity() != rel.Arity() {
			return fmt.Errorf("incremental: predicate %s has arity %d in program but %d in database",
				m.bank.Symbols().String(p), rel.Arity(), base.Arity())
		}
		for id := database.RowID(0); int(id) < base.Len(); id++ {
			rid, added := rel.InsertRow(database.Tuple(base.Row(id)))
			if err := m.bump(p, rid, added, 1); err != nil {
				return err
			}
		}
	}

	joiner, err := m.newJoiner(m.db, comp, check)
	if err != nil {
		return err
	}
	if joiner.Rules() == 0 {
		return nil
	}
	inC := make(map[symtab.Sym]bool, len(comp.Preds))
	for _, p := range comp.Preds {
		inC[p] = true
	}

	// Rules with no in-component body occurrence read only frozen earlier
	// strata: one default-order pass enumerates each derivation once.
	for i := 0; i < joiner.Rules(); i++ {
		if hasVariantIn(joiner, i, inC) {
			continue
		}
		if err := joiner.Run(i, -1, nil, engine.JoinConfig{}, m.emitInto(joiner.HeadPred(i))); err != nil {
			return err
		}
	}

	// Counting fixpoint: round 0's delta is everything present so far
	// (seeds plus the default passes above); later rounds window the rows
	// appended in the previous round. The windowed read discipline makes
	// each round count its derivations exactly once.
	lo := make(map[symtab.Sym]database.RowID, len(comp.Preds))
	return m.countingRounds(joiner, comp, nil, lo, check)
}

// countingRounds runs the windowed counting fixpoint for one component:
// ext (optional) supplies external round-0 windows, lo holds the starting
// watermarks for the component's own predicates. Emitted heads append to
// the derived relations and advance the watermarks until quiescence.
func (m *Materialization) countingRounds(joiner *engine.Joiner, comp engine.Component,
	ext map[symtab.Sym]engine.Delta, lo map[symtab.Sym]database.RowID, check *limits.Checker) error {
	maxIter := m.opts.maxIter()
	for iter := 0; ; iter++ {
		if err := check.Check(); err != nil {
			return err
		}
		if iter >= maxIter {
			return &limits.ResourceLimitError{
				Kind: limits.KindIterations, Limit: int64(maxIter), Used: int64(iter), Component: "incremental",
			}
		}
		// Every component predicate enters the delta map each round — even
		// with an empty window — so that windowed reads of non-delta
		// occurrences stay bounded at the round's start watermarks. A raw
		// (unbounded) read would see rows appended earlier in the same
		// round and count their derivations twice: once now via this
		// variant and again next round via the appended rows' own window.
		delta := make(map[symtab.Sym]engine.Delta)
		progress := false
		if iter == 0 {
			for q, d := range ext {
				if d.Lo < d.Hi {
					delta[q] = d
					progress = true
				}
			}
		}
		for _, p := range comp.Preds {
			rel, ok := m.derived[p]
			if !ok {
				continue
			}
			hi := database.RowID(rel.Len())
			delta[p] = engine.Delta{Rel: rel, Lo: lo[p], Hi: hi}
			if hi > lo[p] {
				progress = true
			}
			lo[p] = hi
		}
		if !progress {
			return nil
		}
		cfg := engine.JoinConfig{Windowed: true}
		for i := 0; i < joiner.Rules(); i++ {
			emit := m.emitInto(joiner.HeadPred(i))
			for occ := 0; occ < joiner.Variants(i); occ++ {
				if d, ok := delta[joiner.VariantPred(i, occ)]; !ok || d.Lo >= d.Hi {
					continue
				}
				if err := joiner.Run(i, occ, delta, cfg, emit); err != nil {
					return err
				}
			}
		}
	}
}

// hasVariantIn reports whether compiled rule i has a delta variant over a
// predicate in the given set.
func hasVariantIn(j *engine.Joiner, i int, preds map[symtab.Sym]bool) bool {
	for occ := 0; occ < j.Variants(i); occ++ {
		if preds[j.VariantPred(i, occ)] {
			return true
		}
	}
	return false
}

// Bank returns the term bank.
func (m *Materialization) Bank() *term.Bank { return m.bank }

// Database returns the epoch database this materialisation matches.
func (m *Materialization) Database() *database.Database { return m.db }

// Program returns the maintained program.
func (m *Materialization) Program() *ast.Program { return m.prog }

// DerivedFacts returns the total number of derived rows.
func (m *Materialization) DerivedFacts() int64 { return m.total }

// Relation returns the materialised relation for pred, or nil.
func (m *Materialization) Relation(pred symtab.Sym) *database.Relation { return m.derived[pred] }

// Count returns the derivation count of t in pred's materialised relation
// (0 if absent).
func (m *Materialization) Count(pred symtab.Sym, t database.Tuple) int64 {
	rel, ok := m.derived[pred]
	if !ok {
		return 0
	}
	id, ok := rel.Find(t)
	if !ok {
		return 0
	}
	return m.counts[pred][id]
}

// Answers matches a query goal against the materialised relations (falling
// back to the base database for purely extensional goals), in the same
// deterministic order engine.Answers produces for a fresh evaluation.
func (m *Materialization) Answers(q ast.Query) []database.Tuple {
	return engine.Answers(engine.NewResult(m.bank, m.derived), m.db, q)
}

// Verify rebuilds the materialisation from scratch over the same database
// and diffs relations and derivation counts tuple-by-tuple. It returns a
// descriptive error on the first divergence — the maintenance oracle the
// chaos suites call after every batch.
func (m *Materialization) Verify(ctx context.Context) error {
	fresh, err := New(ctx, m.prog, m.db, m.opts)
	if err != nil {
		return fmt.Errorf("incremental: verify rebuild failed: %w", err)
	}
	syms := m.bank.Symbols()
	for pred, frel := range fresh.derived {
		mrel := m.derived[pred]
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
		for id := database.RowID(0); int(id) < frel.Len(); id++ {
			t := database.Tuple(frel.Row(id))
			mid, ok := mrel.Find(t)
			if !ok {
				return fmt.Errorf("incremental: verify: %s missing maintained tuple %s",
					syms.String(pred), formatTuple(m.bank, t))
			}
			if got, want := m.counts[pred][mid], fresh.counts[pred][id]; got != want {
				return fmt.Errorf("incremental: verify: %s%s has maintained count %d, from-scratch count %d",
					syms.String(pred), formatTuple(m.bank, t), got, want)
			}
		}
	}
	for pred, mrel := range m.derived {
		if fresh.derived[pred] == nil && mrel.Len() > 0 {
			return fmt.Errorf("incremental: verify: maintained state has unexpected relation %s", syms.String(pred))
		}
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
