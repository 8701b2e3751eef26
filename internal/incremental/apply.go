package incremental

import (
	"context"
	"errors"
	"fmt"
	"maps"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Op is one ordered write operation: fact text to assert or retract.
type Op = database.Op

// ApplyResult reports the work one batch performed: a maintenance batch
// here, or a base-fact batch of lincount's Database.Apply, which fills
// only the first three fields.
type ApplyResult struct {
	// RetractedPerOp holds, for each retract op, how many of its facts
	// were present (under sequential semantics) when it executed; assert
	// ops report 0.
	RetractedPerOp []int
	// NetInserted and NetDeleted count the base facts that changed after
	// cancelling retract/re-assert pairs within the batch.
	NetInserted, NetDeleted int
	// DerivedAdded and DerivedRemoved count derived tuples that appeared
	// and disappeared.
	DerivedAdded, DerivedRemoved int
	// Overdeleted and Rederived count the deletion pass's traffic:
	// tuples provisionally deleted by the overdeletion sweep, and those
	// rederived because alternative derivations survive.
	Overdeleted, Rederived int
}

// Apply folds the ordered op batch into fork (a Fork of this
// materialisation's database, not yet written to) and returns the next
// epoch's materialisation. The receiver is never mutated; on error the
// fork may hold partial base writes and must be discarded. The batch's
// net effect is database.Simulate's, held to the program's arities too;
// a returned *database.OpError identifies the op to excise, and an
// *InternalError or resource limit means the caller should fall back to
// full re-evaluation.
func (m *Materialization) Apply(ctx context.Context, fork *database.Database, ops []Op) (*Materialization, *ApplyResult, error) {
	if fork.Bank() != m.bank {
		return nil, nil, fmt.Errorf("incremental: fork uses a different term bank")
	}
	check := limits.NewChecker(ctx, "incremental")
	b, err := fork.Simulate(ops, func(pred symtab.Sym, args []term.Value) error {
		if want, ok := m.arity[pred]; ok && want != len(args) {
			return fmt.Errorf("predicate %s used with arity %d and %d",
				m.bank.Symbols().String(pred), want, len(args))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := &ApplyResult{RetractedPerOp: b.RetractedPerOp, NetInserted: b.Inserted, NetDeleted: b.Deleted}
	for pred, n := range b.Created {
		if _, err := fork.Ensure(pred, n); err != nil {
			return nil, nil, err
		}
	}

	m2 := m.fork(fork)
	if res.NetInserted == 0 && res.NetDeleted == 0 {
		return m2, res, nil
	}

	a := &applier{
		m:        m2,
		fork:     fork,
		check:    check,
		netIns:   b.Ins,
		netDel:   b.Del,
		insOrder: b.InsOrder,
		delOrder: b.DelOrder,
		dead:     m.flags(),
		flips:    make(map[symtab.Sym][]database.RowID),
		owned:    make(map[symtab.Sym]bool),
		deleted:  make(map[symtab.Sym]*database.Relation),
		joiners:  make(map[int]*engine.Joiner),
		res:      res,
	}
	if b.Deleted > 0 {
		if err := a.deletePhase(); err != nil {
			return nil, nil, err
		}
	}
	if b.Inserted > 0 {
		if err := a.insertPhase(); err != nil {
			return nil, nil, err
		}
	}
	for p, ids := range a.flips {
		if set := m2.dead[p].flip(ids); set.count() > 0 {
			m2.dead[p] = set
		} else {
			delete(m2.dead, p)
		}
	}
	return m2, res, nil
}

// flags expands the dead sets into the executor's per-row dead flags, a
// fresh slice per relation, as long as the relation.
func (m *Materialization) flags() map[symtab.Sym][]bool {
	flags := make(map[symtab.Sym][]bool, len(m.dead))
	for p, set := range m.dead {
		flags[p] = set.flags(m.derived[p].Len())
	}
	return flags
}

// fork returns the next epoch's materialisation sharing every immutable
// piece with m; relations are replaced lazily (rebuild on compaction,
// clone on the epoch's first append), dead sets when a batch changes them.
func (m *Materialization) fork(db *database.Database) *Materialization {
	m2 := *m
	m2.db = db
	m2.derived = maps.Clone(m.derived)
	m2.dead = maps.Clone(m.dead)
	return &m2
}

// applier carries one batch's maintenance state.
type applier struct {
	m     *Materialization
	fork  *database.Database
	check *limits.Checker

	netIns, netDel     map[symtab.Sym]*database.Relation
	insOrder, delOrder []symtab.Sym

	// frozen is the previous epoch's dead rows as flags, the pre-batch
	// state the overdeletion runs read; nothing writes them.
	frozen map[symtab.Sym][]bool
	// dead flags the dead rows: for head predicates the rows of the
	// derived relation (the carried ones and those this batch deletes),
	// for EDB predicates the base rows this batch deletes until their
	// relations are rebuilt. Rows past a slice end and predicates absent
	// from the map are live.
	dead map[symtab.Sym][]bool
	// flips lists, per derived relation, the rows whose dead flag the
	// batch turned, to turn in the previous epoch's dead set: the rows it
	// killed and the carried ones it revived.
	flips map[symtab.Sym][]database.RowID
	// owned marks the derived relations this epoch may append to: those
	// compaction rebuilt and those the insertion phase cloned.
	owned map[symtab.Sym]bool
	// inserting is set once the insertion phase has begun: a derived row
	// outside the model is appended then, and a revived dead row is a new
	// fact rather than a rederived one.
	inserting bool
	// revived holds, per predicate, the dead rows the insertion phase
	// revived: besides the appended rows, the delta later components read.
	revived map[symtab.Sym]*database.Relation
	// deleted holds, per predicate, copies of the finally deleted tuples —
	// the delta feeding downstream components' deletion passes.
	deleted map[symtab.Sym]*database.Relation
	// joiners caches per-component joiners (deletion builds them; the
	// insertion sweep reuses them, reading the live derived map).
	joiners map[int]*engine.Joiner

	res *ApplyResult
}

// deadFor returns pred's dead flags, made n long if it has none.
func (a *applier) deadFor(pred symtab.Sym, n int) []bool {
	dead, ok := a.dead[pred]
	if !ok {
		dead = make([]bool, n)
		a.dead[pred] = dead
	}
	return dead
}

// own returns derived relation pred writable in this epoch: cloned, with
// append room, on the epoch's first append to it.
func (a *applier) own(pred symtab.Sym) *database.Relation {
	rel := a.m.derived[pred]
	if !a.owned[pred] {
		rel = rel.CloneWithRoom()
		a.m.derived[pred] = rel
		a.owned[pred] = true
	}
	return rel
}

func (a *applier) joiner(ci int) (*engine.Joiner, error) {
	if j, ok := a.joiners[ci]; ok {
		return j, nil
	}
	j, err := a.m.newJoiner(a.fork, a.m.comps[ci], a.check)
	if err != nil {
		return nil, err
	}
	a.joiners[ci] = j
	return j, nil
}

// deletePhase runs DRed component by component, then compacts the
// derived relations and applies the base retractions. Everything before
// compaction is logical: reads still see the pre-state rows, filtered
// through the dead flags.
func (a *applier) deletePhase() error {
	m := a.m
	a.frozen = m.flags()
	// Base deletions of pure-EDB predicates become dead base rows plus a
	// delta relation; head predicates are handled inside their component.
	for _, q := range a.delOrder {
		if m.headPred[q] {
			continue
		}
		base := a.fork.Relation(q)
		if base == nil {
			continue
		}
		dead := a.deadFor(q, base.Len())
		nd := a.netDel[q]
		for id := 0; id < nd.Len(); id++ {
			bid, ok := base.Find(nd.At(id))
			if !ok {
				return internalErrf("net-deleted %s tuple missing from base", m.bank.Symbols().String(q))
			}
			dead[bid] = true
		}
		a.deleted[q] = nd
	}

	for ci, comp := range m.comps {
		if !a.compAffected(comp) {
			continue
		}
		j, err := a.joiner(ci)
		if err != nil {
			return err
		}
		if err := a.dred(comp, j); err != nil {
			return err
		}
	}
	return a.compact()
}

// compAffected reports whether the deletion pass can touch this component:
// a base deletion of one of its head predicates, or a deleted delta on any
// body predicate.
func (a *applier) compAffected(comp engine.Component) bool {
	for _, p := range comp.Preds {
		if a.m.headPred[p] && a.netDel[p] != nil && a.m.derived[p] != nil {
			return true
		}
	}
	syms := a.m.bank.Symbols()
	for _, r := range comp.Rules {
		for _, l := range r.Body {
			if l.Negated || ast.IsBuiltinName(syms.String(l.Pred)) {
				continue
			}
			if d := a.deleted[l.Pred]; d != nil && d.Len() > 0 {
				return true
			}
		}
	}
	return false
}

// errSupported ends a rederivation check at its first solution.
var errSupported = errors.New("incremental: supported")

// dred maintains one component by overdelete/rederive: every row with
// some derivation through a deleted atom is marked dead, propagating
// within the component; then each dead row that still has support — a
// base row the batch keeps, a program fact, or a derivation over live
// rows — is revived, and the propagation loop revives what the revived
// rows support in turn. The rows still dead are the component's delta for
// downstream components.
func (a *applier) dred(comp engine.Component, j *engine.Joiner) error {
	m := a.m
	syms := m.bank.Symbols()
	over := make(map[symtab.Sym]*database.Relation)
	for _, p := range comp.Preds {
		if rel := m.derived[p]; rel != nil {
			over[p] = database.NewRelation(rel.Arity())
			a.deadFor(p, rel.Len())
		}
	}
	mark := func(p symtab.Sym) func(database.Tuple) error {
		rel, dead, o := m.derived[p], a.dead[p], over[p]
		return func(t database.Tuple) error {
			id, ok := rel.Find(t)
			if !ok {
				return internalErrf("overdeleted %s tuple missing from derived relation", syms.String(p))
			}
			if !dead[id] {
				dead[id] = true
				o.Insert(t)
				a.res.Overdeleted++
			}
			return nil
		}
	}

	// Overdeletion: base-support losses, then derivations through the
	// deleted rows of earlier components, closed over the component by
	// watermark rounds over the overdeleted rows. Reads see the old state
	// — the previous epoch's live rows, through the frozen flags, while
	// mark writes this epoch's — since DRed overdeletes over the old
	// state, and rederivation corrects the overestimate.
	for _, p := range comp.Preds {
		nd, rel := a.netDel[p], m.derived[p]
		if nd == nil || rel == nil {
			continue
		}
		markP := mark(p)
		for id := 0; id < nd.Len(); id++ {
			if err := markP(nd.At(id)); err != nil {
				return err
			}
		}
	}
	lo := make(map[symtab.Sym]database.RowID, len(over))
	next := func() map[symtab.Sym]engine.Delta {
		windows := make(map[symtab.Sym]engine.Delta)
		for p, o := range over {
			if hi := database.RowID(o.Len()); hi > lo[p] {
				windows[p] = engine.Delta{Rel: o, Lo: lo[p], Hi: hi}
				lo[p] = hi
			}
		}
		return windows
	}
	seed := next()
	for q, d := range a.deleted {
		seed[q] = engine.Delta{Rel: d, Hi: database.RowID(d.Len())}
	}
	if err := a.rounds(j, seed, engine.JoinConfig{Dead: a.frozen}, mark, next); err != nil {
		return err
	}

	// Rederivation: one prepared solve per rule, whose binding row is the
	// overdeleted tuple itself (the executor unifies it with the head),
	// reading live rows only; the first solution is support enough. A
	// revived row is live for the checks after it, which is sound: every
	// live row is in the new model.
	mt := engine.NewMatcher(m.bank, a.fork, m.derived)
	mt.SetChecker(a.check)
	mt.Dead = a.dead
	rulesFor := make(map[symtab.Sym][]*engine.PreparedSolve)
	for _, r := range comp.Rules {
		if r.IsFact() {
			continue
		}
		ps, err := mt.PrepareTerms(r.Body, r.Head.Args, nil, 0)
		if err != nil {
			return err
		}
		rulesFor[r.Head.Pred] = append(rulesFor[r.Head.Pred], ps)
	}
	supported := func(p symtab.Sym, t database.Tuple) (bool, error) {
		if base := a.fork.Relation(p); base != nil && base.Contains(t) && (a.netDel[p] == nil || !a.netDel[p].Contains(t)) {
			return true, nil
		}
		if fs := m.facts[p]; fs != nil && fs.Contains(t) {
			return true, nil
		}
		for _, ps := range rulesFor[p] {
			err := ps.Solve(t, func([]term.Value) error { return errSupported })
			if errors.Is(err, errSupported) {
				return true, nil
			}
			if err != nil {
				return false, err
			}
		}
		return false, nil
	}
	revived := make(map[symtab.Sym]engine.Delta)
	for _, p := range comp.Preds {
		o := over[p]
		if o == nil {
			continue
		}
		rel, dead := m.derived[p], a.dead[p]
		rev := database.NewRelation(rel.Arity())
		for oid := 0; oid < o.Len(); oid++ {
			if err := a.check.Tick(); err != nil {
				return err
			}
			t := o.At(oid)
			ok, err := supported(p, t)
			if err != nil {
				return err
			}
			if ok {
				id, _ := rel.Find(t)
				dead[id] = false
				rev.Insert(t)
				a.res.Rederived++
			}
		}
		if rev.Len() > 0 {
			revived[p] = engine.Delta{Rel: rev, Hi: database.RowID(rev.Len())}
		}
	}
	if err := a.propagate(comp, j, revived); err != nil {
		return err
	}

	for _, p := range comp.Preds {
		o := over[p]
		if o == nil {
			continue
		}
		rel, dead := m.derived[p], a.dead[p]
		for oid := 0; oid < o.Len(); oid++ {
			t := o.At(oid)
			if id, _ := rel.Find(t); dead[id] {
				a.deletedRel(p, rel.Arity()).Insert(t)
				a.res.DerivedRemoved++
				a.flips[p] = append(a.flips[p], id)
				m.total--
			}
		}
	}
	return nil
}

func (a *applier) deletedRel(pred symtab.Sym, arity int) *database.Relation {
	d, ok := a.deleted[pred]
	if !ok {
		d = database.NewRelation(arity)
		a.deleted[pred] = d
	}
	return d
}

// rounds runs one component's semi-naive loop: round 0 runs every delta
// variant whose predicate has a window in seed, each later round those
// over the windows next returns, until it returns none. sink gives the
// head sink of a predicate, once per round.
func (a *applier) rounds(j *engine.Joiner, seed map[symtab.Sym]engine.Delta, cfg engine.JoinConfig,
	sink func(symtab.Sym) func(database.Tuple) error, next func() map[symtab.Sym]engine.Delta) error {
	maxIter := a.m.opts.maxIter()
	for iter, delta := 0, seed; len(delta) > 0; iter, delta = iter+1, next() {
		if err := a.check.Check(); err != nil {
			return err
		}
		if iter >= maxIter {
			return &limits.ResourceLimitError{
				Kind: limits.KindIterations, Limit: int64(maxIter), Used: int64(iter), Component: "incremental",
			}
		}
		for i := 0; i < j.Rules(); i++ {
			out := sink(j.HeadPred(i))
			for occ := 0; occ < j.Variants(i); occ++ {
				if d, ok := delta[j.VariantPred(i, occ)]; !ok || d.Lo >= d.Hi {
					continue
				}
				if err := j.Run(i, occ, delta, cfg, out); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// propagate is the one propagation loop, shared by rederivation and
// insertion: the component's semi-naive fixpoint from the seed windows,
// reading live rows only. Its sink makes every derived head live (see
// makeLive): a revived row is read by the next round from a copy, an
// appended row as a window past the watermark. Every sink call is
// idempotent, so a derivation may be enumerated more than once.
func (a *applier) propagate(comp engine.Component, j *engine.Joiner, seed map[symtab.Sym]engine.Delta) error {
	m := a.m
	lo := make(map[symtab.Sym]database.RowID, len(comp.Preds))
	revived := make(map[symtab.Sym]*database.Relation, len(comp.Preds))
	for _, p := range comp.Preds {
		if rel := m.derived[p]; rel != nil {
			lo[p] = database.RowID(rel.Len())
			revived[p] = database.NewRelation(rel.Arity())
		}
	}
	live := func(p symtab.Sym) func(database.Tuple) error {
		rev := revived[p]
		return func(t database.Tuple) error {
			ok, err := a.makeLive(p, t)
			if ok {
				rev.Insert(t)
			}
			return err
		}
	}
	return a.rounds(j, seed, engine.JoinConfig{Dead: a.dead}, live, func() map[symtab.Sym]engine.Delta {
		delta := make(map[symtab.Sym]engine.Delta)
		for p, rev := range revived {
			rel := m.derived[p]
			hi := database.RowID(rel.Len())
			if hi > lo[p] {
				delta[p] = engine.Delta{Rel: rel, Lo: lo[p], Hi: hi}
			}
			if rev.Len() > 0 {
				// A predicate with revived and appended rows reads both
				// from the copy.
				for id := lo[p]; id < hi; id++ {
					rev.Insert(database.Tuple(rel.Row(id)))
				}
				delta[p] = engine.Delta{Rel: rev, Hi: database.RowID(rev.Len())}
				revived[p] = database.NewRelation(rel.Arity())
			}
			lo[p] = hi
		}
		return delta
	})
}

// makeLive makes t a live row of derived relation p and reports whether
// it revived a dead row. A live row is left alone; a dead one is revived
// — rederived while deleting, a new fact again while inserting; an absent
// one is appended while inserting, and is an invariant violation while
// deleting (every rederivation is of the previous model).
func (a *applier) makeLive(p symtab.Sym, t database.Tuple) (bool, error) {
	m := a.m
	rel := m.derived[p]
	id, ok := rel.Find(t)
	if !ok {
		if !a.inserting {
			return false, internalErrf("derived a %s tuple outside the previous model while deleting",
				m.bank.Symbols().String(p))
		}
		a.own(p).Insert(t)
		return false, a.noteDerived()
	}
	dead := a.dead[p]
	if int(id) >= len(dead) || !dead[id] {
		return false, nil
	}
	dead[id] = false
	if !a.inserting {
		a.res.Rederived++
		return true, nil
	}
	a.flips[p] = append(a.flips[p], id)
	rev := a.revived[p]
	if rev == nil {
		rev = database.NewRelation(rel.Arity())
		a.revived[p] = rev
	}
	rev.Insert(t)
	return true, a.noteDerived()
}

// noteDerived accounts one appended derived row against the fact budget.
func (a *applier) noteDerived() error {
	m := a.m
	m.total++
	if m.total > m.opts.maxFacts() {
		return &limits.ResourceLimitError{
			Kind: limits.KindFacts, Limit: m.opts.maxFacts(), Used: m.total, Component: "incremental",
		}
	}
	return nil
}

// compact finalises the deletion pass: a derived relation whose dead rows
// outgrow the append room over its live rows is rebuilt without them —
// so a relation is rebuilt once per AppendRoom of deletions, not once
// per batch, and the others carry their dead rows to the next epoch —
// and the net base retractions hit the fork in one batched rebuild per
// relation, which ends the base rows' flags.
func (a *applier) compact() error {
	m := a.m
	for pred, dead := range a.dead {
		if !m.headPred[pred] {
			continue
		}
		// The flips so far are the rows this batch killed.
		old := m.derived[pred]
		n := m.dead[pred].count() + len(a.flips[pred])
		if n <= database.AppendRoom(old.Len()-n) {
			continue
		}
		m.derived[pred] = old.RebuildWithout(func(id database.RowID) bool { return dead[id] })
		a.owned[pred] = true
		delete(m.dead, pred)
		delete(a.dead, pred)
		delete(a.flips, pred)
	}
	for _, q := range a.delOrder {
		if _, err := a.fork.RetractBatch(q, a.netDel[q].Tuples()); err != nil {
			return err
		}
		if !m.headPred[q] {
			delete(a.dead, q)
		}
	}
	return nil
}

// insertPhase applies the net base inserts to the fork and resumes the
// fixpoint of every affected component from the new-row windows.
func (a *applier) insertPhase() error {
	m := a.m
	total0 := m.total
	defer func() { a.res.DerivedAdded += int(m.total - total0) }()
	a.inserting = true
	a.revived = make(map[symtab.Sym]*database.Relation)

	// Base inserts. New rows of pure-EDB predicates become external delta
	// windows on the base relations; new rows of head predicates become
	// live in the derived relation (revived, or appended behind a single
	// watermark per predicate).
	loD := make(map[symtab.Sym]database.RowID, len(m.derived))
	for pred, rel := range m.derived {
		loD[pred] = database.RowID(rel.Len())
	}
	edbWin := make(map[symtab.Sym]engine.Delta)
	for _, q := range a.insOrder {
		ins := a.netIns[q]
		rel, err := a.fork.Ensure(q, ins.Arity())
		if err != nil {
			return err
		}
		lo := database.RowID(rel.Len())
		for id := 0; id < ins.Len(); id++ {
			rel.Insert(ins.At(id))
		}
		if m.headPred[q] {
			if m.derived[q] == nil {
				return internalErrf("head predicate %s has no derived relation", m.bank.Symbols().String(q))
			}
			for id := 0; id < ins.Len(); id++ {
				if _, err := a.makeLive(q, ins.At(id)); err != nil {
					return err
				}
			}
		} else {
			edbWin[q] = engine.Delta{Rel: rel, Lo: lo, Hi: database.RowID(rel.Len())}
		}
	}

	// Component sweep: round 0 of each component reads the new EDB rows,
	// the new live rows of earlier components' heads and its own base
	// inserts.
	// Components none of whose body predicates changed are skipped
	// entirely — the source of the small-delta speedup.
	syms := m.bank.Symbols()
	doneHi := make(map[symtab.Sym]database.RowID)
	for ci, comp := range m.comps {
		seed := make(map[symtab.Sym]engine.Delta)
		for _, r := range comp.Rules {
			for _, l := range r.Body {
				if l.Negated || ast.IsBuiltinName(syms.String(l.Pred)) {
					continue
				}
				q := l.Pred
				if w, ok := edbWin[q]; ok {
					seed[q] = w
				} else if hi, ok := doneHi[q]; ok {
					if d, ok := a.grown(q, loD[q], hi); ok {
						seed[q] = d
					}
				}
			}
		}
		for _, p := range comp.Preds {
			if rel := m.derived[p]; rel != nil {
				if d, ok := a.grown(p, loD[p], database.RowID(rel.Len())); ok {
					seed[p] = d
				}
			}
		}
		if len(seed) > 0 {
			joiner, err := a.joiner(ci)
			if err != nil {
				return err
			}
			if err := a.propagate(comp, joiner, seed); err != nil {
				return err
			}
		}
		for _, p := range comp.Preds {
			if rel := m.derived[p]; rel != nil {
				doneHi[p] = database.RowID(rel.Len())
			}
		}
	}
	return nil
}

// grown returns derived predicate p's insertion delta: its rows appended
// in [lo, hi) and, read from a copy with them, the dead rows the
// insertion phase revived.
func (a *applier) grown(p symtab.Sym, lo, hi database.RowID) (engine.Delta, bool) {
	rel, rev := a.m.derived[p], a.revived[p]
	if rev == nil {
		return engine.Delta{Rel: rel, Lo: lo, Hi: hi}, hi > lo
	}
	d := database.NewRelation(rel.Arity())
	for i := 0; i < rev.Len(); i++ {
		d.Insert(rev.At(i))
	}
	for id := lo; id < hi; id++ {
		d.Insert(database.Tuple(rel.Row(id)))
	}
	return engine.Delta{Rel: d, Hi: database.RowID(d.Len())}, true
}
