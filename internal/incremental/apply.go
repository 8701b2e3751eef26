package incremental

import (
	"context"
	"fmt"

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
	// Overdeleted and Rederived count the deletion pass's traffic in
	// recursive components: tuples provisionally deleted by the
	// overcounting sweep, and those rederived because alternative
	// derivations survive.
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
		rowState: make(map[symtab.Sym][]int32),
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
	return m2, res, nil
}

// fork returns the next epoch's materialisation sharing every immutable
// piece with m; counts are copied (they mutate under maintenance) while
// relations are replaced lazily (rebuild on compaction, clone on append).
func (m *Materialization) fork(db *database.Database) *Materialization {
	m2 := &Materialization{
		bank:       m.bank,
		prog:       m.prog,
		comps:      m.comps,
		db:         db,
		headPred:   m.headPred,
		arity:      m.arity,
		derived:    make(map[symtab.Sym]*database.Relation, len(m.derived)),
		counts:     make(map[symtab.Sym][]int64, len(m.counts)),
		factSeeds:  m.factSeeds,
		factCounts: m.factCounts,
		opts:       m.opts,
		total:      m.total,
	}
	for p, rel := range m.derived {
		m2.derived[p] = rel
	}
	for p, c := range m.counts {
		// Room for the epoch's inserts: an exact copy is copied again by
		// the first new row.
		m2.counts[p] = append(make([]int64, 0, len(c)+len(c)/64+64), c...)
	}
	return m2
}

// applier carries one batch's maintenance state.
type applier struct {
	m     *Materialization
	fork  *database.Database
	check *limits.Checker

	netIns, netDel     map[symtab.Sym]*database.Relation
	insOrder, delOrder []symtab.Sym

	// rowState maps every row of every read relation to its deletion
	// lifecycle (-1 dead, 0 original, g >= 1 rederived in round g); preds
	// absent from the map are untouched. For head predicates the states
	// index the derived relation, for EDB predicates the base relation.
	rowState map[symtab.Sym][]int32
	// deleted holds, per predicate, copies of the finally deleted tuples —
	// the delta feeding downstream components' deletion passes.
	deleted map[symtab.Sym]*database.Relation
	// joiners caches per-component joiners (deletion builds them; the
	// insertion sweep reuses them, reading the live derived map).
	joiners map[int]*engine.Joiner

	res *ApplyResult
}

func (a *applier) state(pred symtab.Sym, n int) []int32 {
	st, ok := a.rowState[pred]
	if !ok {
		st = make([]int32, n)
		a.rowState[pred] = st
	}
	return st
}

func (a *applier) deletedRel(pred symtab.Sym, arity int) *database.Relation {
	d, ok := a.deleted[pred]
	if !ok {
		d = database.NewRelation(arity)
		a.deleted[pred] = d
	}
	return d
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

// deletePhase runs the counting/DRed deletion pass component by component,
// then compacts the derived relations and applies the base retractions.
// Everything before compaction is logical: reads still see the pre-state
// rows, filtered through rowState.
func (a *applier) deletePhase() error {
	m := a.m
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
		st := a.state(q, base.Len())
		nd := a.netDel[q]
		for id := database.RowID(0); int(id) < nd.Len(); id++ {
			t := database.Tuple(nd.Row(id))
			bid, ok := base.Find(t)
			if !ok {
				return internalErrf("net-deleted %s tuple missing from base", m.bank.Symbols().String(q))
			}
			st[bid] = -1
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
		if comp.Recursive {
			err = a.dredDelete(comp, j)
		} else {
			err = a.exactDelete(comp, j)
		}
		if err != nil {
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

// exactDelete maintains a non-recursive component by exact count
// decrements: every lost derivation (one with at least one deleted atom)
// is counted exactly once — the delta sits at the last deleted-atom
// position, earlier occurrences read the full old state (deleted atoms
// allowed), later occurrences are restricted to survivors.
func (a *applier) exactDelete(comp engine.Component, j *engine.Joiner) error {
	m := a.m
	for _, p := range comp.Preds {
		rel := m.derived[p]
		if rel == nil {
			continue
		}
		nd := a.netDel[p]
		if nd == nil {
			continue
		}
		// Base-support loss: the tuple stays derived while rules still
		// support it; only its external support unit goes away.
		for id := database.RowID(0); int(id) < nd.Len(); id++ {
			t := database.Tuple(nd.Row(id))
			did, ok := rel.Find(t)
			if !ok {
				return internalErrf("base-deleted %s tuple missing from derived relation",
					m.bank.Symbols().String(p))
			}
			m.counts[p][did]--
		}
	}
	cfg := engine.JoinConfig{RowState: a.rowState, FilterSuffix: true, SuffixBound: 0}
	for i := 0; i < j.Rules(); i++ {
		p := j.HeadPred(i)
		rel := m.derived[p]
		dec := func(t database.Tuple) error {
			did, ok := rel.Find(t)
			if !ok {
				return internalErrf("lost derivation of absent %s tuple", m.bank.Symbols().String(p))
			}
			m.counts[p][did]--
			return nil
		}
		for occ := 0; occ < j.Variants(i); occ++ {
			q := j.VariantPred(i, occ)
			d := a.deleted[q]
			if d == nil || d.Len() == 0 {
				continue
			}
			delta := map[symtab.Sym]engine.Delta{q: {Rel: d, Lo: 0, Hi: database.RowID(d.Len())}}
			if err := j.Run(i, occ, delta, cfg, dec); err != nil {
				return err
			}
		}
	}
	// Collect the zero-count rows: logically dead, and a delta for
	// downstream components.
	for _, p := range comp.Preds {
		rel := m.derived[p]
		if rel == nil {
			continue
		}
		st := a.state(p, rel.Len())
		for id := range m.counts[p] {
			c := m.counts[p][id]
			if c < 0 {
				return internalErrf("count of %s row %d went negative (%d)",
					m.bank.Symbols().String(p), id, c)
			}
			if c == 0 && st[id] == 0 {
				st[id] = -1
				a.deletedRel(p, rel.Arity()).Insert(rel.At(id))
				a.res.DerivedRemoved++
			}
		}
	}
	return nil
}

// dredDelete maintains a recursive component with overcount/rederive:
// overdelete every tuple with some derivation through a deleted atom
// (propagating transitively within the component), then rebuild the
// survivors' counts — Stage A counts each overdeleted tuple's derivations
// over surviving rows only (a backward pass through the Matcher), Stage B
// resumes a counting fixpoint seeded with the Stage-A reinsertions so
// derivations through other reinserted tuples are counted exactly once.
func (a *applier) dredDelete(comp engine.Component, j *engine.Joiner) error {
	m := a.m
	inC := make(map[symtab.Sym]bool, len(comp.Preds))
	for _, p := range comp.Preds {
		inC[p] = true
	}
	over := make(map[symtab.Sym]*database.Relation)
	for _, p := range comp.Preds {
		if rel := m.derived[p]; rel != nil {
			over[p] = database.NewRelation(rel.Arity())
			a.state(p, rel.Len())
		}
	}
	mark := func(p symtab.Sym) func(database.Tuple) error {
		rel := m.derived[p]
		st := a.rowState[p]
		o := over[p]
		return func(t database.Tuple) error {
			id, ok := rel.Find(t)
			if !ok {
				return internalErrf("overdeleted %s tuple missing from derived relation",
					m.bank.Symbols().String(p))
			}
			if st[id] == 0 {
				st[id] = -1
				o.Insert(t)
				a.res.Overdeleted++
			}
			return nil
		}
	}

	// Overdeletion seeds: base-support losses, then derivations through
	// deltas of earlier components. Reads are unfiltered — DRed closes
	// over the old state, and overcounting is corrected by rederivation.
	for _, p := range comp.Preds {
		nd := a.netDel[p]
		rel := m.derived[p]
		if nd == nil || rel == nil {
			continue
		}
		markP := mark(p)
		for id := database.RowID(0); int(id) < nd.Len(); id++ {
			if err := markP(database.Tuple(nd.Row(id))); err != nil {
				return internalErrf("base-deleted %s tuple missing from derived relation",
					m.bank.Symbols().String(p))
			}
		}
	}
	for i := 0; i < j.Rules(); i++ {
		markP := mark(j.HeadPred(i))
		for occ := 0; occ < j.Variants(i); occ++ {
			q := j.VariantPred(i, occ)
			if inC[q] {
				continue
			}
			d := a.deleted[q]
			if d == nil || d.Len() == 0 {
				continue
			}
			delta := map[symtab.Sym]engine.Delta{q: {Rel: d, Lo: 0, Hi: database.RowID(d.Len())}}
			if err := j.Run(i, occ, delta, engine.JoinConfig{}, markP); err != nil {
				return err
			}
		}
	}
	// Propagate within the component by watermark rounds over the
	// overdeletion relations.
	loO := make(map[symtab.Sym]database.RowID, len(comp.Preds))
	maxIter := m.opts.maxIter()
	for iter := 0; ; iter++ {
		if err := a.check.Check(); err != nil {
			return err
		}
		if iter >= maxIter {
			return &limits.ResourceLimitError{
				Kind: limits.KindIterations, Limit: int64(maxIter), Used: int64(iter), Component: "incremental",
			}
		}
		windows := make(map[symtab.Sym]engine.Delta)
		for _, p := range comp.Preds {
			o := over[p]
			if o == nil {
				continue
			}
			hi := database.RowID(o.Len())
			if hi > loO[p] {
				windows[p] = engine.Delta{Rel: o, Lo: loO[p], Hi: hi}
			}
			loO[p] = hi
		}
		if len(windows) == 0 {
			break
		}
		for i := 0; i < j.Rules(); i++ {
			markP := mark(j.HeadPred(i))
			for occ := 0; occ < j.Variants(i); occ++ {
				q := j.VariantPred(i, occ)
				w, ok := windows[q]
				if !ok {
					continue
				}
				delta := map[symtab.Sym]engine.Delta{q: w}
				if err := j.Run(i, occ, delta, engine.JoinConfig{}, markP); err != nil {
					return err
				}
			}
		}
	}

	if err := a.rederive(comp, j, over); err != nil {
		return err
	}

	// The rows still dead after rederivation are this component's delta
	// for downstream components.
	for _, p := range comp.Preds {
		o := over[p]
		rel := m.derived[p]
		if o == nil || rel == nil {
			continue
		}
		st := a.rowState[p]
		for id := database.RowID(0); int(id) < o.Len(); id++ {
			t := database.Tuple(o.Row(id))
			did, ok := rel.Find(t)
			if !ok {
				return internalErrf("overdeleted %s tuple vanished", m.bank.Symbols().String(p))
			}
			if st[did] == -1 {
				a.deletedRel(p, rel.Arity()).Insert(t)
				a.res.DerivedRemoved++
			}
		}
	}
	// Collapse surviving generations to "original alive": the generation
	// numbers only order rounds within this component's rederivation, and
	// downstream components' filters treat exactly state 0 as live.
	for _, p := range comp.Preds {
		st := a.rowState[p]
		for i, s := range st {
			if s >= 1 {
				st[i] = 0
			}
		}
	}
	return nil
}

// rederive rebuilds the counts of the overdeleted tuples that still hold.
func (a *applier) rederive(comp engine.Component, j *engine.Joiner, over map[symtab.Sym]*database.Relation) error {
	m := a.m
	syms := m.bank.Symbols()

	// Stage A: for each overdeleted tuple, count base/program support plus
	// rule derivations whose atoms are all survivors (rowState 0). Tuples
	// with a positive count are reinserted as generation 1; setting the
	// state immediately keeps later Stage-A counts blind to them, which is
	// exactly the all-survivor semantics.
	mt := engine.NewMatcher(m.bank, a.fork, m.derived)
	mt.SetChecker(a.check)
	mt.RowState = a.rowState
	mt.RowStateBound = 0
	// A rule's solve takes the tuple as its binding row: the executor
	// unifies it with the head's arguments (a tuple the head does not
	// match has no solutions) and counts the body's instantiations.
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
	reins := make(map[symtab.Sym]*database.Relation)
	for _, p := range comp.Preds {
		o := over[p]
		rel := m.derived[p]
		if o == nil || rel == nil {
			continue
		}
		st := a.rowState[p]
		base := a.fork.Relation(p)
		nd := a.netDel[p]
		for oid := database.RowID(0); int(oid) < o.Len(); oid++ {
			if err := a.check.Tick(); err != nil {
				return err
			}
			t := database.Tuple(o.Row(oid))
			did, ok := rel.Find(t)
			if !ok {
				return internalErrf("overdeleted %s tuple vanished", syms.String(p))
			}
			var c int64
			if base != nil && base.Contains(t) && (nd == nil || !nd.Contains(t)) {
				c++
			}
			if fs := m.factSeeds[p]; fs != nil {
				if fid, ok := fs.Find(t); ok {
					c += m.factCounts[p][fid]
				}
			}
			for _, ps := range rulesFor[p] {
				if err := ps.Solve(t, func([]term.Value) error { c++; return nil }); err != nil {
					return err
				}
			}
			if c > 0 {
				st[did] = 1
				m.counts[p][did] = c
				if reins[p] == nil {
					reins[p] = database.NewRelation(rel.Arity())
				}
				reins[p].Insert(t)
				a.res.Rederived++
			} else {
				m.counts[p][did] = 0
			}
		}
	}

	// Stage B: counting fixpoint over the reinsertions. Round g counts
	// derivations whose newest atom is generation g-1, once each: the
	// delta occurrence reads the round's reinsertion scratch, earlier
	// occurrences accept generations up to g-1, later ones up to g-2.
	prev := reins
	maxIter := m.opts.maxIter()
	for gen := int32(2); len(prev) > 0; gen++ {
		if err := a.check.Check(); err != nil {
			return err
		}
		if int(gen) > maxIter {
			return &limits.ResourceLimitError{
				Kind: limits.KindIterations, Limit: int64(maxIter), Used: int64(gen), Component: "incremental",
			}
		}
		next := make(map[symtab.Sym]*database.Relation)
		cfg := engine.JoinConfig{
			RowState:     a.rowState,
			FilterPrefix: true, PrefixBound: gen - 1,
			FilterSuffix: true, SuffixBound: gen - 2,
		}
		for i := 0; i < j.Rules(); i++ {
			p := j.HeadPred(i)
			rel := m.derived[p]
			st := a.rowState[p]
			recount := func(t database.Tuple) error {
				did, ok := rel.Find(t)
				if !ok {
					return internalErrf("rederived %s tuple missing from derived relation", syms.String(p))
				}
				switch {
				case st[did] == -1:
					st[did] = gen
					m.counts[p][did] = 1
					if next[p] == nil {
						next[p] = database.NewRelation(rel.Arity())
					}
					next[p].Insert(t)
					a.res.Rederived++
				case st[did] >= 1:
					m.counts[p][did]++
				default:
					return internalErrf("rederivation reached surviving %s tuple", syms.String(p))
				}
				return nil
			}
			for occ := 0; occ < j.Variants(i); occ++ {
				q := j.VariantPred(i, occ)
				rp := prev[q]
				if rp == nil || rp.Len() == 0 {
					continue
				}
				delta := map[symtab.Sym]engine.Delta{q: {Rel: rp, Lo: 0, Hi: database.RowID(rp.Len())}}
				if err := j.Run(i, occ, delta, cfg, recount); err != nil {
					return err
				}
			}
		}
		prev = next
	}
	return nil
}

// compact finalises the deletion pass: every derived relation with dead
// rows is rebuilt once (capacity-reusing, counts remapped), and the net
// base retractions hit the fork in one batched rebuild per relation.
func (a *applier) compact() error {
	m := a.m
	for pred, st := range a.rowState {
		if !m.headPred[pred] {
			continue
		}
		dead := false
		for _, s := range st {
			if s == -1 {
				dead = true
				break
			}
		}
		if !dead {
			continue
		}
		old := m.derived[pred]
		rebuilt := old.RebuildWithout(func(id database.RowID) bool { return st[id] == -1 })
		// m is this epoch's fork and owns its counts: filter in place.
		counts := m.counts[pred][:0]
		for id, c := range m.counts[pred][:old.Len()] {
			if st[id] != -1 {
				counts = append(counts, c)
			}
		}
		m.total -= int64(old.Len() - rebuilt.Len())
		m.derived[pred] = rebuilt
		m.counts[pred] = counts
	}
	for _, q := range a.delOrder {
		if _, err := a.fork.RetractBatch(q, a.netDel[q].Tuples()); err != nil {
			return err
		}
	}
	return nil
}

// insertPhase applies the net base inserts to the fork and resumes the
// counting fixpoint of every affected component from the new-row windows.
func (a *applier) insertPhase() error {
	m := a.m
	total0 := m.total
	defer func() { a.res.DerivedAdded += int(m.total - total0) }()

	// Clone-for-append any derived relation that was not already rebuilt
	// by compaction: the previous epoch's relations must stay immutable
	// under concurrent readers.
	owned := make(map[symtab.Sym]bool)
	for pred, st := range a.rowState {
		if !m.headPred[pred] {
			continue
		}
		for _, s := range st {
			if s == -1 {
				owned[pred] = true
				break
			}
		}
	}
	for pred, rel := range m.derived {
		if !owned[pred] {
			m.derived[pred] = rel.CloneForAppend()
		}
	}

	// Base inserts. New rows of pure-EDB predicates become external delta
	// windows on the base relations; new rows of head predicates append to
	// the derived relation (or just gain a unit of external support when
	// already derived) behind a single watermark per predicate.
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
		for id := database.RowID(0); int(id) < ins.Len(); id++ {
			rel.Insert(database.Tuple(ins.Row(id)))
		}
		if m.headPred[q] {
			drel := m.derived[q]
			if drel == nil {
				return internalErrf("head predicate %s has no derived relation", m.bank.Symbols().String(q))
			}
			for id := database.RowID(0); int(id) < ins.Len(); id++ {
				rid, added := drel.InsertRow(database.Tuple(ins.Row(id)))
				if err := m.bump(q, rid, added, 1); err != nil {
					return err
				}
			}
		} else {
			edbWin[q] = engine.Delta{Rel: rel, Lo: lo, Hi: database.RowID(rel.Len())}
		}
	}

	// Component sweep: round 0 of each component consumes the external
	// windows (new EDB rows, new rows of earlier components' heads, own
	// base inserts); later rounds are the ordinary windowed counting
	// fixpoint. Components none of whose body predicates changed are
	// skipped entirely — the source of the small-delta speedup.
	syms := m.bank.Symbols()
	doneHi := make(map[symtab.Sym]database.RowID)
	for ci, comp := range m.comps {
		ext := make(map[symtab.Sym]engine.Delta)
		for _, r := range comp.Rules {
			for _, l := range r.Body {
				if l.Negated || ast.IsBuiltinName(syms.String(l.Pred)) {
					continue
				}
				q := l.Pred
				if w, ok := edbWin[q]; ok {
					ext[q] = w
				} else if m.headPred[q] {
					if hi, ok := doneHi[q]; ok && hi > loD[q] {
						ext[q] = engine.Delta{Rel: m.derived[q], Lo: loD[q], Hi: hi}
					}
				}
			}
		}
		lo := make(map[symtab.Sym]database.RowID, len(comp.Preds))
		run := false
		for _, p := range comp.Preds {
			if rel := m.derived[p]; rel != nil {
				lo[p] = loD[p]
				if database.RowID(rel.Len()) > loD[p] {
					run = true
				}
			}
		}
		if run || len(ext) > 0 {
			joiner, err := a.joiner(ci)
			if err != nil {
				return err
			}
			if joiner.Rules() > 0 {
				if err := m.countingRounds(joiner, comp, ext, lo, a.check); err != nil {
					return err
				}
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
