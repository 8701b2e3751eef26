package engine

// Rule-body execution. ruleExec is the one executor: the fixpoint loops,
// the incremental engine's Joiner, Matcher/PreparedSolve and Answers all
// evaluate a rule body by running one. Each body ordering is a pipeline
// of streaming operators, one per literal, connected by batches of
// binding frames. The source operator consumes the delta as a RowID
// range; every relation operator instantiates the probe keys for a whole
// input batch, resolves them in one ProbeRangeBatch against a cached,
// pre-sized index handle, and extends the surviving frames; builtins and
// negations are batch filters; the last operator instantiates head tuples
// and hands each to the run's sink callback.
//
// What a run may read is fixed by begin before the first frame moves:
// every relation operator gets a RowID window [lo, hi) — the delta window
// or the relation's length at that instant — and optionally a dead-row
// filter (JoinConfig.Dead), consulted as rows are read. Rows appended
// during the run lie past every window, which is what makes the cached index handles sound and
// lets a sink insert into a relation the run is reading. Each operator
// preserves its input order and expands matches in ascending RowID order,
// so the sink sees body instantiations in the nested-loop order of the
// body ordering (see docs/INTERNALS.md § Batched execution pipeline).
//
// Solutions reach the sink up to a batch late. A sink must therefore not
// hide anything the same run still reads inside its windows and filters
// (docs/INTERNALS.md § Incremental maintenance lists why each caller's
// sink qualifies), and must not re-enter the ruleExec it is called from.

import (
	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

const (
	// batchFrames is the operator batch size: how many binding frames a
	// level buffers before pushing them downstream. Large enough to
	// amortize per-batch costs, small enough to stay cache-resident.
	// Buffers start at minFrames and grow eightfold on demand up to this
	// cap, so a run that sees a handful of frames (one Solve, one
	// maintained row) never pays for a batch it does not fill.
	batchFrames = 256
	minFrames   = 4
)

// Integer bounds of the 62-bit term.Value encoding: at the boundary succ
// fails instead of overflowing.
const (
	succMaxInt = 1<<61 - 1
	succMinInt = -(1 << 61)
)

// execLevel is the runtime state of one pipeline operator: the per-run
// source resolution (relation, RowID window, dead-row filter, index
// handle) and the reusable batch buffers.
type execLevel struct {
	// Resolved by begin() each run.
	rel    *database.Relation
	lo, hi database.RowID
	// dead, when non-nil, hides the rows this operator reads whose flag
	// is set; rows past the slice end are live.
	dead []bool
	// Index handle cache, revalidated by relation identity.
	ixRel *database.Relation
	ix    database.Index
	// checkArgs lists the argument positions not covered by probeMask —
	// the ones a matched row must still be unified on (masked positions
	// are equal by index construction and are skipped).
	checkArgs []int
	// probeArgs lists the argument positions covered by probeMask, in
	// ascending order (the key column order). When every one of them is
	// a plain variable, probeSlots holds their frame slots and the key
	// loop skips pattern dispatch entirely.
	probeArgs  []int
	probeSlots []int
	// out buffers this operator's output frames, outN of them, nslots
	// values each; it grows on demand up to batchFrames frames.
	out  []term.Value
	outN int
	// keys holds the batch's probe keys (relation ops) or one negation
	// probe tuple; matches is the ProbeRangeBatch result buffer.
	keys    []term.Value
	matches []database.RowMatch
}

// hidden reports whether the dead-row filter hides row id from this
// operator; with no filter armed it is one failed length compare.
func (lv *execLevel) hidden(id database.RowID) bool {
	return int(id) < len(lv.dead) && lv.dead[id]
}

// slot returns the output frame after the operator's last buffered one.
func (lv *execLevel) slot(ns int) []term.Value {
	end := (lv.outN + 1) * ns
	if end > len(lv.out) {
		lv.grow(ns)
	}
	return lv.out[end-ns : end]
}

// grow enlarges the output buffer eightfold (4 → 32 → 256 frames),
// keeping the buffered frames.
func (lv *execLevel) grow(ns int) {
	n := 8 * len(lv.out)
	if n < minFrames*ns {
		n = minFrames * ns
	}
	if n > batchFrames*ns {
		n = batchFrames * ns
	}
	out := make([]term.Value, n)
	copy(out, lv.out[:lv.outN*ns])
	lv.out = out
}

// ruleExec is the per-evaluation execution state of one rule variant's
// pipeline. It is reused across runs (buffers amortized) and owned by
// exactly one goroutine.
type ruleExec struct {
	ev           *evaluator
	cr           *compiledRule
	deltaOcc     int
	order        []compiledLit
	deltaBodyIdx int
	nslots       int
	levels       []execLevel
	frame0       []term.Value
	headTup      []term.Value
	// empty marks a run whose source or some relation literal resolved
	// to an empty window: no output is possible.
	empty bool
	// callerRows marks a pipeline whose delta occurrence has no relation
	// behind it: the caller hands its rows to runRows (PreparedSolve).
	callerRows bool
}

func newRuleExec(ev *evaluator, cr *compiledRule, deltaOcc int) *ruleExec {
	order, dbi := cr.orderFor(deltaOcc)
	re := &ruleExec{
		ev:           ev,
		cr:           cr,
		deltaOcc:     deltaOcc,
		order:        order,
		deltaBodyIdx: dbi,
		nslots:       cr.nslots,
		levels:       make([]execLevel, len(order)),
		frame0:       make([]term.Value, cr.nslots),
		headTup:      make([]term.Value, len(cr.head)),
	}
	for i := range order {
		cl := &order[i]
		lv := &re.levels[i]
		switch cl.kind {
		case litRelation:
			// The delta occurrence is read as a window scan whatever its
			// constants: an index over the whole relation (often a scratch
			// one) is the wrong tool for a contiguous RowID range.
			scan := dbi >= 0 && cl.bodyIdx == dbi
			varsOnly := true
			for j := range cl.args {
				if scan || cl.probeMask&(1<<uint(j)) == 0 {
					lv.checkArgs = append(lv.checkArgs, j)
					continue
				}
				lv.probeArgs = append(lv.probeArgs, j)
				if cl.args[j].kind != ast.Var {
					varsOnly = false
				}
			}
			if varsOnly {
				for _, j := range lv.probeArgs {
					lv.probeSlots = append(lv.probeSlots, cl.args[j].slot)
				}
			}
		case litNegated:
			lv.keys = make([]term.Value, len(cl.args))
		}
	}
	return re
}

// execFor returns (creating if needed) the cached pipeline state for one
// rule variant of this evaluator.
func (ev *evaluator) execFor(cr *compiledRule, deltaOcc int) *ruleExec {
	if ev.execs == nil {
		ev.execs = make(map[*compiledRule][]*ruleExec)
	}
	slots := ev.execs[cr]
	if slots == nil {
		slots = make([]*ruleExec, len(cr.deltaOrders)+1)
		ev.execs[cr] = slots
	}
	k := deltaOcc + 1
	if k < 0 || k >= len(slots) {
		k = 0
	}
	if slots[k] == nil {
		slots[k] = newRuleExec(ev, cr, deltaOcc)
	}
	return slots[k]
}

// begin resolves what every operator may read in one run. The delta
// occurrence gets its window; every other occurrence reads its relation up
// to the length it has now, hiding the rows cfg.Dead marks dead.
func (re *ruleExec) begin(delta map[symtab.Sym]Delta, cfg JoinConfig) {
	ev := re.ev
	re.empty = false
	for i := range re.order {
		cl := &re.order[i]
		lv := &re.levels[i]
		lv.outN = 0
		switch cl.kind {
		case litRelation:
			isDelta := re.deltaBodyIdx >= 0 && cl.bodyIdx == re.deltaBodyIdx
			if isDelta && re.callerRows {
				continue // runRows is the source
			}
			lv.dead = nil
			if isDelta {
				d := delta[cl.pred]
				lv.rel, lv.lo, lv.hi = d.Rel, d.Lo, d.Hi
			} else {
				lv.rel, lv.lo, lv.hi = ev.readRel(cl.pred), 0, 0
				if lv.rel != nil {
					lv.hi = database.RowID(lv.rel.Len())
				}
				lv.dead = cfg.Dead[cl.pred]
			}
			if lv.rel == nil || lv.rel.Arity() != len(cl.args) {
				re.empty = true
				continue
			}
			if n := database.RowID(lv.rel.Len()); lv.hi > n {
				lv.hi = n
			}
			if lv.hi <= lv.lo {
				re.empty = true
			}
		case litNegated:
			lv.rel = ev.readRel(cl.pred)
			if lv.rel != nil && lv.rel.Arity() != len(cl.args) {
				lv.rel = nil // arity mismatch: membership is impossible
			}
		}
	}
}

// sinkFunc receives the head tuple of every body instantiation of a run,
// once per instantiation (nothing is deduplicated before it), in
// nested-loop order. The tuple is reused across calls. It travels as an
// argument, never as a field, so a caller's callback — and what it
// captures — does not escape to the heap on its way through Solve and Run.
type sinkFunc func(database.Tuple) error

// run drives the pipeline: one all-unbound frame enters level 0, full
// batches stream down eagerly, and drain pushes the partials through.
func (re *ruleExec) run(sink sinkFunc) error {
	if re.empty {
		return nil
	}
	for i := range re.frame0 {
		re.frame0[i] = noValue
	}
	if err := re.feed(0, re.frame0, 1, sink); err != nil {
		return err
	}
	return re.drain(sink)
}

// runRows is run for a pipeline whose source rows the caller holds (n of
// them, flat in rows): the source operator unifies each row with the delta
// literal's patterns exactly as a window scan of a relation holding them
// would, and accounts for it the same way.
func (re *ruleExec) runRows(rows []term.Value, n int, sink sinkFunc) error {
	if re.empty {
		return nil
	}
	ev := re.ev
	for i := range re.frame0 {
		re.frame0[i] = noValue
	}
	cl, lv := &re.order[0], &re.levels[0]
	arity := len(cl.args)
	ev.stats.Probes += int64(n)
	if err := ev.check.TickN(n); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		if ev.inject != nil {
			if err := ev.inject.Hit(faultinject.SiteEngineProbe); err != nil {
				return err
			}
		}
		if !re.extend(lv, cl, re.frame0, rows[k*arity:(k+1)*arity]) {
			continue
		}
		lv.outN++
		if err := re.push(0, sink); err != nil {
			return err
		}
	}
	return re.drain(sink)
}

// drain flushes every level's partial output batch downstream, in level
// order (a flush of level i appends to level i+1's partial, which the
// loop visits next).
func (re *ruleExec) drain(sink sinkFunc) error {
	for i := range re.levels {
		lv := &re.levels[i]
		if lv.outN > 0 {
			n := lv.outN
			lv.outN = 0
			if err := re.feed(i+1, lv.out, n, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// push forwards level i's output batch downstream when it is full.
func (re *ruleExec) push(i int, sink sinkFunc) error {
	lv := &re.levels[i]
	if lv.outN < batchFrames {
		return nil
	}
	lv.outN = 0
	return re.feed(i+1, lv.out, batchFrames, sink)
}

// feed runs operator i over a batch of n input frames. Frames are flat:
// frame k occupies frames[k*nslots : (k+1)*nslots]. Operators copy each
// candidate frame into their own output batch and extend it there, so
// bindings never need undoing — a failed extension is simply not
// committed. feed is the only function that iterates a relation on behalf
// of a rule body.
func (re *ruleExec) feed(i int, frames []term.Value, n int, sink sinkFunc) error {
	if n == 0 {
		return nil
	}
	if i == len(re.order) {
		return re.emitHead(frames, n, sink)
	}
	ev := re.ev
	cl := &re.order[i]
	lv := &re.levels[i]
	ns := re.nslots
	switch cl.kind {
	case litBuiltin:
		for k := 0; k < n; k++ {
			out := lv.slot(ns)
			copy(out, frames[k*ns:(k+1)*ns])
			if ev.builtinFrame(cl, out) {
				lv.outN++
				if err := re.push(i, sink); err != nil {
					return err
				}
			}
		}
	case litNegated:
		for k := 0; k < n; k++ {
			in := frames[k*ns : (k+1)*ns]
			for j, a := range cl.args {
				lv.keys[j] = ev.instantiate(a, in)
			}
			if lv.rel != nil && lv.rel.Contains(database.Tuple(lv.keys)) {
				continue
			}
			copy(lv.slot(ns), in)
			lv.outN++
			if err := re.push(i, sink); err != nil {
				return err
			}
		}
	default: // litRelation
		if lv.probeArgs != nil {
			// Instantiate the whole batch's probe keys, resolve them in
			// one batched probe, then unify the unmasked columns. The
			// accounting is batch-at-a-time: one Probes/TickN update for
			// the n probes (the fault injector, when armed, still sees
			// one Hit per probe so chaos schedules keep their cadence).
			ev.stats.Probes += int64(n)
			if err := ev.check.TickN(n); err != nil {
				return err
			}
			if ev.inject != nil {
				for k := 0; k < n; k++ {
					if err := ev.inject.Hit(faultinject.SiteEngineProbe); err != nil {
						return err
					}
				}
			}
			keys := lv.keys[:0]
			if need := n * len(lv.probeArgs); cap(keys) < need {
				keys = make([]term.Value, 0, need)
			}
			if len(lv.probeSlots) == 1 {
				s := lv.probeSlots[0]
				for k := 0; k < n; k++ {
					keys = append(keys, frames[k*ns+s])
				}
			} else if lv.probeSlots != nil {
				for k := 0; k < n; k++ {
					in := frames[k*ns : (k+1)*ns]
					for _, s := range lv.probeSlots {
						keys = append(keys, in[s])
					}
				}
			} else {
				for k := 0; k < n; k++ {
					in := frames[k*ns : (k+1)*ns]
					for _, j := range lv.probeArgs {
						if a := cl.args[j]; a.kind == ast.Var {
							keys = append(keys, in[a.slot])
						} else {
							keys = append(keys, ev.instantiate(a, in))
						}
					}
				}
			}
			lv.keys = keys
			// The index handle is resolved when the first frame reaches
			// the operator, not in begin: a level no frame reaches must
			// not build (and make every later epoch carry) an index.
			if lv.ixRel != lv.rel {
				lv.ix = lv.rel.IndexFor(cl.probeMask, cl.expect)
				lv.ixRel = lv.rel
			}
			lv.matches = lv.ix.ProbeRangeBatch(n, keys, lv.lo, lv.hi, lv.matches[:0])
			for _, m := range lv.matches {
				if lv.hidden(m.Row) {
					continue
				}
				if !re.extend(lv, cl, frames[int(m.Key)*ns:(int(m.Key)+1)*ns], lv.rel.Row(m.Row)) {
					continue
				}
				lv.outN++
				if err := re.push(i, sink); err != nil {
					return err
				}
			}
		} else {
			// Unindexed source: nested scan of the window per input frame.
			ev.stats.Probes += int64(n)
			if err := ev.check.TickN(n); err != nil {
				return err
			}
			for k := 0; k < n; k++ {
				in := frames[k*ns : (k+1)*ns]
				if ev.inject != nil {
					if err := ev.inject.Hit(faultinject.SiteEngineProbe); err != nil {
						return err
					}
				}
				for id := lv.lo; id < lv.hi; id++ {
					if lv.hidden(id) {
						continue
					}
					if !re.extend(lv, cl, in, lv.rel.Row(id)) {
						continue
					}
					lv.outN++
					if err := re.push(i, sink); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// extend copies the input frame into the operator's next output slot and
// unifies row's unchecked columns into it. The slot is committed only by
// the caller's outN++, so a failed extension leaves nothing to undo.
func (re *ruleExec) extend(lv *execLevel, cl *compiledLit, in, row []term.Value) bool {
	out := lv.slot(re.nslots)
	copy(out, in)
	for _, j := range lv.checkArgs {
		// Constants and plain variables (the common cases) are handled
		// inline; compounds fall back to matchFrame.
		switch p := &cl.args[j]; p.kind {
		case ast.Var:
			if w := out[p.slot]; w == noValue {
				out[p.slot] = row[j]
			} else if w != row[j] {
				return false
			}
		case ast.Const:
			if p.val != row[j] {
				return false
			}
		default:
			if !re.ev.matchFrame(*p, row[j], out) {
				return false
			}
		}
	}
	return true
}

// emitHead instantiates the head for every solution frame and hands the
// (reused) tuple to the run's sink, one call per body instantiation.
func (re *ruleExec) emitHead(frames []term.Value, n int, sink sinkFunc) error {
	ev := re.ev
	ns := re.nslots
	if err := ev.check.TickN(n); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		f := frames[k*ns : (k+1)*ns]
		for j, hp := range re.cr.head {
			switch hp.kind {
			case ast.Var:
				re.headTup[j] = f[hp.slot]
			case ast.Const:
				re.headTup[j] = hp.val
			default:
				re.headTup[j] = ev.instantiate(hp, f)
			}
		}
		if err := sink(database.Tuple(re.headTup)); err != nil {
			return err
		}
	}
	return nil
}

// matchFrame unifies a pattern with a ground value, binding directly into
// the frame. Nothing is undone on failure: frames are copies, so a failed
// match's partial bindings die with the discarded frame.
func (ev *evaluator) matchFrame(p pat, v term.Value, frame []term.Value) bool {
	switch p.kind {
	case ast.Const:
		return p.val == v
	case ast.Var:
		if frame[p.slot] != noValue {
			return frame[p.slot] == v
		}
		frame[p.slot] = v
		return true
	default:
		if !v.IsCompound() {
			return false
		}
		c := ev.bank.Deref(v)
		if c.Functor != p.functor || len(c.Args) != len(p.args) {
			return false
		}
		for j, a := range p.args {
			if !ev.matchFrame(a, c.Args[j], frame) {
				return false
			}
		}
		return true
	}
}

// builtinFrame evaluates a builtin literal against an owned frame copy,
// possibly binding one variable into it; it reports whether the frame
// survives. This is the only implementation of the builtins.
func (ev *evaluator) builtinFrame(cl *compiledLit, frame []term.Value) bool {
	x, y := cl.args[0], cl.args[1]
	gx, gy := x.groundIn(frame), y.groundIn(frame)
	bind := func(p pat, v term.Value) bool {
		if frame[p.slot] != noValue {
			return frame[p.slot] == v
		}
		frame[p.slot] = v
		return true
	}
	switch cl.op {
	case opEq:
		switch {
		case gx && gy:
			return ev.instantiate(x, frame) == ev.instantiate(y, frame)
		case gx:
			// The unbound side is a plain variable by the ordering
			// precondition.
			return bind(y, ev.instantiate(x, frame))
		default:
			return bind(x, ev.instantiate(y, frame))
		}
	case opSucc:
		switch {
		case gx && gy:
			a, b := ev.instantiate(x, frame), ev.instantiate(y, frame)
			return a.IsInt() && b.IsInt() && a.AsInt() < succMaxInt && b.AsInt() == a.AsInt()+1
		case gx:
			a := ev.instantiate(x, frame)
			if !a.IsInt() || a.AsInt() >= succMaxInt {
				return false
			}
			return bind(y, term.Int(a.AsInt()+1))
		default:
			b := ev.instantiate(y, frame)
			if !b.IsInt() || b.AsInt() <= succMinInt {
				return false
			}
			return bind(x, term.Int(b.AsInt()-1))
		}
	default:
		a, b := ev.instantiate(x, frame), ev.instantiate(y, frame)
		var c int
		if a.IsInt() && b.IsInt() {
			switch {
			case a.AsInt() < b.AsInt():
				c = -1
			case a.AsInt() > b.AsInt():
				c = 1
			}
		} else {
			c = term.Compare(a, b)
		}
		switch cl.op {
		case opNeq:
			return c != 0
		case opLt:
			return c < 0
		case opLe:
			return c <= 0
		case opGt:
			return c > 0
		case opGe:
			return c >= 0
		}
		return false
	}
}

// insertSink is the sink of a fixpoint run: every body instantiation is
// an inference, and a head tuple the relation did not hold is a derived
// fact.
func (ev *evaluator) insertSink(headRel *database.Relation) sinkFunc {
	return func(t database.Tuple) error {
		ev.stats.Inferences++
		if !headRel.Insert(t) {
			return nil
		}
		return ev.noteDerived()
	}
}

// noteDerived accounts one new derived fact: the counters, the fault
// injection hook and the fact budget, which counts the seeds too.
func (ev *evaluator) noteDerived() error {
	ev.countFact()
	if err := ev.inject.Hit(faultinject.SiteEngineInsert); err != nil {
		return err
	}
	if n := ev.stats.DerivedFacts; n > ev.maxFacts {
		return ev.limitErr(limits.KindFacts, n, ev.maxFacts)
	}
	return nil
}

// runRuleFast evaluates one rule variant into its head relation.
func (ev *evaluator) runRuleFast(cr *compiledRule, deltaOcc int, delta map[symtab.Sym]Delta) error {
	re := ev.execFor(cr, deltaOcc)
	re.begin(delta, JoinConfig{})
	if re.empty {
		return nil
	}
	return re.run(ev.insertSink(ev.derived[cr.headPred]))
}
