package counting

import (
	"context"
	"fmt"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
	"lincount/internal/obsv"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// The counting runtime is the practical form of Algorithm 2 (§4): instead
// of evaluating the declarative rewriting with set terms and weak
// stratification, it performs the Bushy-Depth-First computation the paper
// describes at the end of §4:
//
//   - Phase 1 explores the left-part graph from the query constants. Nodes
//     are (predicate, bound-argument tuple) pairs; arcs are instantiations
//     of the recursive rules' left parts, labelled with the rule and the
//     values of its shared variables C_r. The depth-first search classifies
//     arcs into ahead (tree/forward/cross) and back arcs on the fly; each
//     node accumulates its set of predecessor entries (rule, C_r, node).
//     Ahead entries are the counting set; back entries are the cycle links
//     the paper's `cycle` predicate holds; f(node) is their union.
//
//   - Phase 2 computes answers as tuples (predicate, free-argument tuple,
//     class): the tuple's class is the paper's counting-tuple address —
//     the object identifier of §3.4 — shared by every node whose answers
//     the undo steps back to the source treat alike (see classify). Exit
//     rules seed tuples at every node; consuming a predecessor entry
//     (r, c, id) applies rule r's right part with the recursive answer's
//     bindings, C_r = c and (when D_r ≠ ∅) the head's bound arguments
//     taken from node id, yielding a tuple at node id's class. Left-linear
//     rules (which generate no arcs) apply their right part at the same
//     node. A tuple at the source's class for the goal predicate is an
//     answer.
//
// Because nodes and database constants are finite the computation always
// terminates, even on cyclic data (Theorem 2.3).
//
// Storage follows the same §3.4 address discipline as internal/database:
// node bound values and answer-tuple free values live in flat arenas,
// nodes and tuples are interned to dense int32 ids through open-addressing
// tables that hash term values directly (no key strings), and the phase-2
// worklist is a queue of tuple ids, not copied tuples.

// RuntimeStats describes the work done by one runtime evaluation.
type RuntimeStats struct {
	// CountingNodes is the size of the counting set (distinct nodes).
	CountingNodes int
	// AheadEntries and BackEntries count predecessor entries by class:
	// one per arc, and the source's nil entry.
	AheadEntries int
	BackEntries  int
	// AnswerTuples is the number of distinct (pred, frees, class) tuples.
	AnswerTuples int
	// Moves is the number of successful answer-phase derivations,
	// including rederivations (the inference metric).
	Moves int64
	// Solves and Probes aggregate the conjunction-matcher work.
	Solves int64
	Probes int64
	// ArenaValues is the number of term values resident in the node and
	// tuple arenas when the run completes.
	ArenaValues int64
}

// EngineStats reports s in the counter type every strategy shares. The
// runtime's inferences are the arcs phase 1 found and the moves of phase
// 2 — the rewrites count the same work as counting-rule and modified-rule
// inferences — and its derived facts are the nodes and tuples it
// interned.
func (s RuntimeStats) EngineStats() engine.Stats {
	return engine.Stats{
		Inferences:    s.Moves + int64(max(s.AheadEntries+s.BackEntries-1, 0)),
		Probes:        s.Probes,
		CountingNodes: s.CountingNodes,
		AnswerTuples:  s.AnswerTuples,
		DerivedFacts:  int64(s.AnswerTuples + s.CountingNodes),
		ArenaValues:   s.ArenaValues,
	}
}

// RunResult is the outcome of a runtime evaluation.
type RunResult struct {
	// Answers holds the goal's free-argument tuples, distinct and in no
	// particular order.
	Answers []database.Tuple
	Stats   RuntimeStats
}

// RuntimeOptions bounds a runtime evaluation.
type RuntimeOptions struct {
	// MaxTuples bounds counting nodes + answer tuples (0 = default).
	MaxTuples int
	// Inject, when non-nil, is consulted at the runtime's hook sites
	// (node interning in phase 1, tuple derivation in phase 2) and at the
	// engine sites of the passthrough strata. Nil costs one pointer
	// comparison per site.
	Inject *faultinject.Injector
	// Tracer, when non-nil, records phase spans (counting set
	// construction, answer saturation), worklist-depth counter samples,
	// and the passthrough strata's engine spans. Nil costs one pointer
	// comparison per site.
	Tracer *obsv.Tracer
}

// DefaultMaxRuntimeTuples bounds runaway evaluations.
const DefaultMaxRuntimeTuples = 50_000_000

// entry is one predecessor record (r, C_r, Id) of §4.
type entry struct {
	rule int // index into Analysis.Rec, -1 for the source's nil entry
	c    term.Value
	node int32
}

const nilNode = int32(-1)

// node is one counting-set element. Its bound values live in the runtime's
// nodeArena at [off, end) — the node holds an address, not a copy.
type node struct {
	pred     symtab.Sym
	off, end int32
	// ahead and back are the predecessor entries by arc class.
	ahead []entry
	back  []entry
}

// arc is one instantiation of a rule's left part: from node src, rule
// `rule` with shared values c reaches node to. Arcs are what phase 1
// discovers; classifying them yields the entries.
type arc struct {
	src, to int32
	rule    int32
	c       term.Value
}

// tupleInfo is one interned answer tuple (pred, frees, class); frees live
// in tupleArena at [off, end). at is the node the tuple was first derived
// at, and its class is at's: its moves start there, so a witness walks
// actual arcs. The tuple's dense id (its index) is the provenance key and
// its place in the phase-2 worklist.
type tupleInfo struct {
	pred     symtab.Sym
	at       int32
	off, end int32
}

// solveBatchRows is how many binding rows a rule site collects before it
// runs them through its solver: enough to fill the executor's operator
// batches, small enough that the row buffers stay cache-resident however
// large the worklist grows.
const solveBatchRows = 1024

// batch collects the binding rows of one rule site (a left part, an exit
// body, a right part) and runs them through its solver together. The
// solver is the rule "$solve(want, tags) :- $given(given, tags), body"
// (engine.PrepareTerms): the given terms are the site's patterns over
// the values each row carries, so the executor does the matching and the
// instantiation in its slot frames, and the tags — node and tuple ids as
// integers — come back untouched with every solution.
type batch struct {
	ps   *engine.PreparedSolve
	rows []term.Value
	n    int
}

// run solves the collected rows, hands every solution to out, and empties
// the batch.
func (b *batch) run(out func([]term.Value) error) error {
	if b.n == 0 {
		return nil
	}
	rows, n := b.rows, b.n
	b.rows, b.n = b.rows[:0], 0
	return b.ps.SolveRows(rows, n, out)
}

// preparedRec holds the compiled solvers of one recursive rule.
type preparedRec struct {
	r   *RecRule
	idx int // position in Runtime.recs (= Analysis.Rec index)
	// left (no solver when the rule generates no arcs): a row is a node's bound
	// values matched against the head's bound arguments, tagged with the
	// node; a solution is the recursive call's bound arguments, then the
	// shared variables.
	left batch
	// right (no solver when applying the rule changes nothing): a row is an
	// answer tuple's free values matched against the recursive call's
	// free arguments, the entry's shared values and, under destInRow, the
	// landing node's bound values matched against the head's bound
	// arguments (D_r ≠ ∅), tagged with the tuple and the landing node; a
	// solution is the head's free arguments.
	right     batch
	destInRow bool
	kind      StepKind // StepMove, or StepSame for a rule without arcs
}

// preparedExit holds the compiled solver of one exit rule: a row is a
// node's bound values matched against the head's bound arguments, tagged
// with the node; a solution is the head's free arguments.
type preparedExit struct {
	e     *ExitRule
	batch batch
}

// Runtime evaluates one analyzed query over one database.
type Runtime struct {
	an      *Analysis
	bank    *term.Bank
	db      *database.Database
	matcher *engine.Matcher
	opts    RuntimeOptions

	recs  []preparedRec
	exits []preparedExit

	// Counting nodes: values in nodeArena, interned through nodeSlots
	// (open addressing, -1 empty, hashing the arena directly).
	nodes     []node
	nodeArena []term.Value
	nodeSlots []int32
	// arcs are the distinct left-part instantiations in discovery order,
	// interned through arcSlots; classification turns them into entries.
	arcs     []arc
	arcSlots []int32
	// discovery lists node ids in depth-first discovery order (the
	// paper's o1, o2, … numbering), finished in the order the search
	// left them (reversed, a topological order when there is no back arc).
	discovery []int32
	finished  []int32
	// class[id] keys node id's answer tuples: id itself when the node is a
	// class of its own, a negative number for a shape class (see
	// classify). via[id] is the node whose entries a tuple derived at id
	// moves along: id itself, unless the node keeps its predecessor's
	// class.
	class, via []int32

	// Answer tuples, interned to dense ids the same way.
	tuples     []tupleInfo
	tupleArena []term.Value
	tupleSlots []int32

	// provenance: when enabled, meta[id] records the first derivation of
	// tuple id (parent is a tuple id, -1 for exit seeds).
	provenance bool
	meta       []tupleMeta

	check *limits.Checker
	stats RuntimeStats
}

// nodeVals returns the bound values of node id (a view into nodeArena).
func (rt *Runtime) nodeVals(id int32) []term.Value {
	n := &rt.nodes[id]
	return rt.nodeArena[n.off:n.end:n.end]
}

// tupleFrees returns the free values of tuple id (a view into tupleArena).
func (rt *Runtime) tupleFrees(id int32) []term.Value {
	t := &rt.tuples[id]
	return rt.tupleArena[t.off:t.end:t.end]
}

// NewRuntime prepares a runtime for the analyzed query an over db. The
// passthrough rules of the analysis (lower strata) are evaluated eagerly
// with the standard engine so the left/exit/right conjunctions can read
// them; the conjunction solvers are compiled once here.
func NewRuntime(an *Analysis, db *database.Database, opts RuntimeOptions) (*Runtime, error) {
	return NewRuntimeContext(context.Background(), an, db, opts)
}

// NewRuntimeContext is NewRuntime under a context: both phases poll ctx
// cooperatively (per node expansion, per consumed tuple, and inside
// every conjunction join) and return a cancellation error wrapping
// context.Cause(ctx) once it is done.
func NewRuntimeContext(ctx context.Context, an *Analysis, db *database.Database, opts RuntimeOptions) (*Runtime, error) {
	bank := an.Adorned.Program.Bank
	check := limits.NewChecker(ctx, "counting-runtime")
	var derived map[symtab.Sym]*database.Relation
	if len(an.Passthrough) > 0 {
		sub := ast.NewProgram(bank)
		sub.Add(an.Passthrough...)
		res, err := engine.EvalContext(ctx, sub, db, engine.Options{Inject: opts.Inject, Tracer: opts.Tracer})
		if err != nil {
			return nil, fmt.Errorf("counting: evaluating lower strata: %w", err)
		}
		derived = res.Derived
	}
	if opts.MaxTuples == 0 {
		opts.MaxTuples = DefaultMaxRuntimeTuples
	}
	rt := &Runtime{
		an:      an,
		bank:    bank,
		db:      db,
		matcher: engine.NewMatcher(bank, db, derived),
		opts:    opts,
		check:   check,
	}
	rt.matcher.SetChecker(check)

	part := func(r *RecRule, idxs []int) []ast.Literal {
		body := make([]ast.Literal, len(idxs))
		for i, li := range idxs {
			body[i] = r.Rule.Body[li]
		}
		return body
	}
	for i := range an.Rec {
		r := &an.Rec[i]
		pr := preparedRec{r: r, idx: i, kind: StepMove}
		if r.SkipCounting {
			pr.kind = StepSame
		} else {
			want := append(append([]ast.Term(nil), r.RecBound...), ast.Vs(r.Shared)...)
			ps, err := rt.matcher.PrepareTerms(part(r, r.Left), r.HeadBound, want, 1)
			if err != nil {
				return nil, fmt.Errorf("counting: preparing left part of %s: %w",
					ast.FormatRule(bank, r.Rule), err)
			}
			pr.left.ps = ps
		}
		if !(r.SkipCounting && r.SkipModified) {
			// A right-linear rule (SkipModified) has no right part to solve;
			// its solver is the bare match that hands the tuple on.
			pr.destInRow = len(r.BoundInRight) > 0
			given := append(append([]ast.Term(nil), r.RecFree...), ast.Vs(r.Shared)...)
			if pr.destInRow {
				given = append(given, r.HeadBound...)
			}
			ps, err := rt.matcher.PrepareTerms(part(r, r.Right), given, r.HeadFree, 2)
			if err != nil {
				return nil, fmt.Errorf("counting: preparing right part of %s: %w",
					ast.FormatRule(bank, r.Rule), err)
			}
			pr.right.ps = ps
		}
		rt.recs = append(rt.recs, pr)
	}
	for i := range an.Exit {
		e := &an.Exit[i]
		ps, err := rt.matcher.PrepareTerms(e.Rule.Body, e.Bound, e.Free, 1)
		if err != nil {
			return nil, fmt.Errorf("counting: preparing exit rule %s: %w",
				ast.FormatRule(bank, e.Rule), err)
		}
		rt.exits = append(rt.exits, preparedExit{e: e, batch: batch{ps: ps}})
	}
	return rt, nil
}

// Run executes both phases and returns the goal answers.
func Run(an *Analysis, db *database.Database, opts RuntimeOptions) (*RunResult, error) {
	return RunContext(context.Background(), an, db, opts)
}

// RunContext is Run under a context (see NewRuntimeContext).
func RunContext(ctx context.Context, an *Analysis, db *database.Database, opts RuntimeOptions) (*RunResult, error) {
	rt, err := NewRuntimeContext(ctx, an, db, opts)
	if err != nil {
		return nil, err
	}
	return rt.Run()
}

// Run executes the two phases.
func (rt *Runtime) Run() (*RunResult, error) {
	tracer := rt.opts.Tracer
	bsp := tracer.Begin("counting", "counting.build")
	err := rt.buildCountingSet()
	rt.endBuildSpan(bsp)
	if err != nil {
		return nil, err
	}
	asp := tracer.Begin("counting", "counting.answer")
	answers, err := rt.answerPhase()
	asp.End(obsv.A("tuples", int64(len(rt.tuples))), obsv.A("moves", rt.stats.Moves))
	if err != nil {
		return nil, err
	}
	rt.snapshotStats()
	return &RunResult{Answers: answers, Stats: rt.stats}, nil
}

// endBuildSpan closes a phase-1 span with the counting set's size.
func (rt *Runtime) endBuildSpan(sp obsv.Span) {
	if rt.opts.Tracer == nil {
		return
	}
	rt.snapshotStats()
	sp.End(obsv.A("nodes", int64(rt.stats.CountingNodes)),
		obsv.A("ahead", int64(rt.stats.AheadEntries)), obsv.A("back", int64(rt.stats.BackEntries)))
}

// Stats reports the work done so far; after a failed phase (budget trip,
// injected fault, cancellation) it holds the partial counters that
// Auto-degradation reporting needs.
func (rt *Runtime) Stats() RuntimeStats {
	rt.snapshotStats()
	return rt.stats
}

// snapshotStats fills the derived counters of rt.stats from the current
// node/tuple/matcher state; safe to call mid-run or after a failure.
func (rt *Runtime) snapshotStats() {
	rt.stats.Solves = rt.matcher.Solves
	rt.stats.Probes = rt.matcher.Probes
	rt.stats.CountingNodes = len(rt.nodes)
	rt.stats.AheadEntries, rt.stats.BackEntries = 0, 0
	for i := range rt.nodes {
		rt.stats.AheadEntries += len(rt.nodes[i].ahead)
		rt.stats.BackEntries += len(rt.nodes[i].back)
	}
	rt.stats.AnswerTuples = len(rt.tuples)
	rt.stats.ArenaValues = int64(len(rt.nodeArena) + len(rt.tupleArena))
}

// limitErr builds the structured budget error for this runtime.
func (rt *Runtime) limitErr(used int) error {
	return &limits.ResourceLimitError{
		Kind: limits.KindTuples, Limit: int64(rt.opts.MaxTuples),
		Used: int64(used), Component: "counting-runtime",
	}
}

// hashPredVals hashes (pred, vals) the same way the database layer hashes
// rows, with the predicate folded in last.
func hashPredVals(pred symtab.Sym, vals []term.Value) uint64 {
	return database.HashValue(database.HashValues(vals), term.Value(pred))
}

func valuesEqual(a, b []term.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// grownSlots returns an empty open-addressing table twice the size of
// slots (at least 16), for the caller to rehash into.
func grownSlots(slots []int32) []int32 {
	n := len(slots) * 2
	if n < 16 {
		n = 16
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// place puts id into the first free slot of its probe sequence from h.
func place(slots []int32, h uint64, id int32) {
	m := uint64(len(slots) - 1)
	i := h & m
	for slots[i] >= 0 {
		i = (i + 1) & m
	}
	slots[i] = id
}

// internNode returns the id for (pred, vals), creating the node if new.
// Lookup hashes vals directly; only a genuinely new node copies vals into
// the arena.
func (rt *Runtime) internNode(pred symtab.Sym, vals []term.Value) (int32, error) {
	if (len(rt.nodes)+1)*4 > len(rt.nodeSlots)*3 {
		rt.nodeSlots = grownSlots(rt.nodeSlots)
		for id := range rt.nodes {
			place(rt.nodeSlots, hashPredVals(rt.nodes[id].pred, rt.nodeVals(int32(id))), int32(id))
		}
	}
	m := uint64(len(rt.nodeSlots) - 1)
	i := hashPredVals(pred, vals) & m
	for {
		id := rt.nodeSlots[i]
		if id < 0 {
			break
		}
		if rt.nodes[id].pred == pred && valuesEqual(rt.nodeVals(id), vals) {
			return id, nil
		}
		i = (i + 1) & m
	}
	if err := rt.opts.Inject.Hit(faultinject.SiteCountingNode); err != nil {
		return 0, err
	}
	if used := len(rt.nodes) + len(rt.tuples); used >= rt.opts.MaxTuples {
		return 0, rt.limitErr(used)
	}
	id := int32(len(rt.nodes))
	off := int32(len(rt.nodeArena))
	rt.nodeArena = append(rt.nodeArena, vals...)
	rt.nodes = append(rt.nodes, node{pred: pred, off: off, end: off + int32(len(vals))})
	rt.nodeSlots[i] = id
	return id, nil
}

func hashArc(a arc) uint64 {
	return database.HashValues([]term.Value{term.Value(a.src), term.Value(a.to), term.Value(a.rule), a.c})
}

// addArc records an arc unless the same left-part instantiation is
// already known (a left part may reach one (rule, C_r, node) through
// several bindings of variables nobody keeps).
func (rt *Runtime) addArc(a arc) {
	if (len(rt.arcs)+1)*4 > len(rt.arcSlots)*3 {
		rt.arcSlots = grownSlots(rt.arcSlots)
		for id := range rt.arcs {
			place(rt.arcSlots, hashArc(rt.arcs[id]), int32(id))
		}
	}
	m := uint64(len(rt.arcSlots) - 1)
	i := hashArc(a) & m
	for rt.arcSlots[i] >= 0 {
		if rt.arcs[rt.arcSlots[i]] == a {
			return
		}
		i = (i + 1) & m
	}
	rt.arcSlots[i] = int32(len(rt.arcs))
	rt.arcs = append(rt.arcs, a)
}

// nodeRow appends node id's binding row — its bound values, then its id
// as the tag — to b.
func (rt *Runtime) nodeRow(b *batch, id int32) {
	b.rows = append(append(b.rows, rt.nodeVals(id)...), term.Int(int64(id)))
	b.n++
}

// expand discovers the outgoing arcs of every node in [lo, hi) by running
// each recursive rule's left part over all of them at once. The nodes it
// reaches for the first time are appended to rt.nodes, for the next call.
func (rt *Runtime) expand(lo, hi int32) error {
	for ri := range rt.recs {
		pr := &rt.recs[ri]
		if pr.left.ps == nil {
			continue
		}
		r := pr.r
		headPred, recPred := r.Rule.Head.Pred, r.Rule.Body[r.RecIndex].Pred
		nx := len(r.RecBound)
		found := func(vals []term.Value) error {
			// vals: the recursive call's bound arguments (internNode
			// copies them only if the node is new), C_r, the source node.
			to, err := rt.internNode(recPred, vals[:nx])
			if err != nil {
				return err
			}
			shared := vals[nx : len(vals)-1]
			rt.addArc(arc{
				src: int32(vals[len(vals)-1].AsInt()), to: to,
				rule: int32(ri), c: rt.bank.List(shared...),
			})
			return nil
		}
		for id := lo; id < hi; id++ {
			if rt.nodes[id].pred != headPred {
				continue
			}
			rt.nodeRow(&pr.left, id)
			if pr.left.n == solveBatchRows {
				if err := pr.left.run(found); err != nil {
					return err
				}
			}
		}
		if err := pr.left.run(found); err != nil {
			return err
		}
	}
	return nil
}

// buildCountingSet is phase 1. It discovers the left graph breadth-first,
// a frontier of nodes per round of batched left-part solves, and then
// classifies the arcs depth-first over the stored adjacency, filling each
// node's ahead and back entry sets. A node's arcs are ordered by rule and,
// within a rule, as its left part delivers them, so the depth-first
// numbering and the arc classes are those of a search that expands each
// node as it first reaches it.
func (rt *Runtime) buildCountingSet() error {
	goalBound := make([]term.Value, len(rt.an.GoalBound))
	for i, t := range rt.an.GoalBound {
		if !t.IsGround() {
			return fmt.Errorf("counting: query bound argument %s is not ground",
				ast.FormatTerm(rt.bank, t))
		}
		goalBound[i] = t.Value
	}
	src, err := rt.internNode(rt.an.GoalPred, goalBound)
	if err != nil {
		return err
	}
	// The source carries the paper's (r0, [], nil) entry.
	rt.nodes[src].ahead = append(rt.nodes[src].ahead, entry{rule: -1, c: rt.bank.Nil(), node: nilNode})

	for lo := int32(0); int(lo) < len(rt.nodes); {
		hi := int32(len(rt.nodes))
		if err := rt.check.TickN(int(hi - lo)); err != nil {
			return err
		}
		if err := rt.expand(lo, hi); err != nil {
			return err
		}
		lo = hi
	}

	// Adjacency: arcs grouped by source node, each group in discovery
	// order (a counting sort; a node's arcs all come from the one round
	// that expanded it, rule by rule).
	start := make([]int32, len(rt.nodes)+1)
	for i := range rt.arcs {
		start[rt.arcs[i].src+1]++
	}
	for i := range rt.nodes {
		start[i+1] += start[i]
	}
	bySrc := make([]int32, len(rt.arcs))
	fill := append([]int32(nil), start[:len(rt.nodes)]...)
	for i := range rt.arcs {
		s := rt.arcs[i].src
		bySrc[fill[s]] = int32(i)
		fill[s]++
	}

	// Classification: an arc into a node on the search stack is a back
	// arc, every other arc is ahead. next[id] is the node's next arc to
	// take; -1 marks a node the search has not reached.
	next := fill
	for i := range next {
		next[i] = -1
	}
	onStack := make([]bool, len(rt.nodes))
	rt.discovery = make([]int32, 0, len(rt.nodes))
	rt.finished = make([]int32, 0, len(rt.nodes))
	stack := []int32{src}
	next[src], onStack[src] = start[src], true
	rt.discovery = append(rt.discovery, src)
	for len(stack) > 0 {
		if err := rt.check.Tick(); err != nil {
			return err
		}
		id := stack[len(stack)-1]
		if next[id] == start[id+1] {
			onStack[id] = false
			stack = stack[:len(stack)-1]
			rt.finished = append(rt.finished, id)
			continue
		}
		a := &rt.arcs[bySrc[next[id]]]
		next[id]++
		n := &rt.nodes[a.to]
		e := entry{rule: int(a.rule), c: a.c, node: id}
		if onStack[a.to] {
			n.back = append(n.back, e)
			continue
		}
		n.ahead = append(n.ahead, e)
		if next[a.to] < 0 {
			next[a.to], onStack[a.to] = start[a.to], true
			rt.discovery = append(rt.discovery, a.to)
			stack = append(stack, a.to)
		}
	}
	rt.arcs, rt.arcSlots = nil, nil
	return nil
}

// classify assigns every node its answer class, in reverse finishing
// order, so that a node's ahead predecessors come before it; it is magic
// counting's regular/irregular split, made per node. A node without back
// entries whose ahead entries all agree on (predecessor's class, rule,
// C_r) is reached along one path shape, and undoing that shape gives a
// tuple the same answers from any node of it: the node joins the shape
// class of the triple, and a tuple there moves along one entry where
// Algorithm 1's counting set holds one tuple per path. When undoing the
// agreeing rule changes no answer (SkipModified), the node joins its
// predecessor's class instead — Algorithm 3's deletion of the path
// argument. Every other node — the source, a node on a cycle, one
// where shapes meet — is its own class, and so is every node when some
// rule's right part reads the head's bound arguments (D_r ≠ ∅), since
// its tuples' moves then depend on the node.
func (rt *Runtime) classify() {
	perNode := false
	for i := range rt.recs {
		perNode = perNode || rt.recs[i].destInRow
	}
	// shapes interns the shape classes: a slot holds the first node of
	// one, whose first entry spells the class's step.
	shapes := grownSlots(nil)
	for len(shapes) < 2*len(rt.nodes) {
		shapes = grownSlots(shapes)
	}
	m := uint64(len(shapes) - 1)
	nShapes := int32(0)
	rt.class = make([]int32, len(rt.nodes))
	rt.via = make([]int32, len(rt.nodes))
	for i := len(rt.finished) - 1; i >= 0; i-- {
		id := rt.finished[i]
		n := &rt.nodes[id]
		rt.class[id], rt.via[id] = id, id
		if perNode || len(n.back) > 0 || n.ahead[0].rule < 0 {
			continue
		}
		e := n.ahead[0]
		prev := rt.class[e.node]
		same := func(o entry) bool { return rt.class[o.node] == prev && o.rule == e.rule && o.c == e.c }
		agree := true
		for _, o := range n.ahead[1:] {
			agree = agree && same(o)
		}
		switch {
		case !agree:
		case rt.an.Rec[e.rule].SkipModified:
			rt.class[id], rt.via[id] = prev, rt.via[e.node]
		default:
			i := database.HashValues([]term.Value{term.Value(prev), term.Value(e.rule), e.c}) & m
			for shapes[i] >= 0 && !same(rt.nodes[shapes[i]].ahead[0]) {
				i = (i + 1) & m
			}
			if shapes[i] < 0 {
				shapes[i] = id
				rt.class[id] = ^nShapes
				nShapes++
			} else {
				rt.class[id] = rt.class[shapes[i]]
			}
		}
	}
}

// hashTuple hashes an answer tuple (pred, frees, class).
func hashTuple(pred symtab.Sym, frees []term.Value, class int32) uint64 {
	return database.HashValue(hashPredVals(pred, frees), term.Value(class))
}

// tupleSlot probes for (pred, frees, class): the tuple's id and slot when
// it is interned, else -1 and the free slot where it belongs.
func (rt *Runtime) tupleSlot(pred symtab.Sym, frees []term.Value, class int32) (id int32, slot uint64) {
	m := uint64(len(rt.tupleSlots) - 1)
	for i := hashTuple(pred, frees, class) & m; ; i = (i + 1) & m {
		id := rt.tupleSlots[i]
		if id < 0 {
			return -1, i
		}
		t := &rt.tuples[id]
		if t.pred == pred && rt.class[t.at] == class && valuesEqual(rt.tupleFrees(id), frees) {
			return id, i
		}
	}
}

// findTuple returns the dense id of (pred, frees, class), or -1.
func (rt *Runtime) findTuple(pred symtab.Sym, frees []term.Value, class int32) int32 {
	if len(rt.tupleSlots) == 0 {
		return -1
	}
	id, _ := rt.tupleSlot(pred, frees, class)
	return id
}

// pushTuple interns a tuple derived at node at, keyed by at's class; a
// new one joins the worklist by getting the next dense id. kind/rule/
// parent describe the derivation for provenance (parent is -1 for exit
// seeds). frees may be a reused buffer: it is copied into the arena only
// when the tuple is new.
func (rt *Runtime) pushTuple(pred symtab.Sym, frees []term.Value, at int32, kind StepKind, rule int, parent int32) error {
	rt.stats.Moves++
	if (len(rt.tuples)+1)*4 > len(rt.tupleSlots)*3 {
		rt.tupleSlots = grownSlots(rt.tupleSlots)
		for id := range rt.tuples {
			t := &rt.tuples[id]
			place(rt.tupleSlots, hashTuple(t.pred, rt.tupleFrees(int32(id)), rt.class[t.at]), int32(id))
		}
	}
	class := rt.class[at]
	known, slot := rt.tupleSlot(pred, frees, class)
	if known >= 0 {
		return nil // rederivation
	}
	if err := rt.opts.Inject.Hit(faultinject.SiteCountingStep); err != nil {
		return err
	}
	if used := len(rt.nodes) + len(rt.tuples); used >= rt.opts.MaxTuples {
		return rt.limitErr(used)
	}
	off := int32(len(rt.tupleArena))
	rt.tupleArena = append(rt.tupleArena, frees...)
	rt.tupleSlots[slot] = int32(len(rt.tuples))
	rt.tuples = append(rt.tuples, tupleInfo{pred: pred, at: at, off: off, end: off + int32(len(frees))})
	if rt.provenance {
		rt.meta = append(rt.meta, tupleMeta{kind: kind, rule: rule, parent: parent})
	}
	return nil
}

// moveRow appends to pr's right batch the row that moves tuple tid over
// one entry: the tuple's free values, the entry's shared values, the
// landing node's bound values when the right part needs them, and the
// (tuple, landing node) tags.
func (rt *Runtime) moveRow(pr *preparedRec, tid int32, c term.Value, dest int32) error {
	b := &pr.right
	b.rows = append(b.rows, rt.tupleFrees(tid)...)
	shared := 0
	for v := c; rt.bank.IsCons(v); shared++ {
		cell := rt.bank.Deref(v)
		b.rows = append(b.rows, cell.Args[0])
		v = cell.Args[1]
	}
	if shared != len(pr.r.Shared) {
		return fmt.Errorf("counting: malformed shared-variable record %s", rt.bank.Format(c))
	}
	if pr.destInRow {
		b.rows = append(b.rows, rt.nodeVals(dest)...)
	}
	b.rows = append(b.rows, term.Int(int64(tid)), term.Int(int64(dest)))
	b.n++
	return nil
}

// answerPhase is phase 2: it classifies the nodes, seeds tuples from the
// exit rules at every counting node and saturates the move relation. The
// worklist is the tuple table itself — ids are dense and handed out in
// derivation order, so the tuples not yet consumed are those from a
// cursor on. Consuming a tuple adds one row per predecessor entry of the
// node it moves from (undoing one left-part step of that entry's rule;
// one entry stands for all at a shape node), and one per rule without
// arcs that applies at the same node, to the batch of the rule concerned;
// a batch runs when it is full, and all of them when the cursor has
// caught up.
func (rt *Runtime) answerPhase() ([]database.Tuple, error) {
	rt.classify()
	for ei := range rt.exits {
		pe := &rt.exits[ei]
		headPred := pe.e.Rule.Head.Pred
		seed := func(vals []term.Value) error {
			k := len(vals) - 1
			return rt.pushTuple(headPred, vals[:k], int32(vals[k].AsInt()), StepExit, ei, -1)
		}
		for id := int32(0); int(id) < len(rt.nodes); id++ {
			if rt.nodes[id].pred != headPred {
				continue
			}
			rt.nodeRow(&pe.batch, id)
			if pe.batch.n == solveBatchRows {
				if err := pe.batch.run(seed); err != nil {
					return nil, err
				}
			}
		}
		if err := pe.batch.run(seed); err != nil {
			return nil, err
		}
	}

	// One sink per rule, built once: a solution is the head's free
	// values, then the (tuple, landing node) tags.
	sinks := make([]func([]term.Value) error, len(rt.recs))
	for ri := range rt.recs {
		pr := &rt.recs[ri]
		headPred := pr.r.Rule.Head.Pred
		sinks[ri] = func(vals []term.Value) error {
			k := len(vals) - 2
			return rt.pushTuple(headPred, vals[:k], int32(vals[k+1].AsInt()), pr.kind, pr.idx, int32(vals[k].AsInt()))
		}
	}
	consume := func(pr *preparedRec, tid int32, c term.Value, dest int32) error {
		if err := rt.moveRow(pr, tid, c, dest); err != nil {
			return err
		}
		if pr.right.n == solveBatchRows {
			return pr.right.run(sinks[pr.idx])
		}
		return nil
	}

	tracer := rt.opts.Tracer
	for next := int32(0); int(next) < len(rt.tuples); {
		for ; int(next) < len(rt.tuples); next++ {
			if err := rt.check.Tick(); err != nil {
				return nil, err
			}
			if tracer != nil && next%4096 == 0 {
				// Sampled, not per-tuple: the worklist-depth counter track
				// shows saturation progress without flooding the event buffer.
				tracer.Counter("counting.worklist", int64(len(rt.tuples))-int64(next))
			}
			tPred, tAt := rt.tuples[next].pred, rt.tuples[next].at
			// An entry was created by an arc of its rule, whose target
			// predicate is the recursive literal's — the tuple's own,
			// since tuple and entry sit at the same node (or at nodes
			// joined by steps that keep the predicate).
			src := rt.via[tAt]
			n := &rt.nodes[src]
			ahead := n.ahead
			if rt.class[src] < 0 {
				ahead = ahead[:1] // a shape class: every entry agrees
			}
			for _, e := range ahead {
				if e.rule < 0 {
					continue // the nil entry: nothing to undo
				}
				if err := consume(&rt.recs[e.rule], next, e.c, e.node); err != nil {
					return nil, err
				}
			}
			for _, e := range n.back {
				if err := consume(&rt.recs[e.rule], next, e.c, e.node); err != nil {
					return nil, err
				}
			}
			for ri := range rt.recs {
				pr := &rt.recs[ri]
				if pr.kind != StepSame || pr.right.ps == nil || pr.r.Rule.Body[pr.r.RecIndex].Pred != tPred {
					continue
				}
				if err := consume(pr, next, rt.bank.Nil(), tAt); err != nil {
					return nil, err
				}
			}
		}
		for ri := range rt.recs {
			if err := rt.recs[ri].right.run(sinks[ri]); err != nil {
				return nil, err
			}
		}
	}

	var answers []database.Tuple
	for id := range rt.tuples {
		// The source is always node 0, a class of its own. Copy: answers
		// escape through the public result while the frees are a view into
		// the tuple arena.
		if t := &rt.tuples[id]; rt.class[t.at] == 0 && t.pred == rt.an.GoalPred {
			answers = append(answers, append(database.Tuple(nil), rt.tupleFrees(int32(id))...))
		}
	}
	return answers, nil
}
