package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lincount"
	"lincount/internal/ast"
	"lincount/internal/counting"
	"lincount/internal/database"
	"lincount/internal/engine"
	"lincount/internal/incremental"
	"lincount/internal/parser"
	"lincount/internal/plan"
	"lincount/internal/server"
	"lincount/internal/symtab"
	"lincount/internal/term"
	"lincount/internal/wal"
)

// The traced run. Every per-layer number is taken from outside the layer,
// by timing calls into its exported functions on a private copy of the
// workload's data (a "world"); nothing inside the program is instrumented.

// world is the workload's program and facts loaded through the internal
// packages directly, below the lincount facade.
type world struct {
	bank  *term.Bank
	prog  *ast.Program
	db    *database.Database
	stats plan.StatsFunc
}

func newWorld(program, facts string) (*world, error) {
	bank := term.NewBank(symtab.New())
	parsed, err := parser.Parse(bank, program)
	if err != nil {
		return nil, err
	}
	db := database.New(bank)
	if err := db.LoadText(facts); err != nil {
		return nil, err
	}
	w := &world{bank: bank, prog: parsed.Program, db: db}
	w.stats = func(pred symtab.Sym) int64 {
		if rel := w.db.Relation(pred); rel != nil {
			return int64(rel.Len())
		}
		return 0
	}
	return w, nil
}

// timed returns the durations of n calls of fn, in the unit given.
func timed(n int, unit time.Duration, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		begin := time.Now()
		fn(i)
		out[i] = float64(time.Since(begin)) / float64(unit)
	}
	return out
}

// perCall times one loop of n calls and returns the mean per call in ns,
// for calls too short to time one by one.
func perCall(n int, fn func(i int)) float64 {
	begin := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(begin)) / float64(n)
}

// layers collects the traced run's metrics.
type layers struct {
	r   *runner
	ctx context.Context
	m   map[string]metric
}

func (l *layers) put(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

func (l *layers) goal(i int) string { return l.r.in.queries[i%len(l.r.in.queries)] }

// n is a repetition count: full for the benchmark, a twentieth (at least
// three) for the unit test's small run.
func (l *layers) n(full int) int {
	if l.r.size.small {
		return max(full/20, 3)
	}
	return full
}

// storageLayers measures parser, term, database and wal.
func (l *layers) storageLayers(w *world) error {
	in := l.r.in

	// parser
	var nfacts int
	parse := timed(3, time.Nanosecond, func(int) {
		res, err := parser.Parse(term.NewBank(symtab.New()), in.facts)
		if err == nil {
			nfacts = len(res.Program.Rules)
		}
	})
	if nfacts == 0 {
		return fmt.Errorf("parser.Parse: no facts parsed")
	}
	l.put("parser.parse_facts_ns_per_fact", "ns", median(parse)/float64(nfacts))
	l.put("parser.parse_query_us", "us", median(timed(l.n(2000), time.Microsecond, func(i int) {
		_, _ = parser.ParseQuery(w.bank, l.goal(i)) // goals parsed at set-up already
	})))

	// term: both on the path repeated evaluations take — the symbol or
	// cell already exists and interning finds it.
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("benchmark_sym_%d", i)
		w.bank.Symbols().Intern(names[i])
	}
	l.put("term.intern_ns", "ns", perCall(l.n(200_000), func(i int) { w.bank.Symbols().Intern(names[i%len(names)]) }))
	cells := l.n(50_000)
	chain := func(int) {
		list := w.bank.Nil()
		for i := 0; i < cells; i++ {
			list = w.bank.Cons(term.Int(int64(i%64)), list)
		}
	}
	chain(0)
	l.put("term.cons_ns", "ns", perCall(1, chain)/float64(cells))

	// database
	up := w.db.Relation(w.bank.Symbols().Intern("up"))
	rows := up.Len()
	tuples := up.Tuples()
	l.put("database.insert_ns_per_row", "ns", median(timed(5, time.Nanosecond, func(int) {
		rel := database.NewRelation(up.Arity())
		for _, t := range tuples {
			rel.InsertRow(t)
		}
	}))/float64(rows))
	keys := make([]term.Value, 256)
	for i := range keys {
		keys[i] = tuples[(i*rows/len(keys))%rows][0]
	}
	up.Probe(1, keys[:1]) // build the index outside the timing
	touched := 0
	l.put("database.probe_ns", "ns", perCall(l.n(100_000), func(i int) {
		it := up.Probe(1, keys[i%len(keys):i%len(keys)+1])
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			touched++
		}
	}))
	ix := up.IndexFor(1, 0)
	var matches []database.RowMatch
	l.put("database.probe_batch_ns_per_key", "ns", perCall(l.n(1000), func(int) {
		matches = ix.ProbeRangeBatch(len(keys), keys, 0, database.RowID(rows), matches[:0])
	})/float64(len(keys)))
	newArc := database.Tuple{term.Symbol(w.bank.Symbols().Intern("benchmark_a")), term.Symbol(w.bank.Symbols().Intern("benchmark_b"))}
	upSym := w.bank.Symbols().Intern("up")
	l.put("database.fork_clone_us", "us", median(timed(20, time.Microsecond, func(int) {
		_, _ = w.db.Fork().Assert(upSym, newArc) // the first write to a fork clones the relation
	})))
	l.put("database.retract_rebuild_ms", "ms", median(timed(10, time.Millisecond, func(i int) {
		_, _ = w.db.Fork().Retract(upSym, tuples[(i*97)%rows])
	})))
	var snap bytes.Buffer
	l.put("database.snapshot_save_ms", "ms", median(timed(3, time.Millisecond, func(int) {
		snap.Reset()
		_ = database.Save(&snap, w.db) // writes to memory
	})))
	l.put("database.snapshot_bytes_per_fact", "B", float64(snap.Len())/float64(w.db.FactCount()))
	var loadErr error
	l.put("database.snapshot_load_ms", "ms", median(timed(3, time.Millisecond, func(int) {
		loadErr = database.Load(bytes.NewReader(snap.Bytes()), database.New(term.NewBank(symtab.New())))
	})))
	if loadErr != nil {
		return fmt.Errorf("database.Load: %w", loadErr)
	}

	// wal: one record per write request, two ops each, as the server logs.
	record := func(i int) wal.Record {
		op := in.writes.ops[i%len(in.writes.ops)]
		return wal.Record{Seq: uint64(i + 1), Ops: []wal.Op{{Text: op.assert}, {Retract: true, Text: op.retract}}}
	}
	appendAll := func(name string, policy wal.SyncPolicy, n int) (*wal.Writer, []float64, error) {
		wr, err := wal.Create(filepath.Join(l.r.workdir, name), wal.Options{Sync: policy})
		if err != nil {
			return nil, nil, err
		}
		var appendErr error
		times := timed(n, time.Microsecond, func(i int) {
			if err := wr.Append(record(i)); err != nil {
				appendErr = err
			}
		})
		return wr, times, appendErr
	}
	synced, times, err := appendAll("layer-sync.log", wal.SyncAlways, l.n(100))
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	synced.Close()
	l.put("wal.append_fsync_us", "us", median(times))
	unsynced, times, err := appendAll("layer-nosync.log", wal.SyncNever, l.n(1000))
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	l.put("wal.append_nosync_us", "us", median(times))
	l.put("wal.bytes_per_op", "B", float64(unsynced.Size()-int64(len(wal.Magic)))/float64(2*unsynced.Records()))
	unsynced.Close()
	begin := time.Now()
	replayed, err := wal.ReplayFile(unsynced.Path(), 0, true, func(wal.Record) error { return nil })
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	l.put("wal.replay_us_per_record", "us", float64(time.Since(begin))/float64(time.Microsecond)/float64(replayed.Records))
	return nil
}

// compiled is one goal compiled for one strategy on a world.
func (w *world) compile(goal string, s plan.Strategy) (*plan.Shared, *plan.CompiledQuery, error) {
	q, err := parser.ParseQuery(w.bank, goal)
	if err != nil {
		return nil, nil, err
	}
	sh := plan.NewShared(w.prog, q)
	sh.SetStats(w.stats)
	cq, err := plan.Compile(sh, s, nil)
	return sh, cq, err
}

// planLayers measures plan, engine and the counting runtime.
func (l *layers) planLayers(w *world) error {
	goals := l.n(30)
	strategies := map[string]plan.Strategy{"counting": l.r.spec.counting, "magic": plan.Magic}
	plans := map[string][]*plan.CompiledQuery{}
	var shared []*plan.Shared
	for name, s := range strategies {
		var compileErr error
		cold := timed(goals, time.Microsecond, func(i int) {
			sh, cq, err := w.compile(l.goal(i), s)
			if err != nil {
				compileErr = err
				return
			}
			plans[name] = append(plans[name], cq)
			shared = append(shared, sh)
		})
		if compileErr != nil {
			return fmt.Errorf("plan.Compile %v: %w", s, compileErr)
		}
		l.put("plan.compile_cold_us."+name, "us", median(cold))
	}
	cache := plan.NewCache(128, nil)
	key := plan.Key{Query: l.goal(0), Strategy: plan.Magic}
	cache.Put(key, plans["magic"][0])
	cache.SharedFor(key.Query, func() *plan.Shared { return shared[0] })
	l.put("plan.cache_hit_us", "us", perCall(l.n(100_000), func(int) {
		cache.SharedFor(key.Query, nil)
		cache.Get(key)
	})/1000)
	l.put("plan.rank_us", "us", median(timed(l.n(2000), time.Microsecond, func(i int) {
		plan.Rank(shared[i%len(shared)], w.stats)
	})))

	// engine: the fixpoint of a compiled rewrite, without compile, answer
	// extraction or formatting.
	fixpoint := func(cqs []*plan.CompiledQuery) (float64, engine.Stats, error) {
		var st engine.Stats
		var evalErr error
		ms := timed(len(cqs), time.Millisecond, func(i int) {
			res, err := engine.EvalContext(l.ctx, cqs[i].Program, w.db, engine.Options{Sizes: engine.SizeHint(w.stats)})
			if err != nil {
				evalErr = err
				return
			}
			st = res.Stats
		})
		return median(ms), st, evalErr
	}
	magicMs, magicStats, err := fixpoint(plans["magic"])
	if err != nil {
		return fmt.Errorf("engine magic: %w", err)
	}
	l.put("engine.magic_fixpoint_ms", "ms", magicMs)
	l.put("engine.ns_per_inference", "ns", magicMs*1e6/float64(magicStats.Inferences))
	l.put("engine.inferences", "count", float64(magicStats.Inferences))
	l.put("engine.probes", "count", float64(magicStats.Probes))
	l.put("engine.derived_facts", "count", float64(magicStats.DerivedFacts))
	l.put("engine.iterations", "count", float64(magicStats.Iterations))
	l.put("engine.derived_per_inference", "ratio", float64(magicStats.DerivedFacts)/float64(magicStats.Inferences))

	// The paper's method: through the engine where the rewrite is safe,
	// through the pointer runtime where it is not. The one that does not
	// apply to this workload reports 0.
	countingInferences := int64(0)
	if l.r.spec.counting == plan.CountingRuntime {
		l.put("engine.counting_fixpoint_ms", "ms", 0)
	} else {
		ms, st, err := fixpoint(plans["counting"])
		if err != nil {
			return fmt.Errorf("engine counting: %w", err)
		}
		l.put("engine.counting_fixpoint_ms", "ms", ms)
		countingInferences = st.Inferences
	}
	var rs counting.RuntimeStats
	var answers []database.Tuple
	var an *counting.Analysis
	var runErr error
	run := timed(goals, time.Millisecond, func(i int) {
		a, err := shared[i].Analysis()
		if err != nil {
			runErr = err
			return
		}
		res, err := counting.RunContext(l.ctx, a, w.db, counting.RuntimeOptions{})
		if err != nil {
			runErr = err
			return
		}
		rs, answers, an = res.Stats, res.Answers, a
	})
	if runErr != nil {
		return fmt.Errorf("counting runtime: %w", runErr)
	}
	l.put("counting.runtime_run_ms", "ms", median(run))
	l.put("counting.nodes", "count", float64(rs.CountingNodes))
	l.put("counting.answer_tuples", "count", float64(rs.AnswerTuples))
	l.put("counting.reconstruct_us", "us", median(timed(l.n(200), time.Microsecond, func(int) {
		counting.ReconstructRuntimeAnswers(an, answers)
	})))
	if l.r.spec.counting == plan.CountingRuntime {
		countingInferences = rs.Moves
	}
	l.put("counting.magic_over_counting_inferences", "ratio", float64(magicStats.Inferences)/float64(countingInferences))
	return nil
}

// maintenanceLayers measures incremental and returns the materialisation
// for the attribution that follows.
func (l *layers) maintenanceLayers(w *world) (*incremental.Materialization, error) {
	before := heapAlloc()
	var m *incremental.Materialization
	var buildErr error
	build := timed(3, time.Millisecond, func(int) {
		m, buildErr = incremental.New(l.ctx, w.prog, w.db, incremental.Options{})
	})
	if buildErr != nil {
		return nil, fmt.Errorf("incremental.New: %w", buildErr)
	}
	l.put("incremental.build_ms", "ms", median(build))
	l.put("incremental.heap_bytes_per_derived", "B", float64(heapAlloc()-before)/float64(m.DerivedFacts()))

	goalPred := w.prog.Rules[0].Head.Pred
	rel := m.Relation(goalPred)
	var sum term.Value
	l.put("database.scan_ns_per_row", "ns", median(timed(5, time.Nanosecond, func(int) {
		it := rel.Scan()
		for id, ok := it.Next(); ok; id, ok = it.Next() {
			sum += rel.Row(id)[0]
		}
	}))/float64(rel.Len()))

	// One op per Apply, stepping through the write stream so that every
	// assert and every retract meets the state the server would meet.
	var asserts, retracts []float64
	overdeleted, rederived := 0, 0
	apply := func(op incremental.Op) (time.Duration, error) {
		begin := time.Now()
		next, res, err := m.Apply(l.ctx, m.Database().Fork(), []incremental.Op{op})
		if err != nil {
			return 0, err
		}
		m = next
		overdeleted += res.Overdeleted
		rederived += res.Rederived
		return time.Since(begin), nil
	}
	for i := 0; i < 20; i++ {
		op := l.r.in.writes.ops[i]
		d, err := apply(incremental.Op{Text: op.assert})
		if err != nil {
			return nil, fmt.Errorf("incremental.Apply assert: %w", err)
		}
		asserts = append(asserts, millis(d))
		d, err = apply(incremental.Op{Retract: true, Text: op.retract})
		if err != nil {
			return nil, fmt.Errorf("incremental.Apply retract: %w", err)
		}
		retracts = append(retracts, millis(d))
	}
	l.put("incremental.apply_assert_ms", "ms", median(asserts))
	l.put("incremental.apply_retract_ms", "ms", median(retracts))
	l.put("incremental.overdeleted_per_retract", "count", float64(overdeleted)/float64(len(retracts)))
	share := 0.0
	if overdeleted > 0 {
		share = float64(rederived) / float64(overdeleted)
	}
	l.put("incremental.rederived_share", "ratio", share)
	return m, nil
}

func formatRow(bank *term.Bank, t database.Tuple) []string {
	row := make([]string, len(t))
	for i, v := range t {
		row[i] = bank.Format(v)
	}
	return row
}

// formatRows renders, dedupes and sorts answer tuples the way the facade
// does before it returns them.
func formatRows(bank *term.Bank, tuples []database.Tuple) [][]string {
	rows := make([][]string, 0, len(tuples))
	seen := map[string]bool{}
	for _, t := range tuples {
		row := formatRow(bank, t)
		if k := strings.Join(row, "\x1f"); !seen[k] {
			seen[k] = true
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return strings.Join(rows[i], "\x1f") < strings.Join(rows[j], "\x1f") })
	return rows
}

// attribution performs requests layer by layer with a span around each
// call, then whole, and reports how much of the whole the parts explain.
type attribution struct {
	l     *layers
	w     *world
	rec   *recorder
	cache *plan.Cache
	req   int64
	out   io.Writer
}

// table prints, for the layered requests numbered from..a.req, every
// layer's median self time and its share of the whole request's median.
func (a *attribution) table(title string, from int64, wholeMs float64, names ...string) {
	self := a.rec.selfTimes(from, a.req+1)
	whole := 1000 * wholeMs
	fmt.Fprintf(a.out, "%s %s: whole request %.1f us\n", a.l.r.spec.name, title, whole)
	rest := whole
	for _, n := range names {
		us := median(self[n])
		rest -= us
		fmt.Fprintf(a.out, "  %-38s %10.1f us %5.1f%%\n", n, us, 100*us/whole)
	}
	fmt.Fprintf(a.out, "  %-38s %10.1f us %5.1f%%\n", "not attributed", rest, 100*rest/whole)
}

// child runs fn under a span caused by parent.
func (a *attribution) child(parent spanRef, name string, fn func()) time.Duration {
	sp := a.rec.begin(name, parent.id, a.req)
	fn()
	return sp.end()
}

// evalLayered is lincount.EvalContext with an explicit strategy, taken
// apart: parse, plan (cache or compile), execute, extract, format, encode.
// It returns the request's total and the part up to and including
// execution.
func (a *attribution) evalLayered(goal string, s plan.Strategy) (total, core time.Duration, err error) {
	w := a.w
	a.req++
	root := a.rec.begin("eval.layered:"+s.String(), 0, a.req)
	var q ast.Query
	core += a.child(root, "parser.ParseQuery", func() { q, err = parser.ParseQuery(w.bank, goal) })
	if err != nil {
		return 0, 0, err
	}
	var cq *plan.CompiledQuery
	core += a.child(root, "plan.Cache/Compile", func() {
		text := ast.FormatQuery(w.bank, q)
		sh := a.cache.SharedFor(text, func() *plan.Shared { return plan.NewShared(w.prog, q) })
		sh.SetStats(w.stats)
		key := plan.Key{Query: text, Strategy: s}
		var hit bool
		if cq, hit = a.cache.Get(key); !hit {
			if cq, err = plan.Compile(sh, s, nil); err == nil {
				a.cache.Put(key, cq)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var tuples []database.Tuple
	if s == plan.CountingRuntime {
		var res *counting.RunResult
		core += a.child(root, "counting.RunContext", func() {
			res, err = counting.RunContext(a.l.ctx, cq.Analysis, w.db, counting.RuntimeOptions{})
		})
		if err != nil {
			return 0, 0, err
		}
		a.child(root, "counting.ReconstructRuntimeAnswers", func() {
			tuples = counting.ReconstructRuntimeAnswers(cq.Analysis, res.Answers)
		})
	} else {
		var res *engine.Result
		core += a.child(root, "engine.EvalContext", func() {
			res, err = engine.EvalContext(a.l.ctx, cq.Program, w.db, engine.Options{Sizes: engine.SizeHint(w.stats)})
		})
		if err != nil {
			return 0, 0, err
		}
		a.child(root, "engine.Answers", func() {
			tuples = engine.Answers(res, w.db, cq.EntryQuery)
			if cq.Counting != nil {
				tuples = cq.Counting.ReconstructAnswers(tuples)
			}
		})
	}
	var rows [][]string
	a.child(root, "format rows", func() { rows = formatRows(w.bank, tuples) })
	a.child(root, "json.Marshal", func() { _, err = json.Marshal(rows) })
	return root.end(), core, err
}

// readLayered is the server's materialised read taken apart.
func (a *attribution) readLayered(m *incremental.Materialization, goal string) (time.Duration, error) {
	a.req++
	root := a.rec.begin("read.layered", 0, a.req)
	var q ast.Query
	var err error
	a.child(root, "parser.ParseQuery", func() { q, err = parser.ParseQuery(a.w.bank, goal) })
	if err != nil {
		return 0, err
	}
	var tuples []database.Tuple
	a.child(root, "incremental.Answers", func() { tuples = m.Answers(q) })
	resp := server.QueryResponse{Strategy: "materialized"}
	a.child(root, "format rows", func() {
		resp.Answers = make([][]string, len(tuples))
		for i, t := range tuples {
			resp.Answers[i] = formatRow(a.w.bank, t)
		}
	})
	a.child(root, "json.Marshal", func() { _, err = json.Marshal(resp) })
	return root.end(), err
}

// writeLayered is the server's write path taken apart: fork, maintain,
// log. It advances m.
func (a *attribution) writeLayered(m **incremental.Materialization, log *wal.Writer, op swap) (time.Duration, error) {
	a.req++
	root := a.rec.begin("write.layered", 0, a.req)
	var fork *database.Database
	a.child(root, "database.Fork", func() { fork = (*m).Database().Fork() })
	var err error
	a.child(root, "incremental.Apply", func() {
		var next *incremental.Materialization
		next, _, err = (*m).Apply(a.l.ctx, fork, []incremental.Op{{Text: op.assert}, {Retract: true, Text: op.retract}})
		if err == nil {
			*m = next
		}
	})
	if err != nil {
		return 0, err
	}
	a.child(root, "wal.Append", func() {
		err = log.Append(wal.Record{Seq: uint64(log.Records() + 1), Ops: []wal.Op{{Text: op.assert}, {Retract: true, Text: op.retract}}})
	})
	return root.end(), err
}

func residual(whole, parts float64) float64 {
	if whole <= 0 {
		return 0
	}
	d := whole - parts
	if d < 0 {
		d = -d
	}
	return d / whole
}

// attribute runs the three decompositions against the live node and the
// library database and files their metrics.
func (l *layers) attribute(w *world, m *incremental.Materialization, lib *libraryState, n *node, c *client, rec *recorder, tables io.Writer) error {
	r := l.r
	a := &attribution{l: l, w: w, rec: rec, cache: plan.NewCache(128, nil), out: tables}
	var buf bytes.Buffer

	// Forced-strategy reads: 100 with the paper's method, 100 with magic.
	for _, s := range []plan.Strategy{r.spec.counting, plan.Magic} {
		from := a.req + 1
		var layered, core, whole []float64
		for i := 0; i < l.n(100); i++ {
			total, upToExec, err := a.evalLayered(l.goal(i), s)
			if err != nil {
				return fmt.Errorf("layered eval %v: %w", s, err)
			}
			layered, core = append(layered, millis(total)), append(core, millis(upToExec))
			a.req++
			sp := rec.begin("lincount.EvalContext+json:"+s.String(), 0, a.req)
			_, res, err := evalLibrary(l.ctx, lib.p, lib.db, l.goal(i), s)
			if err == nil {
				_, err = json.Marshal(res.Answers)
			}
			whole = append(whole, millis(sp.end()))
			if err != nil {
				return fmt.Errorf("whole eval %v: %w", s, err)
			}
		}
		execute, extract := "engine.EvalContext", "engine.Answers"
		if s == plan.CountingRuntime {
			execute, extract = "counting.RunContext", "counting.ReconstructRuntimeAnswers"
		}
		a.table("eval "+s.String()+" (lincount.EvalContext + json.Marshal)", from, median(whole),
			"parser.ParseQuery", "plan.Cache/Compile", execute, extract, "format rows", "json.Marshal", "eval.layered:"+s.String())
		if s == r.spec.counting {
			l.put("attrib.eval_residual_share", "ratio", residual(median(whole), median(layered)))
			l.put("lincount.eval_overhead_us", "us", 1000*(median(whole)-median(core)))
		}
	}

	// Materialised reads.
	from := a.req + 1
	var layered, inproc, overHTTP, sizes []float64
	for i := 0; i < l.n(200); i++ {
		d, err := a.readLayered(m, l.goal(i))
		if err != nil {
			return fmt.Errorf("layered read: %w", err)
		}
		layered = append(layered, millis(d))
		a.req++
		sp := rec.begin("server.Query", 0, a.req)
		_, err = n.srv.Query(l.ctx, server.QueryRequest{Query: l.goal(i)})
		inproc = append(inproc, millis(sp.end()))
		if err != nil {
			return fmt.Errorf("server.Query: %w", err)
		}
		a.req++
		sp = rec.begin("http.read", 0, a.req)
		_, err = c.read(r.readBodies[i%len(r.readBodies)], &buf)
		overHTTP = append(overHTTP, millis(sp.end()))
		if err != nil {
			return fmt.Errorf("http read: %w", err)
		}
		sizes = append(sizes, float64(buf.Len()))
	}
	a.table("read (POST /v1/query, one client)", from, median(overHTTP),
		"parser.ParseQuery", "incremental.Answers", "format rows", "json.Marshal", "read.layered")
	l.put("attrib.read_residual_share", "ratio", residual(median(overHTTP), median(layered)))
	l.put("server.query_inproc_us", "us", 1000*median(inproc))
	l.put("server.http_overhead_us", "us", 1000*(median(overHTTP)-median(inproc)))
	l.put("server.response_bytes_p50", "B", median(sizes))

	// Writes.
	log, err := wal.Create(filepath.Join(r.workdir, "attrib.log"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer log.Close()
	from = a.req + 1
	layered, inproc, overHTTP = nil, nil, nil
	for i := 0; i < l.n(100); i++ {
		// The private materialisation already ran the first 20 ops of the
		// stream one by one; continue from there.
		d, err := a.writeLayered(&m, log, r.in.writes.ops[(20+i)%len(r.in.writes.ops)])
		if err != nil {
			return fmt.Errorf("layered write: %w", err)
		}
		layered = append(layered, millis(d))
		if i%2 == 0 {
			wi := int((r.nextWrite.Add(1) - 1) % int64(len(r.in.writes.ops)))
			op := r.in.writes.ops[wi]
			a.req++
			sp := rec.begin("server.Write", 0, a.req)
			_, err = n.srv.Write(l.ctx, server.WriteRequest{Assert: op.assert, Retract: op.retract})
			inproc = append(inproc, millis(sp.end()))
			if err != nil {
				return fmt.Errorf("server.Write: %w", err)
			}
			r.ackedMix = append(r.ackedMix, wi)
		}
		a.req++
		sp := rec.begin("http.write", 0, a.req)
		_, d, ok := r.writeOp(c, &buf, time.Now())
		sp.end()
		if !ok {
			return fmt.Errorf("http write failed")
		}
		overHTTP = append(overHTTP, millis(d))
	}
	a.table("write (POST /v1/write, one client)", from, median(overHTTP),
		"database.Fork", "incremental.Apply", "wal.Append", "write.layered")
	l.put("attrib.write_residual_share", "ratio", residual(median(overHTTP), median(layered)))
	l.put("server.write_inproc_ms", "ms", median(inproc))
	return nil
}

// facadeLayers measures the lincount facade's materialisation entry points
// on the library database.
func (l *layers) facadeLayers(lib *libraryState) error {
	var mat *lincount.Materialization
	var err error
	l.put("lincount.materialize_ms", "ms", median(timed(3, time.Millisecond, func(int) {
		mat, err = lib.p.Materialize(l.ctx, lib.db)
	})))
	if err != nil {
		return fmt.Errorf("Materialize: %w", err)
	}
	l.put("lincount.mat_answers_us", "us", median(timed(l.n(200), time.Microsecond, func(i int) {
		_, err = mat.Answers(l.goal(i))
	})))
	return err
}

// serverLayers measures the server pieces that are not part of a request:
// construction over a loaded database, and a checkpoint.
func (l *layers) serverLayers(n *node) error {
	r := l.r
	var times []float64
	for i := 0; i < 3; i++ {
		p, err := lincount.ParseProgram(r.in.program)
		if err != nil {
			return err
		}
		db := lincount.NewDatabase(p)
		if err := db.LoadFacts(r.in.facts); err != nil {
			return err
		}
		dir := filepath.Join(r.workdir, fmt.Sprintf("layer-new-%d", i))
		begin := time.Now()
		s, err := server.New(server.Config{Program: p, DB: db, DataDir: dir, WALSync: wal.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1})
		if err != nil {
			return fmt.Errorf("server.New: %w", err)
		}
		times = append(times, millis(time.Since(begin)))
		s.Close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.put("server.new_ms", "ms", median(times))
	begin := time.Now()
	if _, err := n.srv.Checkpoint(l.ctx); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.put("server.checkpoint_ms", "ms", millis(time.Since(begin)))
	return nil
}

// latencyMedians are the five latency medians of one round, in the order
// auto, counting, magic, read, write.
func latencyMedians(d *samples) [5]float64 {
	return [5]float64{median(d.library[0]), median(d.library[1]), median(d.library[2]), median(d.open.reads), median(d.open.writes)}
}

// runTraced is the traced run of one workload: the layers one by one, one
// round without and one with the span recorder, then the decomposition of
// single requests. It writes the spans to traceOut.
func (r *runner) runTraced(traceOut string, tables io.Writer) (map[string]metric, error) {
	l := &layers{r: r, ctx: r.ctx, m: map[string]metric{}}

	before := heapAlloc()
	w, err := newWorld(r.in.program, r.in.facts)
	if err != nil {
		return nil, err
	}
	l.put("database.heap_bytes_per_fact", "B", float64(heapAlloc()-before)/float64(w.db.FactCount()))
	if err := l.storageLayers(w); err != nil {
		return nil, err
	}
	if err := l.planLayers(w); err != nil {
		return nil, err
	}
	m, err := l.maintenanceLayers(w)
	if err != nil {
		return nil, err
	}
	lib, err := r.loadLibrary()
	if err != nil {
		return nil, err
	}
	if err := l.facadeLayers(lib); err != nil {
		return nil, err
	}

	n, c, _, err := r.start(r.in.facts, filepath.Join(r.workdir, "data"))
	if err != nil {
		return nil, err
	}
	defer func() {
		c.close()
		n.close()
	}()
	var plain, traced samples
	r.round(lib, c, &plain)
	r.rec = newRecorder()
	r.round(lib, c, &traced)
	rec := r.rec
	r.rec = nil

	pm, tm := latencyMedians(&plain), latencyMedians(&traced)
	overhead := 0.0
	for i := range pm {
		if pm[i] > 0 { // a window too short to hold a write has no median
			overhead += (tm[i] - pm[i]) / pm[i] / float64(len(pm))
		}
	}
	l.put("trace.overhead_share", "ratio", overhead)
	l.put("plan.cache_hit_share", "ratio", float64(plain.hits+traced.hits)/float64(plain.evals+traced.evals))
	reads := sortedCopy(append(plain.open.reads, traced.open.reads...))
	writes := sortedCopy(append(plain.open.writes, traced.open.writes...))
	late := sortedCopy(append(plain.open.lateness, traced.open.lateness...))
	l.put("server.read_p99_ms", "ms", quantile(reads, 0.99))
	l.put("server.write_p99_ms", "ms", quantile(writes, 0.99))
	l.put("server.open_lateness_p99_ms", "ms", quantile(late, 0.99))
	l.put("server.shed_share", "ratio", float64(r.shed.Load())/float64(len(late)))

	// Batching: acked writes per published epoch while every client keeps
	// a request in flight.
	st0, err := c.stats()
	if err != nil {
		return nil, err
	}
	acked0 := len(r.ackedMix)
	r.closedLoop(c, time.Duration(closedShare*float64(r.window())))
	st1, err := c.stats()
	if err != nil {
		return nil, err
	}
	perEpoch := 0.0
	if st1.Epoch > st0.Epoch {
		perEpoch = float64(len(r.ackedMix)-acked0) / float64(st1.Epoch-st0.Epoch)
	}
	l.put("server.writes_per_epoch", "ratio", perEpoch)

	if err := l.serverLayers(n); err != nil {
		return nil, err
	}
	if err := l.attribute(w, m, lib, n, c, rec, tables); err != nil {
		return nil, err
	}
	if err := r.verifyFinal(c); err != nil {
		return nil, err
	}
	return l.m, rec.writeChrome(traceOut)
}
