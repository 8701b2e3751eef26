package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lincount"
)

// sizing is how much of the benchmark a run performs.
type sizing struct {
	small    bool // the ~1/50 data sets
	rounds   int  // interleaved measurement rounds
	setups   int  // cold starts
	images   int  // crash images taken
	restarts int  // timed recoveries per crash image
}

// fullSize is the benchmark as BENCHMARK.json defines it; only the unit
// test runs anything else.
var fullSize = sizing{rounds: 7, setups: 10, images: 4, restarts: 4}

const (
	recoveryTail = 8 // K: writes logged between a checkpoint and its crash image

	// One round splits its window 0.2 : 0.2 : 0.2 : 1.3 : 0.65 between the
	// three library phases, the open loop and the closed loop (in s when
	// the rounds take 17.85 s in all).
	libraryShare = 0.2 / 2.55
	openShare    = 1.3 / 2.55
	closedShare  = 0.65 / 2.55
	// warmShare of every open-loop window is run but not recorded.
	warmShare = 0.12
)

// runner holds one workload run: its inputs, the cursors of its request
// streams, and the tally of operations attempted and failed.
type runner struct {
	ctx     context.Context
	spec    *spec
	in      *inputs
	size    sizing
	seconds float64 // length of all rounds together
	workdir string
	clients int
	rec     *recorder // nil unless this is the traced run

	expected    []answerSet // per in.queries
	readBodies  [][]byte
	writeBodies [][]byte
	tailBodies  [][]byte
	reads       []bool // the mix: true = read, cycled

	nextOp, nextRead, nextWrite atomic.Int64
	nextTail                    int

	mu        sync.Mutex
	ackedMix  []int // indices into in.writes, in ack order
	ackedTail []int
	errs      []string

	attempted, failed, shed atomic.Int64
}

func newRunner(ctx context.Context, s *spec, cfg runConfig) (*runner, error) {
	r := &runner{
		ctx:     ctx,
		spec:    s,
		in:      s.generate(cfg.seed, cfg.size.small),
		size:    cfg.size,
		seconds: cfg.seconds,
		workdir: cfg.workdir,
		clients: min(runtime.NumCPU(), 4),
	}
	for _, q := range r.in.queries {
		r.readBodies = append(r.readBodies, queryBody(q))
	}
	for _, w := range r.in.writes.ops {
		r.writeBodies = append(r.writeBodies, writeBody(w))
	}
	for _, w := range r.in.tail.ops {
		r.tailBodies = append(r.tailBodies, writeBody(w))
	}
	// The mix is shuffled in blocks of ten so that any window holds the
	// stated shares almost exactly.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x6d6978))
	for b := 0; b < 100; b++ {
		for _, i := range rng.Perm(10) {
			r.reads = append(r.reads, i < s.readsPer10)
		}
	}
	ref, err := newReference(ctx, r.in.program, r.in.facts, nil, nil)
	if err != nil {
		return nil, err
	}
	if r.expected, err = ref.answersAll(r.in.queries); err != nil {
		return nil, err
	}
	for i, e := range r.expected {
		if e.n == 0 {
			return nil, fmt.Errorf("%s: goal %s has no answers", s.name, r.in.queries[i])
		}
	}
	return r, os.MkdirAll(cfg.workdir, 0o755)
}

// fail counts one failed operation and keeps the first few reasons.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// stages is the time a start took, stage by stage: text to a loaded
// database (empty on recovery), server.New (recovery, materialisation),
// listener up to the first answered read.
type stages [3]time.Duration

// start brings a node up on dir and returns it with a client once its
// first read is answered, with the time each stage took.
func (r *runner) start(facts, dir string) (*node, *client, stages, error) {
	var st stages
	runtime.GC() // a process start begins with an empty heap; make every repeat do so
	n, err := startNode(r.in.program, facts, dir, &st)
	if err != nil {
		return nil, nil, st, err
	}
	begin := time.Now()
	c := newClient(n.url, r.clients)
	if err := c.firstRead(r.readBodies[0]); err != nil {
		c.close()
		n.close()
		return nil, nil, st, err
	}
	st[2] += time.Since(begin)
	return n, c, st, nil
}

// startTime reduces repeated starts to one time in s: per stage the
// quietest repeat, summed. A 0.4 s start is a mixture of disturbed and
// undisturbed stretches; its stages are short enough that among ten
// repeats each is seen undisturbed more often than the whole is.
func startTime(repeats []stages) metric {
	var best stages
	var totals []float64
	for i, st := range repeats {
		total := time.Duration(0)
		for j, d := range st {
			total += d
			if i == 0 || d < best[j] {
				best[j] = d
			}
		}
		totals = append(totals, total.Seconds())
	}
	return newMetric("s", totals, (best[0] + best[1] + best[2]).Seconds(), false)
}

// setUp performs the cold start size.setups times and leaves the last node
// running.
func (r *runner) setUp() (*node, *client, []stages, error) {
	var times []stages
	for i := 0; ; i++ {
		dir := filepath.Join(r.workdir, fmt.Sprintf("data-%d", i))
		n, c, st, err := r.start(r.in.facts, dir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.attempted.Add(1)
		times = append(times, st)
		if i == r.size.setups-1 {
			return n, c, times, nil
		}
		c.close()
		n.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, nil, err
		}
	}
}

// libraryPhase evaluates the workload's goals in turn with strategy i of
// strategies() on one goroutine for the window. It appends the
// per-evaluation latencies in ms to samples and also returns the number of
// plan-cache hits.
func (r *runner) libraryPhase(lib *libraryState, i int, window time.Duration, samples []float64) ([]float64, int) {
	s, cursor, hits := r.strategies()[i], &lib.cursor[i], 0
	for begin := time.Now(); time.Since(begin) < window; *cursor++ {
		qi := *cursor % len(r.in.queries)
		sp := r.rec.begin("lincount.EvalContext:"+s.String(), 0, -1)
		d, res, err := evalLibrary(r.ctx, lib.p, lib.db, r.in.queries[qi], s)
		sp.end()
		r.attempted.Add(1)
		switch {
		case err != nil:
			r.fail("eval %v %s: %v", s, r.in.queries[qi], err)
		case answersOf(res.Answers) != r.expected[qi]:
			r.fail("eval %v %s: wrong answers (%d rows)", s, r.in.queries[qi], len(res.Answers))
		default:
			samples = append(samples, millis(d))
			if res.PlanCacheHit {
				hits++
			}
		}
	}
	return samples, hits
}

// op performs request i of the mix (claimed from nextOp) and reports its
// kind, its latency counted from due, and whether it succeeded.
func (r *runner) op(i int64, c *client, buf *bytes.Buffer, due time.Time) (read bool, d time.Duration, ok bool) {
	if r.reads[i%int64(len(r.reads))] {
		return r.readOp(c, buf, due)
	}
	return r.writeOp(c, buf, due)
}

// failHTTP counts a failed request; a 503 is also counted as shed.
func (r *runner) failHTTP(what string, err error) {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusServiceUnavailable {
		r.shed.Add(1)
	}
	r.fail("%s: %v", what, err)
}

// readOp reads the next goal of the mix over HTTP and checks the answer.
func (r *runner) readOp(c *client, buf *bytes.Buffer, due time.Time) (bool, time.Duration, bool) {
	r.attempted.Add(1)
	qi := int((r.nextRead.Add(1) - 1) % int64(len(r.readBodies)))
	sp := r.rec.begin("http.read", 0, -1)
	got, err := c.read(r.readBodies[qi], buf)
	sp.end()
	d := time.Since(due)
	if err != nil {
		r.failHTTP("read "+r.in.queries[qi], err)
		return true, d, false
	}
	if got != r.expected[qi] {
		r.fail("read %s: wrong answers (%d rows, want %d)", r.in.queries[qi], got.n, r.expected[qi].n)
		return true, d, false
	}
	return true, d, true
}

// writeOp sends the next swap of the write stream over HTTP and logs its
// ack.
func (r *runner) writeOp(c *client, buf *bytes.Buffer, due time.Time) (bool, time.Duration, bool) {
	r.attempted.Add(1)
	wi := int((r.nextWrite.Add(1) - 1) % int64(len(r.writeBodies)))
	sp := r.rec.begin("http.write", 0, -1)
	err := c.post("/v1/write", r.writeBodies[wi], buf)
	sp.end()
	d := time.Since(due)
	if err != nil {
		r.failHTTP(fmt.Sprintf("write %d", wi), err)
		return false, d, false
	}
	r.mu.Lock()
	r.ackedMix = append(r.ackedMix, wi)
	r.mu.Unlock()
	return false, d, true
}

// openResult is what the open-loop windows recorded, in ms.
type openResult struct {
	reads, writes, lateness []float64
}

// openLoop sends the mix on a fixed schedule regardless of completions:
// one dispatcher hands request i to the connection pool at begin + i/rate
// and each request's latency counts from that due time, so a stall is
// charged to every request it delays. lateness is how far behind its
// schedule the dispatcher itself ran. Results are appended to out.
func (r *runner) openLoop(c *client, window time.Duration, out *openResult) {
	n := int(window.Seconds() * float64(r.spec.rate))
	interval := time.Second / time.Duration(r.spec.rate)
	warm := int(warmShare * float64(n))
	type send struct {
		due    time.Time
		record bool
	}
	type sample struct {
		read bool
		ms   float64
	}
	// Sized to the number of sends, so the dispatcher never waits for a
	// free connection.
	sends := make(chan send, n)
	results := make([][]sample, r.clients)
	var wg sync.WaitGroup
	for w := 0; w < r.clients; w++ {
		results[w] = make([]sample, 0, n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for s := range sends {
				read, d, ok := r.op(r.nextOp.Add(1)-1, c, &buf, s.due)
				if ok && s.record {
					results[w] = append(results[w], sample{read, millis(d)})
				}
			}
		}(w)
	}
	begin := time.Now()
	for i := 0; i < n; i++ {
		due := begin.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if i >= warm {
			out.lateness = append(out.lateness, millis(time.Since(due)))
		}
		sends <- send{due: due, record: i >= warm}
	}
	close(sends)
	wg.Wait()
	for _, rs := range results {
		for _, s := range rs {
			if s.read {
				out.reads = append(out.reads, s.ms)
			} else {
				out.writes = append(out.writes, s.ms)
			}
		}
	}
}

// rateBlock is the number of consecutive requests of the mix one
// throughput sample spans: the mix's own block of ten, so that every sample
// holds exactly the stated shares of reads and writes.
const rateBlock = 10

// closedLoop keeps one request in flight per client for the window. It
// returns, for every block of rateBlock consecutive requests that all
// succeeded, the block's rate in operations per second from its first send
// to its last completion, and the number of successful operations.
func (r *runner) closedLoop(c *client, window time.Duration) ([]float64, int) {
	type span struct {
		i           int64
		begin, done time.Time
	}
	spans := make([][]span, r.clients)
	var wg sync.WaitGroup
	end := time.Now().Add(window)
	for w := 0; w < r.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				i, begin := r.nextOp.Add(1)-1, time.Now()
				if _, d, ok := r.op(i, c, &buf, begin); ok {
					spans[w] = append(spans[w], span{i, begin, begin.Add(d)})
				}
			}
		}(w)
	}
	wg.Wait()
	type block struct {
		n           int
		begin, done time.Time
	}
	blocks := map[int64]*block{}
	ops := 0
	for _, ss := range spans {
		for _, s := range ss {
			ops++
			b := blocks[s.i/rateBlock]
			if b == nil {
				b = &block{begin: s.begin, done: s.done}
				blocks[s.i/rateBlock] = b
			}
			b.n++
			if s.begin.Before(b.begin) {
				b.begin = s.begin
			}
			if s.done.After(b.done) {
				b.done = s.done
			}
		}
	}
	var rates []float64
	for _, b := range blocks {
		if b.n == rateBlock { // the window's first and last block are partial
			rates = append(rates, rateBlock/b.done.Sub(b.begin).Seconds())
		}
	}
	return rates, ops
}

// tailWrites issues k sequential writes from the recovery stream.
func (r *runner) tailWrites(c *client, k int) {
	var buf bytes.Buffer
	for i := 0; i < k; i++ {
		wi := r.nextTail % len(r.tailBodies)
		r.nextTail++
		r.attempted.Add(1)
		if err := c.post("/v1/write", r.tailBodies[wi], &buf); err != nil {
			r.fail("tail write %d: %v", wi, err)
			continue
		}
		r.ackedTail = append(r.ackedTail, wi)
	}
}

// verifyGoals are the 16 goals checked whenever writers are quiet: eight
// of the read mix and, for each write stream, four in the region it has
// written — two whose fact was just toggled back and two whose fact is
// toggled now.
func (r *runner) verifyGoals() []string {
	goals := append([]string(nil), r.in.queries[:8]...)
	goals = append(goals, r.in.writes.goalsAt(int(r.nextWrite.Load()))...)
	return append(goals, r.in.tail.goalsAt(r.nextTail)...)
}

// readAll reads goals from a node.
func readAll(c *client, goals []string) ([]answerSet, error) {
	var buf bytes.Buffer
	out := make([]answerSet, len(goals))
	for i, g := range goals {
		var err error
		if out[i], err = c.read(queryBody(g), &buf); err != nil {
			return nil, fmt.Errorf("verify %s: %w", g, err)
		}
	}
	return out, nil
}

// recoverOnce checkpoints, logs the tail, takes a crash image of the data
// directory and times size.restarts restarts, each over its own copy of
// the image; a restarted node must answer the verification goals as the
// live one did.
func (r *runner) recoverOnce(n *node, c *client, i int) ([]stages, error) {
	var buf bytes.Buffer
	if err := c.post("/v1/checkpoint", nil, &buf); err != nil {
		return nil, err
	}
	r.tailWrites(c, recoveryTail)
	goals := r.verifyGoals()
	before, err := readAll(c, goals)
	if err != nil {
		return nil, err
	}
	image := filepath.Join(r.workdir, fmt.Sprintf("crash-%d", i))
	if err := copyDir(n.dir, image); err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	var times []stages
	for k := 0; k < r.size.restarts; k++ {
		st, err := r.restart(image, fmt.Sprintf("%s-%d", image, k), goals, before, k == 0)
		if err != nil {
			return nil, fmt.Errorf("recovery %d.%d: %w", i, k, err)
		}
		times = append(times, st)
	}
	return times, nil
}

// restart times one start over a copy of image and, when check is set,
// compares the restarted node's answers with those from before the crash.
func (r *runner) restart(image, dir string, goals []string, before []answerSet, check bool) (stages, error) {
	if err := copyDir(image, dir); err != nil {
		return stages{}, err
	}
	defer os.RemoveAll(dir)
	rn, rc, st, err := r.start("", dir)
	if err != nil {
		return st, err
	}
	defer func() {
		rc.close()
		rn.close()
	}()
	r.attempted.Add(1)
	if !check {
		return st, nil
	}
	after, err := readAll(rc, goals)
	if err != nil {
		return st, err
	}
	for j := range before {
		r.attempted.Add(1)
		if after[j] != before[j] {
			r.fail("recovery: %s answered %d rows, %d before the crash", goals[j], after[j].n, before[j].n)
		}
	}
	return st, nil
}

// netEffect replays acked swaps into state: fact -> present.
func netEffect(ops []swap, acked []int, state map[string]bool) {
	// acked is in ack order. Writes in flight together are neighbours in
	// the stream and two writes on one fact are `window` positions apart,
	// so ack order is a valid serial order.
	for _, i := range acked {
		state[ops[i].assert] = true
		state[ops[i].retract] = false
	}
}

// verifyFinal rebuilds a database from the initial text plus the acked op
// log, evaluates it semi-naively from scratch, and requires the live node
// to agree on every verification goal.
func (r *runner) verifyFinal(c *client) error {
	state := map[string]bool{}
	netEffect(r.in.writes.ops, r.ackedMix, state)
	netEffect(r.in.tail.ops, r.ackedTail, state)
	var present, absent []string
	for f, on := range state {
		if on {
			present = append(present, f)
		} else {
			absent = append(absent, f)
		}
	}
	sort.Strings(present)
	sort.Strings(absent)
	ref, err := newReference(r.ctx, r.in.program, r.in.facts, present, absent)
	if err != nil {
		return err
	}
	goals := r.verifyGoals()
	want, err := ref.answersAll(goals)
	if err != nil {
		return err
	}
	got, err := readAll(c, goals)
	if err != nil {
		return err
	}
	for i := range want {
		r.attempted.Add(1)
		if got[i] != want[i] {
			r.fail("final state: %s answered %d rows, from-scratch evaluation gives %d", goals[i], got[i].n, want[i].n)
		}
	}
	return nil
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// samples is what the measurement rounds produced.
type samples struct {
	library [3][]float64 // auto, counting, magic latencies in ms
	evals   int          // library evaluations
	hits    int          // plan-cache hits among them
	open    openResult
	satRPS  []float64 // per block of rateBlock requests
	satOps  int
}

// libraryState is the second database that serves the library phases.
type libraryState struct {
	p      *lincount.Program
	db     *lincount.Database
	cursor [3]int
}

func (r *runner) loadLibrary() (*libraryState, error) {
	p, err := lincount.ParseProgram(r.in.program)
	if err != nil {
		return nil, err
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(r.in.facts); err != nil {
		return nil, err
	}
	return &libraryState{p: p, db: db}, nil
}

func (r *runner) strategies() [3]lincount.Strategy {
	return [3]lincount.Strategy{lincount.Auto, r.spec.counting, lincount.Magic}
}

// window is the length of one round.
func (r *runner) window() time.Duration {
	return time.Duration(r.seconds / float64(r.size.rounds) * float64(time.Second))
}

// round runs the five phases once and appends what they record to out.
func (r *runner) round(lib *libraryState, c *client, out *samples) {
	window := r.window()
	share := func(s float64) time.Duration { return time.Duration(s * float64(window)) }
	for i := range out.library {
		before := len(out.library[i])
		var hits int
		out.library[i], hits = r.libraryPhase(lib, i, share(libraryShare), out.library[i])
		out.evals += len(out.library[i]) - before
		out.hits += hits
	}
	r.openLoop(c, share(openShare), &out.open)
	rates, ops := r.closedLoop(c, share(closedShare))
	out.satRPS = append(out.satRPS, rates...)
	out.satOps += ops
}

// run is the untraced benchmark of one workload: set-up ×10, 7 rounds,
// heap, 4 crash images × 4 recoveries, verification.
func (r *runner) run() (map[string]metric, error) {
	base := heapAlloc()
	n, c, setup, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		c.close()
		n.close()
	}()
	lib, err := r.loadLibrary()
	if err != nil {
		return nil, err
	}

	var data samples
	for i := 0; i < r.size.rounds; i++ {
		r.round(lib, c, &data)
	}
	heap := float64(heapAlloc()-base) / (1 << 20)

	var recovery []stages
	for i := 0; i < r.size.images; i++ {
		times, err := r.recoverOnce(n, c, i)
		if err != nil {
			return nil, err
		}
		recovery = append(recovery, times...)
	}
	if err := r.verifyFinal(c); err != nil {
		return nil, err
	}

	return map[string]metric{
		"setup_s":          startTime(setup),
		"recovery_s":       startTime(recovery),
		"live_heap_mb":     {Value: heap, Unit: "MiB"},
		"eval_auto_ms":     quiet("ms", data.library[0], false),
		"eval_counting_ms": quiet("ms", data.library[1], false),
		"eval_magic_ms":    quiet("ms", data.library[2], false),
		"read_ms":          quiet("ms", data.open.reads, false),
		"write_ms":         quiet("ms", data.open.writes, false),
		"sat_rps":          quiet("1/s", data.satRPS, true),
	}, nil
}
