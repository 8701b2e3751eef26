// Package faultinject is the deterministic fault-injection core of the
// chaos harness: a seedable injector whose hook sites are threaded
// through the hot paths every evaluator already instruments for
// cancellation (relation inserts and probes, fixpoint iterations,
// counting-runtime steps, QSQ probes and passes). A rule fires an
// injected error, an artificial latency, or a cancellation storm at a
// site, either probabilistically (seeded PRNG, reproducible) or on an
// exact hit count.
//
// The package follows the same zero-overhead-when-disabled discipline as
// limits.Checker: a nil *Injector is a valid no-op whose Hit method
// returns nil after a single pointer comparison, so evaluations that do
// not opt in pay nothing.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Hook sites. Every evaluator names the points where it consults the
// injector; specs reference these names (or "*" for all of them).
const (
	// SiteEngineInsert: a derived tuple was inserted into a relation by
	// the bottom-up engine (semi-naive, naive, and every rewritten
	// program evaluated by the rule engine).
	SiteEngineInsert = "engine.insert"
	// SiteEngineProbe: an index probe or scan inside the engine's join.
	SiteEngineProbe = "engine.probe"
	// SiteEngineIter: one fixpoint round of a recursive component.
	SiteEngineIter = "engine.iter"
	// SiteCountingNode: the counting runtime interned a new counting-set
	// node (phase 1 of Algorithm 2).
	SiteCountingNode = "counting.node"
	// SiteCountingStep: the counting runtime derived an answer tuple
	// (phase 2 of Algorithm 2).
	SiteCountingStep = "counting.step"
	// SiteTopdownProbe: one input row QSQ feeds to a rule's solves.
	SiteTopdownProbe = "topdown.probe"
	// SiteTopdownPass: one global QSQ fixpoint sweep.
	SiteTopdownPass = "topdown.pass"
	// SiteServerApply: the query server's write batcher is about to
	// apply one write request's asserts/retracts to the next epoch's
	// fork. Injected errors here are retryable: the batcher discards the
	// fork and retries the batch with backoff.
	SiteServerApply = "server.write"
	// SiteServerPublish: the query server is about to publish a fully
	// applied write batch as the next epoch snapshot. Fires after the
	// fork is complete and before readers can see it, so an injected
	// error proves readers never observe a half-applied batch.
	SiteServerPublish = "server.publish"
	// SiteWALAppend: the write-ahead log is about to append one batch
	// record. Fires before any byte is written, so an injected error
	// proves a failed append leaves the log intact and the batch
	// retryable.
	SiteWALAppend = "wal.append"
	// SiteWALFsync: the write-ahead log is about to fsync the segment.
	// Fires after the record's bytes are written, so an injected error
	// proves the writer rolls the un-synced frame back before retrying.
	SiteWALFsync = "wal.fsync"
	// SiteWALCheckpoint: a checkpoint is about to write its snapshot
	// (after the segment rotation, before the manifest swap). An
	// injected error proves an aborted checkpoint leaves a recoverable
	// manifest/segment pair behind.
	SiteWALCheckpoint = "wal.checkpoint"
	// SiteWALReplay: boot-time recovery is about to apply one replayed
	// WAL record. An injected error proves recovery fails closed rather
	// than serving from a half-replayed database.
	SiteWALReplay = "wal.replay"
)

// Sites lists every known hook site, sorted, for validation and help
// text.
func Sites() []string {
	s := []string{
		SiteEngineInsert, SiteEngineProbe, SiteEngineIter,
		SiteCountingNode, SiteCountingStep,
		SiteTopdownProbe, SiteTopdownPass,
		SiteServerApply, SiteServerPublish,
		SiteWALAppend, SiteWALFsync, SiteWALCheckpoint, SiteWALReplay,
	}
	sort.Strings(s)
	return s
}

var knownSites = func() map[string]bool {
	m := make(map[string]bool)
	for _, s := range Sites() {
		m[s] = true
	}
	return m
}()

// ErrInjected is the sentinel every injected fault matches:
// errors.Is(err, ErrInjected) distinguishes a deliberately injected
// failure from a genuine one. The degradation chain treats injected
// faults as retryable.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedError is the structured error an err-rule returns: the site it
// fired at and the 1-based hit count at that site.
type InjectedError struct {
	Site string
	Hit  uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected fault at %s (hit %d)", e.Site, e.Hit)
}

// Is makes errors.Is(err, ErrInjected) report true.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

type actionKind int

const (
	actErr actionKind = iota
	actDelay
	actCancel
)

func (k actionKind) String() string {
	switch k {
	case actErr:
		return "err"
	case actDelay:
		return "delay"
	default:
		return "cancel"
	}
}

// rule is one armed fault: fire action at site, either on exactly the
// nth hit (nth > 0) or with probability p per hit.
type rule struct {
	site  string // "" for wildcard rules kept in their own list
	kind  actionKind
	nth   uint64
	p     float64
	delay time.Duration
}

func (r rule) String() string {
	var sb strings.Builder
	sb.WriteString(r.site)
	sb.WriteByte('=')
	sb.WriteString(r.kind.String())
	if r.nth > 0 {
		fmt.Fprintf(&sb, "@%d", r.nth)
	} else {
		fmt.Fprintf(&sb, "~%g", r.p)
	}
	if r.kind == actDelay {
		fmt.Fprintf(&sb, ":%s", r.delay)
	}
	return sb.String()
}

// Injector decides, deterministically from its seed, whether each hook
// hit fires a fault. The zero value is not usable; call New or
// ParseSpec. A nil *Injector is a valid disabled injector.
//
// Injectors are safe for concurrent use: decisions are made under a
// mutex; the per-site hit counters are part of the deterministic state.
// Note that under concurrency the interleaving of hits across goroutines
// is scheduling-dependent, so probabilistic rules stay reproducible only
// for sequential evaluations.
type Injector struct {
	mu     sync.Mutex
	rng    uint64
	rules  map[string][]rule
	global []rule // wildcard "*" rules
	hits   map[string]uint64
	fired  uint64
	cancel func()
}

// New returns an injector with no rules armed, seeded for reproducible
// probabilistic decisions.
func New(seed int64) *Injector {
	return &Injector{
		rng:   uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		rules: map[string][]rule{},
		hits:  map[string]uint64{},
	}
}

// splitmix64 advances the PRNG state and returns the next value.
func (in *Injector) next() uint64 {
	in.rng += 0x9e3779b97f4a7c15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws a uniform [0,1) float and compares it against p.
func (in *Injector) chance(p float64) bool {
	return float64(in.next()>>11)/(1<<53) < p
}

func (in *Injector) arm(site string, r rule) {
	r.site = site
	if site == "*" {
		in.global = append(in.global, r)
		return
	}
	in.rules[site] = append(in.rules[site], r)
}

// FailAt arms an injected error on exactly the nth hit (1-based) at
// site ("*" = every site).
func (in *Injector) FailAt(site string, nth uint64) {
	in.arm(site, rule{kind: actErr, nth: nth})
}

// Fail arms an injected error with probability p per hit at site.
func (in *Injector) Fail(site string, p float64) {
	in.arm(site, rule{kind: actErr, p: p})
}

// DelayAt arms an artificial latency on exactly the nth hit at site.
func (in *Injector) DelayAt(site string, nth uint64, d time.Duration) {
	in.arm(site, rule{kind: actDelay, nth: nth, delay: d})
}

// Delay arms an artificial latency with probability p per hit at site.
func (in *Injector) Delay(site string, p float64, d time.Duration) {
	in.arm(site, rule{kind: actDelay, p: p, delay: d})
}

// CancelAt arms a cancellation storm on exactly the nth hit at site: the
// function registered with BindCancel is invoked, so the evaluation
// unwinds through its ordinary cooperative-cancellation path.
func (in *Injector) CancelAt(site string, nth uint64) {
	in.arm(site, rule{kind: actCancel, nth: nth})
}

// Cancel arms a cancellation storm with probability p per hit at site.
func (in *Injector) Cancel(site string, p float64) {
	in.arm(site, rule{kind: actCancel, p: p})
}

// BindCancel registers the function cancel-rules invoke (typically a
// context.CancelFunc wrapping the evaluation context).
func (in *Injector) BindCancel(fn func()) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.cancel = fn
	in.mu.Unlock()
}

// WantsCancel reports whether any armed rule is a cancellation, so the
// caller knows it must wrap its context and BindCancel.
func (in *Injector) WantsCancel() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rs := range in.rules {
		for _, r := range rs {
			if r.kind == actCancel {
				return true
			}
		}
	}
	for _, r := range in.global {
		if r.kind == actCancel {
			return true
		}
	}
	return false
}

// Fired reports how many faults (of any kind) have fired so far.
func (in *Injector) Fired() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// Hit records one pass through a hook site and returns the injected
// error if an err-rule fired; delay- and cancel-rules act as side
// effects and return nil. A nil injector returns nil immediately — this
// is the only call on the hot paths.
func (in *Injector) Hit(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	n := in.hits[site] + 1
	in.hits[site] = n
	var firedKind actionKind
	var firedDelay time.Duration
	var firedErr error
	match := func(r rule) bool {
		if r.nth > 0 {
			return n == r.nth
		}
		return in.chance(r.p)
	}
	for _, list := range [][]rule{in.rules[site], in.global} {
		for _, r := range list {
			if firedErr != nil {
				break
			}
			if !match(r) {
				continue
			}
			in.fired++
			switch r.kind {
			case actErr:
				firedErr = &InjectedError{Site: site, Hit: n}
			case actDelay:
				firedKind, firedDelay = actDelay, r.delay
			case actCancel:
				firedKind = actCancel
			}
		}
	}
	cancel := in.cancel
	in.mu.Unlock()

	// Side effects happen outside the lock so a sleeping or canceling
	// rule never blocks concurrent strata's decisions.
	if firedErr != nil {
		return firedErr
	}
	switch firedKind {
	case actDelay:
		time.Sleep(firedDelay)
	case actCancel:
		if cancel != nil {
			cancel()
		}
	}
	return nil
}

// String renders the armed rules in spec syntax, deterministically
// ordered; useful for logging chaos schedules.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var parts []string
	sites := make([]string, 0, len(in.rules))
	for s := range in.rules {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	for _, s := range sites {
		for _, r := range in.rules[s] {
			parts = append(parts, r.String())
		}
	}
	for _, r := range in.global {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// ParseSpec builds an injector from a fault schedule in the compact
// clause syntax used by tests and CLI flags. Clauses are comma-
// separated; each is
//
//	site=kind@N         fire kind on exactly the Nth hit at site
//	site=kind~P         fire kind with probability P per hit
//	site=delay@N:dur    delay rules carry a duration suffix
//	site=delay~P:dur
//
// where kind is err, delay or cancel, and site is one of Sites() or "*"
// for every site. Example:
//
//	engine.insert=err@100,counting.step=err~0.01,engine.iter=cancel@5
func ParseSpec(seed int64, spec string) (*Injector, error) {
	in := New(seed)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, rest, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want site=kind@N or site=kind~P", clause)
		}
		site = strings.TrimSpace(site)
		if site != "*" && !knownSites[site] {
			return nil, fmt.Errorf("faultinject: unknown site %q (known: %s, or *)",
				site, strings.Join(Sites(), " "))
		}
		var r rule
		switch {
		case strings.Contains(rest, "@"):
			kind, arg, _ := strings.Cut(rest, "@")
			nth, err := strconv.ParseUint(strings.TrimSpace(cutDelay(&r, arg)), 10, 64)
			if err != nil || nth == 0 {
				return nil, fmt.Errorf("faultinject: clause %q: hit count must be a positive integer", clause)
			}
			r.nth = nth
			rest = kind
		case strings.Contains(rest, "~"):
			kind, arg, _ := strings.Cut(rest, "~")
			p, err := strconv.ParseFloat(strings.TrimSpace(cutDelay(&r, arg)), 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: clause %q: probability must be in [0,1]", clause)
			}
			r.p = p
			rest = kind
		default:
			return nil, fmt.Errorf("faultinject: clause %q: missing trigger (@N or ~P)", clause)
		}
		switch strings.TrimSpace(rest) {
		case "err":
			r.kind = actErr
		case "delay":
			r.kind = actDelay
			if r.delay == 0 {
				return nil, fmt.Errorf("faultinject: clause %q: delay rules need a :duration suffix", clause)
			}
		case "cancel":
			r.kind = actCancel
		default:
			return nil, fmt.Errorf("faultinject: clause %q: unknown kind %q (err, delay, cancel)", clause, rest)
		}
		if r.kind != actDelay && r.delay != 0 {
			return nil, fmt.Errorf("faultinject: clause %q: only delay rules take a :duration", clause)
		}
		in.arm(site, r)
	}
	return in, nil
}

// cutDelay strips an optional ":duration" suffix from arg into r and
// returns the remainder. Parse failures leave r.delay zero so the caller
// reports the clause error.
func cutDelay(r *rule, arg string) string {
	head, dur, ok := strings.Cut(arg, ":")
	if !ok {
		return arg
	}
	d, err := time.ParseDuration(strings.TrimSpace(dur))
	if err == nil && d > 0 {
		r.delay = d
	}
	return head
}
