package counting

import (
	"context"

	"lincount/internal/database"
	"lincount/internal/faultinject"
)

// The magic-counting method (Saccà & Zaniolo, SIGMOD 1987 — reference [16]
// of the paper) combines the counting and magic-set methods so that
// counting's speed is obtained where the data permits it and magic's
// safety where it does not. The paper positions Algorithm 2 against it.
//
// We implement the method's decision procedure in its practical form: probe
// the left-part graph reachable from the query constants; if it is acyclic,
// the (fast, level-collapsing) reduced counting program is safe and is
// used; if a back arc is found, fall back to the magic-set program. The
// probe is phase 1 of the runtime, so its cost is one traversal of the
// reachable left graph. The runtime itself needs no such decision: it
// splits the nodes into regular ones, which share answer tuples by path
// shape, and the rest, which keep their own (see classify).

// ProbeAcyclic explores the left-part graph of the analyzed query over db
// and reports whether it has no back arc. The exploration polls ctx
// cooperatively and runs under the runtime's options: the node budget
// (MaxTuples, 0 = default), the fault injector and the tracer.
func ProbeAcyclic(ctx context.Context, an *Analysis, db *database.Database, opts RuntimeOptions) (bool, error) {
	rt, err := NewRuntimeContext(ctx, an, db, opts)
	if err != nil {
		return false, err
	}
	sp := opts.Tracer.Begin("counting", "counting.probe")
	err = opts.Inject.Hit(faultinject.SiteCountingProbe)
	if err == nil {
		err = rt.buildCountingSet()
	}
	rt.endBuildSpan(sp)
	if err != nil {
		return false, err
	}
	return rt.Stats().BackEntries == 0, nil
}
