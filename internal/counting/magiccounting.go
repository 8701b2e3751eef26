package counting

import (
	"context"

	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/term"
)

// The magic-counting method (Saccà & Zaniolo, SIGMOD 1987 — reference [16]
// of the paper) combines the counting and magic-set methods so that
// counting's speed is obtained where the data permits it and magic's
// safety where it does not. The paper positions Algorithm 2 against it.
//
// We implement the method's decision procedure in its practical form: probe
// the left-part graph reachable from the query constants; if it is acyclic,
// the (fast, level-collapsing) extended counting program is safe and is
// used; if a back arc is found, fall back to the magic-set program. The
// probe is phase 1 of the runtime, so its cost is one traversal of the
// reachable left graph, and a runtime that was probed carries on into
// phase 2 from what the probe built. The Auto planner ranks on the same
// verdict (internal/plan caches it per query and data state).

// LeftGraphProbe is the result of probing the left-part graph.
type LeftGraphProbe struct {
	// Acyclic reports whether the reachable left graph has no back arc.
	Acyclic bool
	// Nodes is the number of reachable counting nodes, the source included.
	Nodes int
	// Arcs is the number of distinct left-part instantiations among them.
	Arcs int
	// BackArcs counts the back arcs found (0 when Acyclic).
	BackArcs int
	// Layered reports that the graph is acyclic and every node is reached
	// along one path shape only: all paths from the source to it spell the
	// same sequence of (rule, C_r) labels. Exactly then the list-based
	// rewrite (Algorithm 1), whose counting set holds one tuple per node
	// and path shape, is no larger than the runtime's node set; a shortcut
	// or a second rule into a node multiplies it (§3.4's n² case).
	Layered bool
}

// Probe builds the counting set (phase 1) and classifies the left graph.
// A later Run on the same runtime starts from the set Probe built.
func (rt *Runtime) Probe() (LeftGraphProbe, error) {
	sp := rt.opts.Tracer.Begin("counting", "counting.probe")
	err := rt.opts.Inject.Hit(faultinject.SiteCountingProbe)
	if err == nil {
		err = rt.buildCountingSet()
	}
	rt.endBuildSpan(sp)
	if err != nil {
		return LeftGraphProbe{}, err
	}
	// Every arc became one entry; the source's nil entry is the one extra.
	st := rt.Stats()
	probe := LeftGraphProbe{
		Acyclic:  st.BackEntries == 0,
		Nodes:    st.CountingNodes,
		Arcs:     st.AheadEntries + st.BackEntries - 1,
		BackArcs: st.BackEntries,
	}
	probe.Layered = probe.Acyclic && rt.layered()
	return probe, nil
}

// layered reports whether every node of an acyclic counting set has one
// path shape. Shapes are interned as (shape of the predecessor, rule,
// C_r) triples; in topological order a node's shape is that of any of its
// entries, and the answer is no as soon as two entries disagree.
func (rt *Runtime) layered() bool {
	type step struct {
		prev int32
		rule int
		c    term.Value
	}
	shapes := map[step]int32{}
	shape := make([]int32, len(rt.nodes)) // the source's is 0, the empty path
	for i := len(rt.finished) - 1; i >= 0; i-- {
		id := rt.finished[i]
		for k, e := range rt.nodes[id].ahead {
			if e.rule < 0 {
				continue // the source's nil entry
			}
			st := step{shape[e.node], e.rule, e.c}
			s, ok := shapes[st]
			if !ok {
				s = int32(len(shapes) + 1)
				shapes[st] = s
			}
			if k == 0 {
				shape[id] = s
			} else if s != shape[id] {
				return false
			}
		}
	}
	return true
}

// ProbeLeftGraphContext explores the left-part graph of the analyzed
// query over db and classifies it, under a context, which the
// exploration polls cooperatively, and under the runtime's options: the
// node budget (MaxTuples, 0 = default), the fault injector and the
// tracer.
func ProbeLeftGraphContext(ctx context.Context, an *Analysis, db *database.Database, opts RuntimeOptions) (LeftGraphProbe, error) {
	rt, err := NewRuntimeContext(ctx, an, db, opts)
	if err != nil {
		return LeftGraphProbe{}, err
	}
	return rt.Probe()
}
