package counting

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/term"
)

// Provenance support: because every answer-phase tuple is produced by
// either an exit rule at a counting node or by undoing one recursive rule
// from another tuple, recording the first parent of each tuple yields a
// derivation witness for every answer at negligible cost — a benefit of
// the pointer-based counting structure the paper's §3.4 representation
// makes explicit.

// StepKind classifies one derivation step.
type StepKind uint8

const (
	// StepExit: the tuple was seeded by an exit rule at a counting node.
	StepExit StepKind = iota
	// StepMove: the tuple was derived by undoing a recursive rule's left
	// step (consuming a predecessor entry).
	StepMove
	// StepSame: the tuple was derived by a left-linear rule at the same
	// node.
	StepSame
)

// DerivationStep is one step of a witness, in derivation order (exit
// first, answer last).
type DerivationStep struct {
	Kind StepKind
	// Rule is the source rule (exit or recursive) of this step.
	Rule ast.Rule
	// Node renders the counting node the step landed on.
	Node string
	// Tuple renders the answer tuple after the step.
	Tuple string
}

// Derivation is a full witness for one answer.
type Derivation struct {
	Steps []DerivationStep
}

// Format renders the derivation as indented text.
func (d *Derivation) Format(bank *term.Bank) string {
	var sb strings.Builder
	for i, s := range d.Steps {
		switch s.Kind {
		case StepExit:
			fmt.Fprintf(&sb, "%2d. exit  %-30s at node %s -> %s\n",
				i+1, ast.FormatRule(bank, s.Rule), s.Node, s.Tuple)
		case StepMove:
			fmt.Fprintf(&sb, "%2d. undo  %-30s back to node %s -> %s\n",
				i+1, ast.FormatRule(bank, s.Rule), s.Node, s.Tuple)
		default:
			fmt.Fprintf(&sb, "%2d. apply %-30s at node %s -> %s\n",
				i+1, ast.FormatRule(bank, s.Rule), s.Node, s.Tuple)
		}
	}
	return sb.String()
}

// tupleMeta records how a tuple was first derived. The meta slice runs
// parallel to the runtime's dense tuple ids: meta[id] describes tuple id,
// and parent is itself a tuple id (-1 for exit seeds).
type tupleMeta struct {
	kind   StepKind
	rule   int // Exit: index into an.Exit; Move/Same: index into an.Rec
	parent int32
}

// enableProvenance switches the runtime into recording mode; it must be
// called before Run.
func (rt *Runtime) enableProvenance() {
	rt.provenance = true
}

// Explain returns a derivation witness for one goal answer (a tuple of the
// goal's free arguments, as returned in RunResult.Answers). Run must have
// been executed with provenance enabled (see RunWithProvenance).
func (rt *Runtime) Explain(answer database.Tuple) (*Derivation, error) {
	if !rt.provenance {
		return nil, fmt.Errorf("counting: provenance was not recorded; use RunWithProvenance")
	}
	id := rt.findTuple(rt.an.GoalPred, answer, 0)
	if id < 0 {
		return nil, fmt.Errorf("counting: no such answer")
	}
	// Walk parents back to the exit seed, collecting steps in reverse,
	// starting with the kept steps from where the answer was derived to
	// the source.
	rev := rt.keptSteps(id)
	cur := id
	for {
		if int(cur) >= len(rt.meta) {
			return nil, fmt.Errorf("counting: provenance chain broken at tuple %d", cur)
		}
		m := rt.meta[cur]
		step := DerivationStep{
			Kind:  m.kind,
			Node:  rt.formatNode(rt.tuples[cur].at),
			Tuple: rt.formatTuple(cur, rt.tuples[cur].at),
		}
		switch m.kind {
		case StepExit:
			step.Rule = rt.an.Exit[m.rule].Rule
		default:
			step.Rule = rt.an.Rec[m.rule].Rule
		}
		rev = append(rev, step)
		if m.kind == StepExit {
			break
		}
		cur = m.parent
		if m.kind == StepMove {
			rev = append(rev, rt.keptSteps(cur)...)
		}
	}
	// Reverse into derivation order.
	d := &Derivation{Steps: make([]DerivationStep, len(rev))}
	for i, s := range rev {
		d.Steps[len(rev)-1-i] = s
	}
	return d, nil
}

func (rt *Runtime) formatNode(id int32) string {
	vals := rt.nodeVals(id)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = rt.bank.Format(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// keptSteps returns, last first, the undo steps that carried tuple id
// unchanged from the node it was derived at to the node its moves start
// from: steps by rules that keep answers, which phase 2 takes for free
// (see classify) and a witness spells out.
func (rt *Runtime) keptSteps(id int32) []DerivationStep {
	var steps []DerivationStep
	for at := rt.tuples[id].at; at != rt.via[at]; {
		e := rt.nodes[at].ahead[0]
		at = e.node
		steps = append(steps, DerivationStep{Kind: StepMove, Rule: rt.an.Rec[e.rule].Rule,
			Node: rt.formatNode(at), Tuple: rt.formatTuple(id, at)})
	}
	slices.Reverse(steps)
	return steps
}

// formatTuple renders tuple id as held at node at.
func (rt *Runtime) formatTuple(id, at int32) string {
	frees := rt.tupleFrees(id)
	parts := make([]string, len(frees))
	for i, v := range frees {
		parts[i] = rt.bank.Format(v)
	}
	return rt.bank.Symbols().String(rt.tuples[id].pred) + "(" + strings.Join(parts, ",") + ")@" + rt.formatNode(at)
}

// RunWithProvenance runs the query recording derivation parents, and
// returns the runtime (for Explain) along with the result.
func RunWithProvenance(an *Analysis, db *database.Database, opts RuntimeOptions) (*Runtime, *RunResult, error) {
	return RunWithProvenanceContext(context.Background(), an, db, opts)
}

// RunWithProvenanceContext is RunWithProvenance under a context (see
// NewRuntimeContext).
func RunWithProvenanceContext(ctx context.Context, an *Analysis, db *database.Database, opts RuntimeOptions) (*Runtime, *RunResult, error) {
	rt, err := NewRuntimeContext(ctx, an, db, opts)
	if err != nil {
		return nil, nil, err
	}
	rt.enableProvenance()
	res, err := rt.Run()
	if err != nil {
		return nil, nil, err
	}
	return rt, res, nil
}
