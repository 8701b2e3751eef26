package database

import (
	"fmt"

	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Op is one ordered write: fact text (the LoadText format) to assert, or
// with Retract set to retract. A write batch is an []Op; the WAL logs it
// as one record per epoch, and recovery, the server's writer and
// incremental maintenance all apply it through Simulate.
type Op struct {
	// Retract selects retraction; false means assertion.
	Retract bool
	// Text is the fact text ("up(a,b). flat(b,c).").
	Text string
}

// OpError reports that op Index of a batch was rejected (syntax error,
// non-fact clause, arity clash). The whole batch is rejected with it;
// nothing was applied.
type OpError struct {
	// Index is the position of the offending op in the batch.
	Index int
	// Err is the underlying parse or validation error.
	Err error
}

func (e *OpError) Error() string { return e.Err.Error() }
func (e *OpError) Unwrap() error { return e.Err }

// Batch is the net effect of an ordered op list on one database state,
// computed by Simulate and applied by Commit (or, fact for fact, by
// incremental maintenance).
type Batch struct {
	// RetractedPerOp[i] is how many facts retract op i removed — what
	// RetractText would have returned at that point of a sequential
	// application; 0 for asserts.
	RetractedPerOp []int
	// Ins holds, per predicate, the facts absent before the batch and
	// present after it; Del the reverse. InsOrder and DelOrder list their
	// predicates in the order the batch first touched them, and Inserted
	// and Deleted count their facts.
	Ins, Del           map[symtab.Sym]*Relation
	InsOrder, DelOrder []symtab.Sym
	Inserted, Deleted  int
	// Created maps every predicate whose relation the batch's asserts
	// introduce to its arity. Sequential application leaves those
	// relations in place (and their arity binding) even where the
	// batch's net effect on them is empty.
	Created map[symtab.Sym]int
}

// simRel is one predicate's membership model during Simulate: every
// tuple the batch touches gets a dense row in touched, with its presence
// before the batch and as of the current op.
type simRel struct {
	touched       *Relation
	present0, cur []bool
}

// Simulate computes, without changing db, the net effect of applying ops
// to db in order — asserts as LoadText, retracts as RetractText. A batch
// that Simulate accepts and Commit applies leaves db with the facts,
// relations and per-op retract counts of that sequential application.
// The first op sequential application would fail fails the batch with an
// *OpError carrying its index. check, when non-nil, is one more rule
// every fact of every op must pass (incremental maintenance holds
// writes to the program's arities with it).
func (db *Database) Simulate(ops []Op, check func(pred symtab.Sym, args []term.Value) error) (*Batch, error) {
	b := &Batch{
		RetractedPerOp: make([]int, len(ops)),
		Ins:            make(map[symtab.Sym]*Relation),
		Del:            make(map[symtab.Sym]*Relation),
		Created:        make(map[symtab.Sym]int),
	}
	syms := db.bank.Symbols()
	arityOf := func(pred symtab.Sym) (int, bool) {
		if r := db.rels[pred]; r != nil {
			return r.arity, true
		}
		n, ok := b.Created[pred]
		return n, ok
	}
	sim := make(map[symtab.Sym]*simRel)
	var touched []symtab.Sym
	// staged is an assert op's arity per predicate (LoadText's staging);
	// rank is a retract op's first-appearance order of predicates, which
	// is the order RetractText checks their arities in.
	staged := make(map[symtab.Sym]int)
	rank := make(map[symtab.Sym]int)
	for i, op := range ops {
		clear(staged)
		clear(rank)
		var arityErr error
		badRank := 0
		err := parser.ParseFacts(db.bank, op.Text, func(pred symtab.Sym, args []term.Value) error {
			if check != nil {
				if err := check(pred, args); err != nil {
					return err
				}
			}
			if op.Retract {
				r, ok := rank[pred]
				if !ok {
					r = len(rank)
					rank[pred] = r
				}
				n, exists := arityOf(pred)
				if !exists {
					return nil // retracting from an absent relation is a no-op
				}
				if n != len(args) {
					if arityErr == nil || r < badRank {
						arityErr = fmt.Errorf("database: predicate %s used with arity %d and %d",
							syms.String(pred), n, len(args))
						badRank = r
					}
					return nil
				}
			} else {
				n, ok := staged[pred]
				if !ok {
					if len(args) > maxArity {
						return fmt.Errorf("database: predicate %s has arity %d, the maximum is %d",
							syms.String(pred), len(args), maxArity)
					}
					if n, ok = arityOf(pred); !ok {
						n = len(args)
					}
					staged[pred] = n
				}
				if n != len(args) {
					return fmt.Errorf("database: predicate %s used with arity %d and %d",
						syms.String(pred), n, len(args))
				}
			}
			s := sim[pred]
			if s == nil {
				s = &simRel{touched: NewRelation(len(args))}
				sim[pred] = s
				touched = append(touched, pred)
			}
			id, added := s.touched.InsertRow(args)
			if added {
				p0 := false
				if r := db.rels[pred]; r != nil {
					p0 = r.Contains(args)
				}
				s.present0 = append(s.present0, p0)
				s.cur = append(s.cur, p0)
			}
			if !op.Retract {
				s.cur[id] = true
			} else if s.cur[id] {
				s.cur[id] = false
				b.RetractedPerOp[i]++
			}
			return nil
		})
		if err == nil {
			err = arityErr
		}
		if err != nil {
			return nil, &OpError{Index: i, Err: err}
		}
		for pred, n := range staged {
			if _, ok := arityOf(pred); !ok {
				b.Created[pred] = n
			}
		}
	}

	for _, pred := range touched {
		s := sim[pred]
		for id := RowID(0); int(id) < s.touched.Len(); id++ {
			var net map[symtab.Sym]*Relation
			switch {
			case !s.present0[id] && s.cur[id]:
				net = b.Ins
				if net[pred] == nil {
					b.InsOrder = append(b.InsOrder, pred)
				}
				b.Inserted++
			case s.present0[id] && !s.cur[id]:
				net = b.Del
				if net[pred] == nil {
					b.DelOrder = append(b.DelOrder, pred)
				}
				b.Deleted++
			default:
				continue
			}
			if net[pred] == nil {
				net[pred] = NewRelation(s.touched.arity)
			}
			net[pred].Insert(s.touched.Row(id))
		}
	}
	return b, nil
}

// Commit applies a batch Simulate computed against db's current state:
// the relations it creates, then its net deletions and insertions.
func (db *Database) Commit(b *Batch) error {
	for pred, n := range b.Created {
		if _, err := db.Ensure(pred, n); err != nil {
			return err
		}
	}
	for _, pred := range b.DelOrder {
		if _, err := db.RetractBatch(pred, b.Del[pred].Tuples()); err != nil {
			return err
		}
	}
	for _, pred := range b.InsOrder {
		ins := b.Ins[pred]
		rel, err := db.Ensure(pred, ins.arity)
		if err != nil {
			return err
		}
		rel.Reserve(ins.Len())
		for id := RowID(0); int(id) < ins.Len(); id++ {
			rel.Insert(ins.Row(id))
		}
	}
	return nil
}
