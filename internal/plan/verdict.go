package plan

import (
	"lincount/internal/counting"
	"lincount/internal/database"
	"lincount/internal/symtab"
)

// Verdict is what the data says about one query's binding: the probe of
// the left-part graph reachable from the query constants — acyclic or
// not, how many nodes, how many arcs — together with the stamps of the
// relations it was read from. It is the one data-dependent input of the
// ranking; a Shared caches the latest.
type Verdict struct {
	counting.LeftGraphProbe
	stamps []database.Stamp // parallel to Shared.leftReads
}

// leftReads returns the predicates (original symbols) whose extension
// decides the left graph: those of the recursive rules' left parts and,
// through the program's rules, everything they are defined from. Facts
// embedded in the program are part of the Shared's identity already.
func (s *Shared) leftReads(an *counting.Analysis) []symtab.Sym {
	s.leftOnce.Do(func() {
		seen := map[symtab.Sym]bool{}
		add := func(p symtab.Sym) {
			if orig, ok := an.Adorned.Base[p]; ok {
				p = orig
			}
			if !seen[p] {
				seen[p] = true
				s.left = append(s.left, p)
			}
		}
		for i := range an.Rec {
			r := &an.Rec[i]
			for _, li := range r.Left {
				add(r.Rule.Body[li].Pred)
			}
		}
		for i := 0; i < len(s.left); i++ {
			for _, r := range s.prog.Rules {
				if r.Head.Pred != s.left[i] {
					continue
				}
				for _, l := range r.Body {
					add(l.Pred)
				}
			}
		}
	})
	return s.left
}

// Verdict returns the left-graph verdict of the query over db (nil = no
// database, only the program's own facts). The cached verdict answers —
// hit — while every relation the left parts read carries the stamp it
// had when the verdict was taken: a write elsewhere keeps it, and so does
// a fork that still shares those relations. Otherwise probe explores the
// graph and its result replaces the cached one; a probe error is
// returned and caches nothing. The query must be in the counting class
// (s.Analysis succeeds). Concurrent callers may each probe; every one of
// them gets a verdict that is right for its db.
func (s *Shared) Verdict(db *database.Database, probe func() (counting.LeftGraphProbe, error)) (v *Verdict, hit bool, err error) {
	an, err := s.Analysis()
	if err != nil {
		return nil, false, err
	}
	reads := s.leftReads(an)
	stamp := func(i int) database.Stamp {
		if db == nil {
			return database.Stamp{}
		}
		return db.Relation(reads[i]).Stamp()
	}
	if v := s.verdict.Load(); v != nil {
		fresh := true
		for i := range reads {
			if v.stamps[i] != stamp(i) {
				fresh = false
				break
			}
		}
		if fresh {
			return v, true, nil
		}
	}
	v = &Verdict{stamps: make([]database.Stamp, len(reads))}
	for i := range reads {
		v.stamps[i] = stamp(i)
	}
	if v.LeftGraphProbe, err = probe(); err != nil {
		return nil, false, err
	}
	s.verdict.Store(v)
	return v, false, nil
}
