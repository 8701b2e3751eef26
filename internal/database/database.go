// Package database implements the extensional store: named relations of
// ground tuples with lazily built hash indexes keyed by any subset of
// columns. It is the substrate every evaluation strategy reads base facts
// from; derived (intensional) facts live in engine-local Relations of the
// same type.
//
// Storage is columnar in spirit: a relation holds all its tuples in one
// flat arena addressed by dense RowID (see arena.go), dedup and indexes
// are open-addressing tables hashing straight out of the arena, and the
// probe path allocates nothing. Tuple remains as a compatibility view
// type; Row/Probe/Scan are the zero-copy API.
package database

import (
	"fmt"
	"sort"
	"sync"

	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Tuple is one row of a relation. All values are ground. Tuples returned
// by Row/At/Tuples are views into the relation's arena: valid until the
// relation is Reset, and never to be mutated.
type Tuple []term.Value

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Relation is a set of same-arity tuples stored in one flat arena and
// addressed by dense RowID, with optional open-addressing column indexes.
// The zero value is not usable; call NewRelation.
//
// Concurrency: a Relation has a single writer. Concurrent readers are safe
// (index construction is internally synchronized), but reading while the
// writer inserts is not; the query server's readers rely on published
// snapshot relations being read-only.
type Relation struct {
	arity   int
	rows    int
	arena   []term.Value
	dedup   dedupTable
	indexMu sync.Mutex
	indexes map[uint64]*rowIndex
}

// maxArity is the widest relation: index masks are 64-bit.
const maxArity = 63

// NewRelation returns an empty relation of the given arity.
// Arity must be between 0 and maxArity.
func NewRelation(arity int) *Relation {
	if arity < 0 || arity > maxArity {
		panic(fmt.Sprintf("database: unsupported arity %d", arity))
	}
	return &Relation{
		arity:   arity,
		indexes: make(map[uint64]*rowIndex),
	}
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Reset removes all tuples but keeps allocated capacity: the arena, the
// dedup table and every index keep their backing storage. Used by
// evaluators that refill a scratch relation in a hot loop. Row views
// handed out before the Reset are invalidated.
func (r *Relation) Reset() {
	r.rows = 0
	r.arena = r.arena[:0]
	for i := range r.dedup.slots {
		r.dedup.slots[i] = noRow
	}
	r.dedup.used = 0
	for _, ix := range r.indexes {
		for i := range ix.slots {
			ix.slots[i] = -1
		}
		ix.keys = ix.keys[:0]
		ix.next = ix.next[:0]
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.rows }

// ArenaLen returns the number of term values held in the arena; a cheap
// proxy for the relation's resident data size, surfaced in Stats.
func (r *Relation) ArenaLen() int { return len(r.arena) }

// fullMask covers all columns.
func (r *Relation) fullMask() uint64 { return (1 << uint(r.arity)) - 1 }

// Insert adds a tuple and reports whether it was new. The values are
// copied into the arena; the caller keeps ownership of t.
func (r *Relation) Insert(t Tuple) bool {
	_, added := r.InsertRow(t)
	return added
}

// InsertRow is Insert returning the tuple's RowID: the fresh id when the
// tuple is new, the existing row's id otherwise. The id is what lets
// callers keep per-row side tables (the incremental maintenance engine's
// dead flags) parallel to the relation.
func (r *Relation) InsertRow(t Tuple) (RowID, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("database: inserting arity-%d tuple into arity-%d relation", len(t), r.arity))
	}
	if (r.dedup.used+1)*4 > len(r.dedup.slots)*3 {
		r.dedupGrow()
	}
	m := uint64(len(r.dedup.slots) - 1)
	i := HashValues(t) & m
	free := -1 // first tombstone on the probe path, reusable for a new row
	for {
		row := r.dedup.slots[i]
		if row == noRow {
			break
		}
		if row == tombRow {
			if free < 0 {
				free = int(i)
			}
		} else if r.rowEqualFull(row, t) {
			return row, false
		}
		i = (i + 1) & m
	}
	id := RowID(r.rows)
	r.arena = append(r.arena, t...)
	r.rows++
	if free >= 0 {
		r.dedup.slots[free] = id // tombstone already counted in used
	} else {
		r.dedup.slots[i] = id
		r.dedup.used++
	}
	for _, ix := range r.indexes {
		r.indexAdd(ix, id)
	}
	return id, true
}

// Find returns the RowID of the row equal to t, if present.
// Allocation-free, like Contains.
func (r *Relation) Find(t Tuple) (RowID, bool) {
	if len(t) != r.arity || r.rows == 0 {
		return 0, false
	}
	m := uint64(len(r.dedup.slots) - 1)
	for i := HashValues(t) & m; ; i = (i + 1) & m {
		row := r.dedup.slots[i]
		if row == noRow {
			return 0, false
		}
		if row != tombRow && r.rowEqualFull(row, t) {
			return row, true
		}
	}
}

// Contains reports whether the relation holds the tuple. Allocation-free.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity || r.rows == 0 {
		return false
	}
	m := uint64(len(r.dedup.slots) - 1)
	for i := HashValues(t) & m; ; i = (i + 1) & m {
		row := r.dedup.slots[i]
		if row == noRow {
			return false
		}
		if row != tombRow && r.rowEqualFull(row, t) {
			return true
		}
	}
}

// Row returns the zero-copy arena view of one row. The view is valid until
// the relation is Reset (inserts never move committed rows out from under
// a view: arena growth reallocates, but the old backing array is left
// intact for outstanding views). Callers must not mutate it.
func (r *Relation) Row(id RowID) []term.Value { return r.rowSlice(id) }

// At returns the i-th tuple (insertion order) as a zero-copy view; see Row.
func (r *Relation) At(i int) Tuple { return Tuple(r.rowSlice(RowID(i))) }

// Tuples returns the rows in insertion order as a fresh slice of zero-copy
// views. It allocates the slice of headers (O(rows)); hot paths should use
// Scan/Probe iterators with Row instead.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.rows)
	for i := range out {
		out[i] = Tuple(r.rowSlice(RowID(i)))
	}
	return out
}

// ensureIndex builds (once) the index on mask. Safe for concurrent
// readers; the mutex also orders the lazily built index against them.
func (r *Relation) ensureIndex(mask uint64) *rowIndex {
	r.indexMu.Lock()
	defer r.indexMu.Unlock()
	if ix, ok := r.indexes[mask]; ok {
		return ix
	}
	ix := &rowIndex{mask: mask}
	for id := RowID(0); int(id) < r.rows; id++ {
		r.indexAdd(ix, id)
	}
	r.indexes[mask] = ix
	return ix
}

// Probe returns an iterator over the rows whose masked columns equal vals
// (bit i of mask ⇒ column i participates; vals lists exactly the masked
// columns, in column order). mask 0 is a full scan. After the index
// exists, a probe performs no allocation: the key is hashed from vals and
// compared against arena rows directly.
func (r *Relation) Probe(mask uint64, vals []term.Value) RowIter {
	return r.ProbeRange(mask, vals, 0, RowID(r.rows))
}

// ProbeRange is Probe restricted to rows in [lo, hi): the semi-naive
// engine's delta join, with deltas represented as RowID watermarks instead
// of separate relations.
func (r *Relation) ProbeRange(mask uint64, vals []term.Value, lo, hi RowID) RowIter {
	if hi > RowID(r.rows) {
		hi = RowID(r.rows)
	}
	if lo >= hi {
		return emptyIter()
	}
	if mask == 0 {
		return RowIter{cur: lo, hi: hi}
	}
	ix := r.ensureIndex(mask)
	k := r.findKey(ix, vals)
	if k < 0 {
		return emptyIter()
	}
	cur := ix.keys[k].head
	// Chains ascend by RowID; skip the prefix below lo.
	for cur != noRow && cur < lo {
		cur = ix.next[cur]
	}
	if cur == noRow || cur >= hi {
		return emptyIter()
	}
	return RowIter{next: ix.next, cur: cur, hi: hi}
}

// Scan iterates all rows in insertion order (snapshot semantics: rows
// inserted after the call are not yielded).
func (r *Relation) Scan() RowIter { return RowIter{cur: 0, hi: RowID(r.rows)} }

// ProbeIDs collects Probe's result into a fresh slice; a convenience for
// tests and non-hot callers.
func (r *Relation) ProbeIDs(mask uint64, vals []term.Value) []RowID {
	var out []RowID
	it := r.Probe(mask, vals)
	for id, ok := it.Next(); ok; id, ok = it.Next() {
		out = append(out, id)
	}
	return out
}

// Sorted returns the tuples sorted by term.Compare column-major; useful for
// deterministic test output.
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := term.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Database is a set of named relations over one term bank.
type Database struct {
	bank *term.Bank
	rels map[symtab.Sym]*Relation
	// shared marks relations still owned by a fork parent: copy-on-write
	// state, cleared per relation when a write first touches it. Nil for
	// databases that were never forked from (or into).
	shared map[symtab.Sym]bool
}

// New returns an empty database over the given bank.
func New(b *term.Bank) *Database {
	return &Database{bank: b, rels: make(map[symtab.Sym]*Relation)}
}

// Fork returns a copy-on-write fork of the database: the fork initially
// shares every relation with db, and the first write to a relation
// through the fork clones it (see CloneForAppend), so db is never
// mutated through the fork. This is the MVCC seam the query server
// builds epoch snapshots on: the published database stays immutable and
// keeps serving concurrent readers while the single writer prepares the
// next epoch in a fork and publishes it atomically.
//
// Forks are meant for a linear single-writer chain (fork the tip, write,
// publish, repeat). The fork shares db's term bank, which is safe: banks
// are internally synchronized.
func (db *Database) Fork() *Database {
	f := &Database{
		bank:   db.bank,
		rels:   make(map[symtab.Sym]*Relation, len(db.rels)),
		shared: make(map[symtab.Sym]bool, len(db.rels)),
	}
	for p, r := range db.rels {
		f.rels[p] = r
		f.shared[p] = true
	}
	return f
}

// Bank returns the term bank the database interns values in.
func (db *Database) Bank() *term.Bank { return db.bank }

// Relation returns the relation for pred, or nil if absent.
func (db *Database) Relation(pred symtab.Sym) *Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating it with the given arity if
// absent. It returns an error on arity mismatch with an existing relation.
// Ensure declares write intent: on a forked database, a relation still
// shared with the fork parent is cloned here, so the caller may insert
// into the returned relation freely. Read-only access goes through
// Relation instead.
func (db *Database) Ensure(pred symtab.Sym, arity int) (*Relation, error) {
	if r, ok := db.rels[pred]; ok {
		if r.arity != arity {
			return nil, fmt.Errorf("database: predicate %s used with arity %d and %d",
				db.bank.Symbols().String(pred), r.arity, arity)
		}
		if db.shared[pred] {
			r = r.CloneForAppend()
			db.rels[pred] = r
			delete(db.shared, pred)
		}
		return r, nil
	}
	r := NewRelation(arity)
	db.rels[pred] = r
	return r, nil
}

// RebuildWithout returns a new relation holding every row of r for which
// drop returns false, preserving insertion order. This is the O(n)
// retraction primitive, and every O(n) pass is sequential — no per-row
// hashing:
//
//   - the arena is copied in contiguous runs between dropped rows;
//   - dedup slot positions depend only on row values, which don't change,
//     so the table is remapped slot-by-slot: surviving ids shift down,
//     dropped ids become tombstones (keeping colliding probe chains
//     intact; see tombRow);
//   - column indexes are remapped the same way: chains keep their
//     relative order, so next[] is rewritten in one id-order pass, and
//     only chains whose head or tail died need any walking.
//
// The old rebuild refilled the dedup table with a hash probe per
// surviving row and dropped the indexes (another full rehash on the next
// probe) — per-epoch costs that dominated incremental maintenance of
// large materialisations under small deltas.
func (r *Relation) RebuildWithout(drop func(RowID) bool) *Relation {
	n := &Relation{
		arity:   r.arity,
		arena:   make([]term.Value, 0, len(r.arena)+AppendRoom(r.rows)*r.arity),
		indexes: make(map[uint64]*rowIndex, len(r.indexes)),
	}
	newID := make([]RowID, r.rows)
	run := 0 // first row of the current surviving run
	flush := func(end int) {
		if run < end {
			n.arena = append(n.arena, r.arena[run*r.arity:end*r.arity]...)
		}
	}
	for id := 0; id < r.rows; id++ {
		if drop != nil && drop(RowID(id)) {
			flush(id)
			run = id + 1
			newID[id] = noRow
			continue
		}
		newID[id] = RowID(n.rows)
		n.rows++
	}
	flush(r.rows)

	if len(r.dedup.slots) == 0 {
		n.dedup.slots = make([]RowID, 16)
		for i := range n.dedup.slots {
			n.dedup.slots[i] = noRow
		}
	} else {
		n.dedup.slots = make([]RowID, len(r.dedup.slots))
		used := 0
		for i, s := range r.dedup.slots {
			switch {
			case s == noRow:
				n.dedup.slots[i] = noRow
			case s == tombRow || newID[s] == noRow:
				n.dedup.slots[i] = tombRow
				used++
			default:
				n.dedup.slots[i] = newID[s]
				used++
			}
		}
		n.dedup.used = used
	}

	r.indexMu.Lock()
	for mask, ix := range r.indexes {
		n.indexes[mask] = remapIndex(ix, newID, r.rows, n.rows)
	}
	r.indexMu.Unlock()
	return n
}

// AppendRoom is the spare capacity, in rows, a rebuild of n rows leaves
// behind it (and CloneWithRoom gives a clone). A rebuild is the deletion
// half of a maintenance epoch and the insertion half appends to its
// result; an exact-size copy is copied whole once more by the first of
// those appends. Maintenance also compacts a derived relation only once
// its dead rows outgrow this room over its live rows.
func AppendRoom(n int) int { return n/64 + 64 }

// remapIndex rebuilds a column index against the compacted row ids.
// Slot positions hash row values, which are unchanged, so the slot table
// is copied as-is; keys whose whole chain died keep their slot with
// head == noRow as a tombstone (findKey, indexAdd and indexGrow skip
// those). next[] is rewritten in a single ascending-id pass; chains stay
// ascending because the rebuild preserves row order.
func remapIndex(ix *rowIndex, newID []RowID, oldRows, newRows int) *rowIndex {
	nix := &rowIndex{
		mask:  ix.mask,
		slots: append([]int32(nil), ix.slots...),
		keys:  make([]chainKey, len(ix.keys), len(ix.keys)+AppendRoom(len(ix.keys))),
		next:  make([]RowID, newRows, newRows+AppendRoom(newRows)),
	}
	for id := 0; id < oldRows; id++ {
		nid := newID[id]
		if nid == noRow {
			continue
		}
		j := ix.next[id]
		for j != noRow && newID[j] == noRow {
			j = ix.next[j]
		}
		if j == noRow {
			nix.next[nid] = noRow
		} else {
			nix.next[nid] = newID[j]
		}
	}
	for k, key := range ix.keys {
		head := key.head
		for head != noRow && newID[head] == noRow {
			head = ix.next[head]
		}
		if head == noRow {
			nix.keys[k] = chainKey{head: noRow, tail: noRow}
			continue
		}
		nh := newID[head]
		nt := nh
		if key.tail != noRow && newID[key.tail] != noRow {
			nt = newID[key.tail]
		} else {
			for nix.next[nt] != noRow {
				nt = nix.next[nt]
			}
		}
		nix.keys[k] = chainKey{head: nh, tail: nt}
	}
	return nix
}

// Retract removes one fact, reporting whether it was present. The arena
// is append-only, so retraction rebuilds the predicate's relation
// without the tuple — O(relation size); batch retractions (RetractBatch,
// RetractText) so the rebuild is paid per batch, not per fact. On a
// forked database the rebuild is itself the copy-on-write step: the
// parent's relation is never touched.
func (db *Database) Retract(pred symtab.Sym, t Tuple) (bool, error) {
	n, err := db.RetractBatch(pred, []Tuple{t})
	return n > 0, err
}

// RetractBatch removes every listed tuple from pred's relation with a
// single capacity-reusing rebuild, returning how many were actually
// present (duplicates in tuples count once). Absent tuples are no-ops.
// Each tuple is looked up once; the rebuild drops rows by id.
func (db *Database) RetractBatch(pred symtab.Sym, tuples []Tuple) (int, error) {
	r, ok := db.rels[pred]
	if !ok {
		return 0, nil
	}
	var drop []bool
	present := 0
	for _, t := range tuples {
		if r.arity != len(t) {
			return present, fmt.Errorf("database: predicate %s used with arity %d and %d",
				db.bank.Symbols().String(pred), r.arity, len(t))
		}
		if id, ok := r.Find(t); ok {
			if drop == nil {
				drop = make([]bool, r.rows)
			}
			if !drop[id] {
				drop[id] = true
				present++
			}
		}
	}
	if present == 0 {
		return 0, nil
	}
	db.rels[pred] = r.RebuildWithout(func(id RowID) bool { return drop[id] })
	delete(db.shared, pred)
	return present, nil
}

// RetractText parses src (facts only, same format as LoadText) and
// retracts each fact, returning how many were actually present and
// removed. Facts absent from the database are no-ops, not errors. Facts
// are grouped by predicate so each touched relation is rebuilt once.
func (db *Database) RetractText(src string) (int, error) {
	byPred := make(map[symtab.Sym][]Tuple)
	var order []symtab.Sym
	err := parser.ParseFacts(db.bank, src, func(pred symtab.Sym, args []term.Value) error {
		if _, ok := byPred[pred]; !ok {
			order = append(order, pred)
		}
		byPred[pred] = append(byPred[pred], Tuple(args).Clone())
		return nil
	})
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, pred := range order {
		n, err := db.RetractBatch(pred, byPred[pred])
		removed += n
		if err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Assert inserts a fact, creating the relation as needed, and reports
// whether the tuple was new.
func (db *Database) Assert(pred symtab.Sym, t Tuple) (bool, error) {
	r, err := db.Ensure(pred, len(t))
	if err != nil {
		return false, err
	}
	return r.Insert(t), nil
}

// Predicates returns the database's predicate symbols sorted by name.
func (db *Database) Predicates() []symtab.Sym {
	out := make([]symtab.Sym, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	syms := db.bank.Symbols()
	sort.Slice(out, func(i, j int) bool {
		return syms.String(out[i]) < syms.String(out[j])
	})
	return out
}

// FactCount returns the total number of tuples across all relations.
func (db *Database) FactCount() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// ArenaValues returns the total number of term values resident in all
// relation arenas.
func (db *Database) ArenaValues() int {
	n := 0
	for _, r := range db.rels {
		n += r.ArenaLen()
	}
	return n
}

// LoadText parses src (facts only) into the database. It returns an error
// if src contains rules with bodies, non-ground facts, or queries, or uses
// a predicate with two arities (against the database or within src), and
// in every such case the database is left exactly as it was: the facts
// stream from the parser into flat per-predicate staging buffers, and
// only a text that parsed to its end is committed — one Reserve per
// relation, then its rows in source order.
func (db *Database) LoadText(src string) error {
	type staged struct {
		arity, rows int
		vals        []term.Value
	}
	byPred := make(map[symtab.Sym]*staged)
	var order []symtab.Sym
	err := parser.ParseFacts(db.bank, src, func(pred symtab.Sym, args []term.Value) error {
		st, ok := byPred[pred]
		if !ok {
			if len(args) > maxArity {
				return fmt.Errorf("database: predicate %s has arity %d, the maximum is %d",
					db.bank.Symbols().String(pred), len(args), maxArity)
			}
			st = &staged{arity: len(args)}
			if r := db.rels[pred]; r != nil {
				st.arity = r.arity
			}
			byPred[pred] = st
			order = append(order, pred)
		}
		if st.arity != len(args) {
			return fmt.Errorf("database: predicate %s used with arity %d and %d",
				db.bank.Symbols().String(pred), st.arity, len(args))
		}
		st.vals = append(st.vals, args...)
		st.rows++
		return nil
	})
	if err != nil {
		return err
	}
	for _, pred := range order {
		st := byPred[pred]
		rel, err := db.Ensure(pred, st.arity)
		if err != nil {
			return err // unreachable: arities were checked while staging
		}
		rel.Reserve(st.rows)
		for i := 0; i < st.rows; i++ {
			rel.Insert(st.vals[i*st.arity : (i+1)*st.arity])
		}
	}
	return nil
}

// Format renders the database as fact text, predicates sorted by name and
// tuples in deterministic order.
func (db *Database) Format() string {
	var out []byte
	for _, p := range db.Predicates() {
		rel := db.rels[p]
		name := db.bank.Symbols().String(p)
		for _, t := range rel.Sorted() {
			out = append(out, name...)
			if len(t) > 0 {
				out = append(out, '(')
				for i, v := range t {
					if i > 0 {
						out = append(out, ',')
					}
					out = append(out, db.bank.Format(v)...)
				}
				out = append(out, ')')
			}
			out = append(out, '.', '\n')
		}
	}
	return string(out)
}
