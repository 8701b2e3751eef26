package database

// Arena-backed row storage. A Relation keeps every tuple in one flat
// []term.Value arena; row r of an arity-k relation occupies
// arena[r*k : (r+1)*k]. Rows are addressed by dense RowID in insertion
// order, which is the "address" representation of §3.4 of the paper: a
// derived structure can point at a row with one int32 instead of copying
// the tuple.
//
// Dedup and column indexes are open-addressing hash tables that hash the
// masked columns straight out of the arena: no key bytes are ever
// materialized, and a probe allocates nothing.

import "lincount/internal/term"

// RowID identifies a row of one Relation: row ids are dense, assigned in
// insertion order, and stable until the next Reset. They are only
// meaningful relative to the Relation that issued them.
type RowID = int32

// noRow is the empty-slot / end-of-chain sentinel (valid row ids are >= 0).
const noRow RowID = -1

// tombRow marks a dedup slot whose row was dropped by RebuildWithout:
// the slot stays occupied so colliding keys' probe chains remain intact,
// lookups skip it, and InsertRow may reuse it. dedupGrow rehashes live
// rows only, so tombstones are collected on the next growth.
const tombRow RowID = -2

// FNV-1a over the 64-bit term.Value handles. Values are hash-consed (term
// equality is handle equality), so hashing the handles is exact.
const (
	hashSeed  uint64 = 0xcbf29ce484222325
	hashPrime uint64 = 0x00000100000001b3
)

// HashValue folds one value into an FNV-1a style running hash. Exported so
// other layers (the counting runtime's interning tables) hash term values
// the same way the storage layer does.
func HashValue(h uint64, v term.Value) uint64 {
	h ^= uint64(v)
	h *= hashPrime
	return h
}

// HashValues hashes a value slice, starting from HashSeed.
func HashValues(vals []term.Value) uint64 {
	h := hashSeed
	for _, v := range vals {
		h = HashValue(h, v)
	}
	return h
}

// dedupTable is the open-addressing set of all rows, keyed by the full
// column tuple (hash and equality read the arena directly). slots holds
// RowIDs; noRow marks an empty slot. Load factor is kept under 3/4.
type dedupTable struct {
	slots []RowID
	used  int
}

// chainKey is one distinct key of a rowIndex: the head and tail of the
// insertion-ordered chain of rows sharing that key's masked columns.
type chainKey struct {
	head, tail RowID
}

// rowIndex is a multi-map from masked columns to the rows carrying them.
// slots is an open-addressing table of indexes into keys (-1 empty); each
// key's rows form a linked chain threaded through next (next[row] is the
// next row with the same key, noRow at the tail). Chains are in insertion
// order, so row ids along a chain are strictly ascending — which is what
// lets an iterator stop at a snapshot bound.
type rowIndex struct {
	mask  uint64
	slots []int32
	keys  []chainKey
	next  []RowID
}

// rowSlice returns the arena slice for one row (full capacity clamp so a
// caller cannot append into a neighbouring row).
func (r *Relation) rowSlice(id RowID) []term.Value {
	off := int(id) * r.arity
	return r.arena[off : off+r.arity : off+r.arity]
}

// hashRow hashes row id's masked columns out of the arena. With the full
// mask it degenerates to HashValues over the whole row.
func (r *Relation) hashRow(id RowID, mask uint64) uint64 {
	h := hashSeed
	for j, v := range r.rowSlice(id) {
		if mask&(1<<uint(j)) != 0 {
			h = HashValue(h, v)
		}
	}
	return h
}

// rowEqualFull reports whether row id equals vals on every column.
func (r *Relation) rowEqualFull(id RowID, vals []term.Value) bool {
	row := r.rowSlice(id)
	for j := range row {
		if row[j] != vals[j] {
			return false
		}
	}
	return true
}

// rowEqualMasked reports whether row id's masked columns equal vals, which
// lists exactly the masked columns in column order.
func (r *Relation) rowEqualMasked(id RowID, mask uint64, vals []term.Value) bool {
	row := r.rowSlice(id)
	k := 0
	for j := range row {
		if mask&(1<<uint(j)) != 0 {
			if row[j] != vals[k] {
				return false
			}
			k++
		}
	}
	return true
}

// rowsEqualMasked reports whether rows a and b agree on the masked columns.
func (r *Relation) rowsEqualMasked(a, b RowID, mask uint64) bool {
	ra, rb := r.rowSlice(a), r.rowSlice(b)
	for j := range ra {
		if mask&(1<<uint(j)) != 0 && ra[j] != rb[j] {
			return false
		}
	}
	return true
}

// dedupGrow doubles the dedup table.
func (r *Relation) dedupGrow() {
	n := len(r.dedup.slots) * 2
	if n < 16 {
		n = 16
	}
	r.dedupResize(n)
}

// dedupResize (re)allocates the dedup table at n slots (a power of two)
// and rehashes every stored row from the arena, dropping tombstones.
func (r *Relation) dedupResize(n int) {
	slots := make([]RowID, n)
	for i := range slots {
		slots[i] = noRow
	}
	m := uint64(n - 1)
	for id := RowID(0); int(id) < r.rows; id++ {
		i := r.hashRow(id, r.fullMask()) & m
		for slots[i] != noRow {
			i = (i + 1) & m
		}
		slots[i] = id
	}
	r.dedup.slots = slots
	r.dedup.used = r.rows
}

// indexGrow (re)allocates ix's slot table at double capacity and rehashes
// every key from its chain head's arena row.
func (r *Relation) indexGrow(ix *rowIndex) {
	n := len(ix.slots) * 2
	if n < 16 {
		n = 16
	}
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = -1
	}
	m := uint64(n - 1)
	for k := range ix.keys {
		if ix.keys[k].head == noRow {
			continue // dead key (see RebuildWithout); drop its slot
		}
		i := r.hashRow(ix.keys[k].head, ix.mask) & m
		for slots[i] >= 0 {
			i = (i + 1) & m
		}
		slots[i] = int32(k)
	}
	ix.slots = slots
}

// indexAdd threads row id into ix, extending an existing key's chain or
// opening a new one. Called only by the single writer.
func (r *Relation) indexAdd(ix *rowIndex, id RowID) {
	// next is indexed by RowID, so it grows with the relation regardless
	// of how many distinct keys the index has.
	ix.next = append(ix.next, noRow)
	if (len(ix.keys)+1)*4 > len(ix.slots)*3 {
		r.indexGrow(ix)
	}
	m := uint64(len(ix.slots) - 1)
	i := r.hashRow(id, ix.mask) & m
	for {
		k := ix.slots[i]
		if k < 0 {
			ix.slots[i] = int32(len(ix.keys))
			ix.keys = append(ix.keys, chainKey{head: id, tail: id})
			return
		}
		if ix.keys[k].head != noRow && r.rowsEqualMasked(ix.keys[k].head, id, ix.mask) {
			ix.next[ix.keys[k].tail] = id
			ix.keys[k].tail = id
			return
		}
		i = (i + 1) & m
	}
}

// findKey locates the chain for (mask, vals) in ix, returning its key index
// or -1. Allocation-free.
func (r *Relation) findKey(ix *rowIndex, vals []term.Value) int32 {
	if len(ix.keys) == 0 {
		return -1
	}
	m := uint64(len(ix.slots) - 1)
	i := HashValues(vals) & m
	for {
		k := ix.slots[i]
		if k < 0 {
			return -1
		}
		if ix.keys[k].head != noRow && r.rowEqualMasked(ix.keys[k].head, ix.mask, vals) {
			return k
		}
		i = (i + 1) & m
	}
}

// CloneForAppend returns a writable clone of r holding the same rows.
// The clone shares r's arena backing array with its capacity clamped, so
// the clone's first insert reallocates and copies — copy-on-write at
// relation granularity. The dedup table and the column indexes are
// copied (memcpys of row ids — row ids are identical in the clone, so
// the chains stay valid, and appends only extend them); copying beats
// the lazy per-row rehash a dropped index would pay on the clone's
// first probe, which matters to maintenance workloads that clone a
// large relation per epoch to apply a small delta. r itself is never
// read again through the clone after this returns and is never mutated
// by it, so a published relation keeps serving concurrent readers while
// its clone takes writes.
func (r *Relation) CloneForAppend() *Relation {
	return r.clone(r.arena[:len(r.arena):len(r.arena)], 0)
}

// CloneWithRoom is CloneForAppend for a writer about to append: the
// clone owns a copy of the arena, and of each index's key and chain
// tables, with the spare capacity a RebuildWithout leaves (AppendRoom
// rows, AppendRoom keys), so its appends neither reallocate the arena nor
// grow it by append's factor.
func (r *Relation) CloneWithRoom() *Relation {
	room := AppendRoom(r.rows)
	return r.clone(append(make([]term.Value, 0, len(r.arena)+room*r.arity), r.arena...), room)
}

// clone is CloneForAppend over the given arena, copying the index tables
// with room spare rows of capacity (and, with room, spare keys).
func (r *Relation) clone(arena []term.Value, room int) *Relation {
	c := &Relation{
		arity:   r.arity,
		rows:    r.rows,
		arena:   arena,
		indexes: make(map[uint64]*rowIndex, len(r.indexes)),
	}
	c.dedup.slots = append([]RowID(nil), r.dedup.slots...)
	c.dedup.used = r.dedup.used
	r.indexMu.Lock()
	for mask, ix := range r.indexes {
		keyRoom := 0
		if room > 0 {
			keyRoom = AppendRoom(len(ix.keys))
		}
		c.indexes[mask] = &rowIndex{
			mask:  ix.mask,
			slots: append([]int32(nil), ix.slots...),
			keys:  append(make([]chainKey, 0, len(ix.keys)+keyRoom), ix.keys...),
			next:  append(make([]RowID, 0, len(ix.next)+room), ix.next...),
		}
	}
	r.indexMu.Unlock()
	return c
}

// RowIter iterates the rows produced by a Probe or Scan. Iteration order is
// insertion order. The iterator snapshots the relation's length at creation
// (hi): rows inserted after the iterator is created are not yielded, so the
// single writer may keep inserting while it drains an iterator it created —
// the semantics a naive fixpoint needs when a rule reads the relation it
// extends.
type RowIter struct {
	// next is the index chain to follow; nil means a sequential scan.
	next []RowID
	cur  RowID
	hi   RowID
}

// Next returns the next row id, or ok=false when the iteration is done.
func (it *RowIter) Next() (RowID, bool) {
	cur := it.cur
	if cur == noRow || cur >= it.hi {
		return 0, false
	}
	if it.next == nil {
		it.cur = cur + 1
	} else {
		it.cur = it.next[cur]
	}
	return cur, true
}

// emptyIter is the canonical exhausted iterator.
func emptyIter() RowIter { return RowIter{cur: noRow} }
