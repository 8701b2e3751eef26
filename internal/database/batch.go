package database

// Batched probe primitives for the engine's streaming join pipeline.
//
// The row-at-a-time path (Probe/ProbeRange) takes the relation's index
// mutex on every probe to reach the lazily built rowIndex. The batched
// execution pipeline probes the same literal thousands of times per rule
// run against a relation that is frozen for the duration of the run, so
// it resolves the index once into an Index handle and probes through the
// handle with no locking and no map lookup. ProbeRangeBatch additionally
// drains a whole batch of probe keys into one flat []RowMatch, which
// keeps the per-key overhead to a hash and a chain walk.
//
// Pre-sizing: IndexFor and NewRelationSized accept expected-cardinality
// hints (the planner's per-relation stats, threaded through the engine)
// so the open-addressing tables are allocated at their final size up
// front instead of rehashing their way there. A wrong hint costs only
// memory or the usual growth path, never correctness.

import (
	"math/bits"

	"lincount/internal/term"
)

// KeyWidth returns the number of columns covered by mask — the width of
// one probe key for that mask.
func KeyWidth(mask uint64) int { return bits.OnesCount64(mask) }

// RowMatch pairs one probe key of a batch with one matching row: Key is
// the index of the probe within the batch handed to ProbeRangeBatch, Row
// is the matching RowID. Matches for one key are contiguous and in
// ascending RowID (insertion) order.
type RowMatch struct {
	Key int32
	Row RowID
}

// Index is a resolved handle on one (relation, column mask) hash index.
// Probing through the handle takes no lock and performs no map lookup,
// which is safe because the underlying rowIndex, once built, is only
// ever extended in place by the relation's single writer; the handle
// stays coherent with the live relation (probes clamp to the current
// length). Obtain one with IndexFor. The zero value is unusable.
//
// Concurrency: like the Relation itself — safe for concurrent readers,
// not safe to probe while the writer inserts.
type Index struct {
	r  *Relation
	ix *rowIndex // nil when mask == 0: sequential scan
}

// IndexFor resolves (building if needed) the index on mask and returns a
// probe handle. sizeHint is the expected number of distinct keys the
// index will eventually hold; when the index does not exist yet its
// tables are pre-sized so growth up to the hint never rehashes. A hint
// of 0 means unknown. mask 0 yields a scan handle with no index at all.
func (r *Relation) IndexFor(mask uint64, sizeHint int) Index {
	if mask == 0 {
		return Index{r: r}
	}
	return Index{r: r, ix: r.ensureIndexSized(mask, sizeHint)}
}

// ensureIndexSized is ensureIndex with a pre-sizing hint applied when the
// index is first built.
func (r *Relation) ensureIndexSized(mask uint64, sizeHint int) *rowIndex {
	r.indexMu.Lock()
	defer r.indexMu.Unlock()
	if ix, ok := r.indexes[mask]; ok {
		return ix
	}
	ix := &rowIndex{mask: mask}
	if sizeHint > 0 {
		// Slot table at the first power of two keeping the load factor
		// under 3/4 at sizeHint keys; chain storage at the larger of the
		// hint and the rows already present.
		n := 16
		for n*3 < sizeHint*4 {
			n *= 2
		}
		slots := make([]int32, n)
		for i := range slots {
			slots[i] = -1
		}
		ix.slots = slots
		ix.keys = make([]chainKey, 0, sizeHint)
		rh := r.rows
		if sizeHint > rh {
			rh = sizeHint
		}
		ix.next = make([]RowID, 0, rh)
	}
	for id := RowID(0); int(id) < r.rows; id++ {
		r.indexAdd(ix, id)
	}
	r.indexes[mask] = ix
	return ix
}

// ProbeRange is Relation.ProbeRange through the handle: no lock, no map
// lookup. vals lists the masked columns in column order (ignored for a
// mask-0 scan handle).
func (ix Index) ProbeRange(vals []term.Value, lo, hi RowID) RowIter {
	r := ix.r
	if hi > RowID(r.rows) {
		hi = RowID(r.rows)
	}
	if lo >= hi {
		return emptyIter()
	}
	if ix.ix == nil {
		return RowIter{cur: lo, hi: hi}
	}
	k := r.findKey(ix.ix, vals)
	if k < 0 {
		return emptyIter()
	}
	cur := ix.ix.keys[k].head
	for cur != noRow && cur < lo {
		cur = ix.ix.next[cur]
	}
	if cur == noRow || cur >= hi {
		return emptyIter()
	}
	return RowIter{next: ix.ix.next, cur: cur, hi: hi}
}

// ProbeRangeBatch probes nkeys keys at once, restricted to rows in
// [lo, hi), appending every match to dst and returning it. keys holds
// the probe tuples back to back: key i occupies
// keys[i*w : (i+1)*w] where w = KeyWidth(mask); for a mask-0 handle the
// key width is zero and every key matches every row in range. Matches
// are emitted grouped by key, keys in batch order, rows in ascending
// RowID order within a key — exactly the order nkeys sequential
// ProbeRange calls would yield, which is what keeps the batched join
// pipeline's emission order identical to the row-at-a-time path's.
func (ix Index) ProbeRangeBatch(nkeys int, keys []term.Value, lo, hi RowID, dst []RowMatch) []RowMatch {
	r := ix.r
	if hi > RowID(r.rows) {
		hi = RowID(r.rows)
	}
	if lo >= hi || nkeys == 0 {
		return dst
	}
	if ix.ix == nil {
		for i := 0; i < nkeys; i++ {
			for row := lo; row < hi; row++ {
				dst = append(dst, RowMatch{Key: int32(i), Row: row})
			}
		}
		return dst
	}
	w := KeyWidth(ix.ix.mask)
	next := ix.ix.next
	// Batches from the join pipeline often carry runs of identical keys
	// (every frame of an iteration's delta shares the join value at some
	// level), so memoise the previous key's match run — [prevStart,
	// prevStart+prevLen) in dst — and replay it instead of re-probing.
	prevStart, prevLen := -1, 0
	for i := 0; i < nkeys; i++ {
		key := keys[i*w : (i+1)*w]
		if prevStart >= 0 && sameKey(key, keys[(i-1)*w:i*w]) {
			for j := 0; j < prevLen; j++ {
				dst = append(dst, RowMatch{Key: int32(i), Row: dst[prevStart+j].Row})
			}
			// prevStart/prevLen deliberately stay on the first run of this
			// key, so longer runs keep replaying the same range.
			continue
		}
		prevStart = len(dst)
		prevLen = 0
		k := r.findKey(ix.ix, key)
		if k < 0 {
			continue
		}
		cur := ix.ix.keys[k].head
		for cur != noRow && cur < lo {
			cur = next[cur]
		}
		for cur != noRow && cur < hi {
			dst = append(dst, RowMatch{Key: int32(i), Row: cur})
			cur = next[cur]
		}
		prevLen = len(dst) - prevStart
	}
	return dst
}

// sameKey reports whether two probe keys are equal value-for-value.
func sameKey(a, b []term.Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ProbeRangeBatch is the relation-level convenience over IndexFor — it
// still takes the index mutex once; hot paths should hold an Index.
func (r *Relation) ProbeRangeBatch(mask uint64, nkeys int, keys []term.Value, lo, hi RowID, dst []RowMatch) []RowMatch {
	return r.IndexFor(mask, 0).ProbeRangeBatch(nkeys, keys, lo, hi, dst)
}

// NewRelationSized is NewRelation with the arena and dedup table
// pre-sized for an expected row count, so bulk materialisation (the
// engine's head relations, sized from planner stats) never rehashes or
// reallocates on the way to the expected size. A wrong hint only wastes
// memory or falls back to normal growth.
func NewRelationSized(arity, rows int) *Relation {
	r := NewRelation(arity)
	r.Reserve(rows)
	return r
}

// Reserve makes room for rows more rows: the arena is grown to exactly the
// capacity they need and the dedup table to the size that holds them under
// its load factor, once each, so the next rows inserts neither reallocate
// nor rehash. It reserves nothing beyond that count (bulk loaders know it
// exactly), leaves every RowID and row view valid, and is a no-op when the
// room is already there.
func (r *Relation) Reserve(rows int) {
	if rows <= 0 {
		return
	}
	if need := len(r.arena) + rows*r.arity; need > cap(r.arena) {
		arena := make([]term.Value, len(r.arena), need)
		copy(arena, r.arena)
		r.arena = arena
	}
	n := 16
	for n*3 < (r.dedup.used+rows)*4 {
		n *= 2
	}
	if n > len(r.dedup.slots) {
		r.dedupResize(n)
	}
}
