package database

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"lincount/internal/parser"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// rowOrder renders every relation's rows in RowID order: the thing a bulk
// load must reproduce exactly, since derived structures address rows by id.
func rowOrder(db *Database) string {
	var sb strings.Builder
	for _, p := range db.Predicates() {
		rel := db.rels[p]
		fmt.Fprintf(&sb, "%s/%d:", db.bank.Symbols().String(p), rel.Arity())
		for id := RowID(0); int(id) < rel.Len(); id++ {
			sb.WriteByte(' ')
			for j, v := range rel.Row(id) {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(db.bank.Format(v))
			}
			sb.WriteByte(';')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// assertText is the reference loader the streaming LoadText is held to:
// the general parser, then one Assert per fact. It stops at the first
// problem and may leave earlier facts behind; only its verdict and, on
// success, its result are compared.
func assertText(db *Database, src string) error {
	res, err := parser.Parse(db.bank, src)
	if err != nil {
		return err
	}
	if len(res.Queries) != 0 {
		return fmt.Errorf("queries are not allowed")
	}
	for _, r := range res.Program.Rules {
		if !r.IsFact() {
			return fmt.Errorf("not a ground fact")
		}
		if len(r.Head.Args) > 63 {
			return fmt.Errorf("arity over 63") // NewRelation would panic
		}
		t := make(Tuple, len(r.Head.Args))
		for i, a := range r.Head.Args {
			t[i] = a.Value
		}
		if _, err := db.Assert(r.Head.Pred, t); err != nil {
			return err
		}
	}
	return nil
}

// TestLoadTextAllOrNothing: whatever is wrong with the text, and however
// late in it, the database is exactly what it was before the call.
func TestLoadTextAllOrNothing(t *testing.T) {
	bad := map[string]string{
		"arity conflict with the database": "up(c,d). flat(x,y). up(a,b,c). up(e,f).",
		"arity conflict within the text":   "new(a). new(b). new(a,b). up(e,f).",
		"trailing syntax error":            "up(c,d). up(e,f). up(g",
		"lexical error":                    "up(c,d). up(e,f). up(g,#).",
		"rule":                             "up(c,d). up(e,f). p(X) :- up(X,Y).",
		"non-ground fact":                  "up(c,d). up(e,f). up(X,d).",
		"query":                            "up(c,d). up(e,f). ?- up(c,Y).",
	}
	for name, src := range bad {
		db := newDB()
		if err := db.LoadText("up(a,b). n(1). flag."); err != nil {
			t.Fatal(err)
		}
		format, order, npreds := db.Format(), rowOrder(db), len(db.rels)
		if err := db.LoadText(src); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
		if db.Format() != format || rowOrder(db) != order || len(db.rels) != npreds {
			t.Errorf("%s: a rejected text changed the database:\n%s", name, rowOrder(db))
		}
	}
}

// TestLoadTextRowOrder: duplicates collapse onto their first occurrence and
// RowIDs follow source order per relation, appended after existing rows.
func TestLoadTextRowOrder(t *testing.T) {
	db := newDB()
	if err := db.LoadText("up(z,z)."); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadText("up(b,c). flat(q,r). up(a,b). up(b,c). up(z,z). flag. flag. up(c,d)."); err != nil {
		t.Fatal(err)
	}
	want := "flag/0: ;\nflat/2: q,r;\nup/2: z,z; b,c; a,b; c,d;\n"
	if got := rowOrder(db); got != want {
		t.Errorf("row order:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadTextIntoFork: the bulk commit goes through Ensure, so a fork's
// parent is never written through.
func TestLoadTextIntoFork(t *testing.T) {
	db := newDB()
	if err := db.LoadText("up(a,b)."); err != nil {
		t.Fatal(err)
	}
	before := rowOrder(db)
	f := db.Fork()
	if err := f.LoadText("up(b,c). up(c,d). down(x,y)."); err != nil {
		t.Fatal(err)
	}
	if rowOrder(db) != before {
		t.Errorf("loading into a fork changed its parent:\n%s", rowOrder(db))
	}
	if f.FactCount() != 4 {
		t.Errorf("fork holds %d facts, want 4", f.FactCount())
	}
}

func TestReserve(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{term.Int(0), term.Int(0)})
	view := r.Row(0)
	r.Reserve(1000)
	arena, slots := cap(r.arena), len(r.dedup.slots)
	if arena != 1001*2 {
		t.Errorf("arena capacity %d, want exactly %d", arena, 1001*2)
	}
	for i := 1; i <= 1000; i++ {
		r.Insert(Tuple{term.Int(int64(i)), term.Int(int64(i))})
	}
	if cap(r.arena) != arena || len(r.dedup.slots) != slots {
		t.Errorf("reserved inserts regrew: arena %d -> %d, dedup %d -> %d",
			arena, cap(r.arena), slots, len(r.dedup.slots))
	}
	if view[0] != term.Int(0) || !r.Contains(Tuple{term.Int(500), term.Int(500)}) || r.Len() != 1001 {
		t.Error("Reserve disturbed existing rows")
	}
	r.Reserve(0)
	r.Reserve(-5)
	if cap(r.arena) != arena {
		t.Error("Reserve(<=0) is not a no-op")
	}
}

// TestLoadTextAllocs is the allocation guard of the streaming loader: over
// an already-interned vocabulary a flat fact costs no allocation of its
// own (the parent of this loader paid about ten), only the staging
// buffers' and the relation's amortised growth.
func TestLoadTextAllocs(t *testing.T) {
	const facts = 10000
	var sb strings.Builder
	for i := 0; i < facts; i++ {
		fmt.Fprintf(&sb, "up(n%d,n%d).\n", i%500, (i*7)%499)
	}
	src := sb.String()
	bank := term.NewBank(symtab.New())
	if err := New(bank).LoadText(src); err != nil { // interns the vocabulary
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := New(bank).LoadText(src); err != nil {
			t.Fatal(err)
		}
	})
	if perFact := allocs / facts; perFact >= 0.1 {
		t.Errorf("LoadText: %.0f allocs for %d facts = %.3f/fact, want < 0.1", allocs, facts, perFact)
	}
	if bank.Len() != 0 {
		t.Errorf("flat facts interned %d compounds", bank.Len())
	}
}

// snapshotOf saves the database loaded from text.
func snapshotOf(t *testing.T, text string) []byte {
	t.Helper()
	src := newDB()
	if err := src.LoadText(text); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotAdoptAndMerge: loading into an empty database adopts the
// staged relations, loading into a populated one merges row by row; both
// must give what inserting the snapshot's rows one by one gives, RowIDs
// included.
func TestSnapshotAdoptAndMerge(t *testing.T) {
	const text = "up(a,b). up(b,c). up(c,d). flat(b,f). n(7). pt(p(1,2)). l([1,[2,x]]). flag."
	snap := snapshotOf(t, text)

	adopted := newDB()
	if err := Load(bytes.NewReader(snap), adopted); err != nil {
		t.Fatal(err)
	}
	want := newDB()
	if err := want.LoadText(text); err != nil {
		t.Fatal(err)
	}
	if rowOrder(adopted) != rowOrder(want) {
		t.Errorf("adopt path:\n%s\nwant:\n%s", rowOrder(adopted), rowOrder(want))
	}
	// An adopted relation is an ordinary one: it takes further writes.
	if err := adopted.LoadText("up(d,e)."); err != nil || adopted.FactCount() != want.FactCount()+1 {
		t.Errorf("insert after adopt: %v, %d facts", err, adopted.FactCount())
	}

	// Merge: up and n exist already (one row shared with the snapshot),
	// the other predicates are adopted in the same call.
	const seed = "up(z,z). up(b,c). n(1)."
	merged := newDB()
	if err := merged.LoadText(seed); err != nil {
		t.Fatal(err)
	}
	if err := Load(bytes.NewReader(snap), merged); err != nil {
		t.Fatal(err)
	}
	want = newDB()
	if err := want.LoadText(seed + text); err != nil {
		t.Fatal(err)
	}
	if rowOrder(merged) != rowOrder(want) {
		t.Errorf("merge path:\n%s\nwant:\n%s", rowOrder(merged), rowOrder(want))
	}
}

// TestSnapshotInvalidPayloadLeavesTargetUntouched: a payload can pass the
// CRC and still be wrong. Whichever way it is wrong, and whether the
// target would have adopted or merged, the target keeps its relations.
func TestSnapshotInvalidPayloadLeavesTargetUntouched(t *testing.T) {
	// reseal rewrites the trailer so the corruption passes the checksum.
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	// body assembles a snapshot from uvarint fields after two symbols
	// ("" and "p") and no compounds.
	body := func(fields ...uint64) []byte {
		b := []byte(snapshotMagic)
		b = append(b, 2, 0, 1, 'p', 0)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return reseal(append(b, 0, 0, 0, 0))
	}
	bad := map[string][]byte{
		// one relation p/1 with one tuple whose value is compound #5 of 0
		"bad compound index": body(1, 1, 1, 1, 2, 5),
		"arity over 63":      body(1, 1, 64, 0),
		// p/1 clashes with the populated target's p/2 (and is fine for an empty one)
		"arity clash":        body(1, 1, 1, 1, 0, 14),
		"count beyond bytes": body(1, 1, 1, 1<<40),
		"symbol count lies":  reseal(append([]byte(snapshotMagic), 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0)),
		"integer beyond 62b": body(1, 1, 1, 1, 0, 0xffffffffffffffff),
	}
	for name, snap := range bad {
		for _, seed := range []string{"", "p(a,b). q(c)."} {
			if name == "arity clash" && seed == "" {
				continue
			}
			db := newDB()
			if err := db.LoadText(seed); err != nil {
				t.Fatal(err)
			}
			before, npreds := rowOrder(db), len(db.rels)
			if err := Load(bytes.NewReader(snap), db); err == nil {
				t.Errorf("%s into %q: accepted", name, seed)
			}
			if rowOrder(db) != before || len(db.rels) != npreds {
				t.Errorf("%s into %q: a rejected snapshot changed the target:\n%s", name, seed, rowOrder(db))
			}
		}
	}
	// The hand-assembled form itself is sound: the clash payload loads
	// into an empty database.
	db := newDB()
	if err := Load(bytes.NewReader(bad["arity clash"]), db); err != nil || rowOrder(db) != "p/1: 7;\n" {
		t.Errorf("control payload: %v\n%s", err, rowOrder(db))
	}
}
