package database

import (
	"fmt"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

func TestInsertRowIDs(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 100; i++ {
		id, added := r.InsertRow(Tuple{term.Int(int64(i)), term.Int(int64(i + 1))})
		if !added || id != RowID(i) {
			t.Fatalf("InsertRow(%d) = (%d, %v), want (%d, true)", i, id, added, i)
		}
	}
	// Re-inserting returns the existing id.
	id, added := r.InsertRow(Tuple{term.Int(42), term.Int(43)})
	if added || id != 42 {
		t.Fatalf("duplicate InsertRow = (%d, %v), want (42, false)", id, added)
	}
}

func TestFind(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 50; i++ {
		r.Insert(Tuple{term.Int(int64(i)), term.Int(int64(i * 2))})
	}
	id, ok := r.Find(Tuple{term.Int(7), term.Int(14)})
	if !ok || id != 7 {
		t.Fatalf("Find = (%d, %v), want (7, true)", id, ok)
	}
	if _, ok := r.Find(Tuple{term.Int(7), term.Int(15)}); ok {
		t.Fatal("Find reported an absent tuple present")
	}
	if _, ok := NewRelation(2).Find(Tuple{term.Int(1), term.Int(2)}); ok {
		t.Fatal("Find on empty relation reported present")
	}
}

func TestRebuildWithoutPreservesOrderAndDedup(t *testing.T) {
	r := NewRelation(2)
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{term.Int(int64(i)), term.Int(int64(i % 7))})
	}
	n := r.RebuildWithout(func(id RowID) bool { return id%3 == 0 })
	want := 0
	for i := 0; i < 200; i++ {
		if i%3 == 0 {
			continue
		}
		row := n.At(want)
		if row[0] != term.Int(int64(i)) {
			t.Fatalf("row %d = %v, want first column %d", want, row, i)
		}
		want++
	}
	if n.Len() != want {
		t.Fatalf("Len = %d, want %d", n.Len(), want)
	}
	// Dedup survives the rebuild: membership and further inserts behave.
	if n.Contains(Tuple{term.Int(0), term.Int(0)}) {
		t.Fatal("dropped row still reported present")
	}
	if !n.Contains(Tuple{term.Int(1), term.Int(1)}) {
		t.Fatal("surviving row reported absent")
	}
	if n.Insert(Tuple{term.Int(1), term.Int(1)}) {
		t.Fatal("re-inserting a surviving row was not deduplicated")
	}
	if !n.Insert(Tuple{term.Int(0), term.Int(0)}) {
		t.Fatal("re-inserting a dropped row was deduplicated")
	}
}

// TestRebuildWithoutRepeated rebuilds the same relation over several
// epochs — each meets the tombstones the one before left, carries an index
// and is appended to before the next — against a slice of the live tuples.
func TestRebuildWithoutRepeated(t *testing.T) {
	r := NewRelation(2)
	var live []Tuple
	add := func(i int) {
		tup := Tuple{term.Int(int64(i % 11)), term.Int(int64(i))}
		if !r.Insert(tup) {
			t.Fatalf("insert %v deduplicated", tup)
		}
		live = append(live, tup)
	}
	for i := 0; i < 300; i++ {
		add(i)
	}
	r.Probe(0b01, []term.Value{term.Int(0)}) // build the index the rebuilds carry
	next := 300
	for epoch := 0; epoch < 6; epoch++ {
		step := 2 + epoch
		r = r.RebuildWithout(func(id RowID) bool { return int(id)%step == 0 })
		kept := live[:0]
		for id, tup := range live {
			if id%step != 0 {
				kept = append(kept, tup)
			}
		}
		live = kept
		for i := 0; i < 100; i++ { // more than appendRoom leaves at this size
			add(next)
			next++
		}
		if r.Len() != len(live) {
			t.Fatalf("epoch %d: %d rows, want %d", epoch, r.Len(), len(live))
		}
		used := 0
		for _, s := range r.dedup.slots {
			if s != noRow {
				used++
			}
		}
		if used != r.dedup.used {
			t.Fatalf("epoch %d: dedup.used = %d, %d slots are taken", epoch, r.dedup.used, used)
		}
		for k := 0; k < 11; k++ {
			var want []RowID
			for id, tup := range live {
				if r.At(id)[1] != tup[1] {
					t.Fatalf("epoch %d: row %d = %v, want %v", epoch, id, r.At(id), tup)
				}
				if id2, ok := r.Find(tup); !ok || int(id2) != id {
					t.Fatalf("epoch %d: Find(%v) = (%d, %v), want row %d", epoch, tup, id2, ok, id)
				}
				if tup[0] == term.Int(int64(k)) {
					want = append(want, RowID(id))
				}
			}
			if got := r.ProbeIDs(0b01, []term.Value{term.Int(int64(k))}); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("epoch %d: probe %d = %v, want %v", epoch, k, got, want)
			}
		}
	}
}

// TestRetractBatchSingleRebuild asserts the batched retraction path
// agrees with sequential single retracts, including the present count.
func TestRetractBatchSingleRebuild(t *testing.T) {
	bank := term.NewBank(symtab.New())
	seq := New(bank)
	bat := New(bank)
	p := bank.Symbols().Intern("e")
	var facts string
	for i := 0; i < 100; i++ {
		facts += fmt.Sprintf("e(n%d,n%d). ", i, i+1)
	}
	if err := seq.LoadText(facts); err != nil {
		t.Fatal(err)
	}
	if err := bat.LoadText(facts); err != nil {
		t.Fatal(err)
	}
	var drop []Tuple
	for i := 0; i < 100; i += 4 {
		drop = append(drop, Tuple{sym(seq, fmt.Sprintf("n%d", i)), sym(seq, fmt.Sprintf("n%d", i+1))})
	}
	// One absent tuple and one duplicate: both must not inflate the count.
	drop = append(drop, Tuple{sym(seq, "zzz"), sym(seq, "zzz")}, drop[0])

	wantN := 0
	for _, d := range drop {
		ok, err := seq.Retract(p, d)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			wantN++
		}
	}
	gotN, err := bat.RetractBatch(p, drop)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("RetractBatch removed %d, sequential removed %d", gotN, wantN)
	}
	if seq.Format() != bat.Format() {
		t.Fatalf("batched and sequential retraction diverged:\n%s\nvs\n%s", bat.Format(), seq.Format())
	}
}

// BenchmarkRetractRebuild pins the capacity-reuse win: retracting one
// fact from a large relation must not regrow arena and dedup from zero.
func BenchmarkRetractRebuild(b *testing.B) {
	bank := term.NewBank(symtab.New())
	db := New(bank)
	p := bank.Symbols().Intern("e")
	for i := 0; i < 10000; i++ {
		if err := db.LoadText(fmt.Sprintf("e(n%d,n%d).", i, i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := Tuple{sym(db, fmt.Sprintf("n%d", i%10000)), sym(db, fmt.Sprintf("n%d", i%10000+1))}
		if _, err := db.Retract(p, tup); err != nil {
			b.Fatal(err)
		}
		// Put it back so every iteration retracts a present fact.
		if _, err := db.Assert(p, tup); err != nil {
			b.Fatal(err)
		}
	}
}
