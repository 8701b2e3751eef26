package database

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
	"lincount/internal/workload"
)

// Layer benches for the bulk-ingest paths (ROADMAP item 1): text load and
// snapshot load, the two ways a cold start fills its relations. Run by
// `make benchcheck`; EXPERIMENTS.md P19 records the accepted numbers.

// cylinderFacts is the flat-fact workload: ~20k two-column symbol facts.
func cylinderFacts() string { return workload.Cylinder(9, 512, 2) }

// listFacts is the same volume of facts whose second column is a genuine
// list term, which the loader does have to intern.
func listFacts() string {
	var sb strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&sb, "path(n%d,[n%d,e(%d),n%d]).\n", i, i%97, i%13, i%89)
	}
	return sb.String()
}

func BenchmarkLoadText(b *testing.B) {
	for _, bc := range []struct{ name, facts string }{
		{"flat", cylinderFacts()},
		{"lists", listFacts()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.facts)))
			for i := 0; i < b.N; i++ {
				db := New(term.NewBank(symtab.New()))
				if err := db.LoadText(bc.facts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	src := New(term.NewBank(symtab.New()))
	if err := src.LoadText(cylinderFacts()); err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := Save(&snap, src); err != nil {
		b.Fatal(err)
	}
	// empty: the recovery case, every relation adopted as staged.
	// nonempty: every relation already present, so every row is merged.
	for _, seed := range []struct{ name, facts string }{
		{"empty", ""},
		{"nonempty", "up(x,y). flat(x,y). down(x,y)."},
	} {
		b.Run(seed.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(snap.Len()))
			for i := 0; i < b.N; i++ {
				db := New(term.NewBank(symtab.New()))
				if err := db.LoadText(seed.facts); err != nil {
					b.Fatal(err)
				}
				if err := Load(bytes.NewReader(snap.Bytes()), db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
