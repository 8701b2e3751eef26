package database

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// legacyMagic is the retired pre-trailer snapshot format's magic; Load
// rejects it.
const legacyMagic = "LCDB1"

// FuzzLoadSnapshot checks the snapshot reader never panics or accepts
// structurally invalid input silently. Seeds include valid snapshots and
// systematic corruptions of one.
func FuzzLoadSnapshot(f *testing.F) {
	// A valid snapshot as the primary seed.
	src := New(term.NewBank(symtab.New()))
	if err := src.LoadText("up(a,b). n(7). l([1,2])."); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations.
	for _, n := range []int{0, 3, 5, 8, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	// Single-byte corruptions.
	for i := 5; i < len(valid); i += 7 {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		f.Add(c)
	}
	f.Add([]byte("LCDB1"))
	f.Add([]byte("LCDB2"))
	f.Add([]byte("not a snapshot at all"))
	// The retired pre-trailer LCDB1 form of the primary seed (same
	// payload, old magic, no CRC trailer), plus truncations of it: all
	// must be rejected.
	v1 := append([]byte(legacyMagic), valid[len(snapshotMagic):len(valid)-4]...)
	f.Add(v1)
	f.Add(v1[:len(v1)-3])
	f.Add(v1[:len(v1)/2])
	// A V2 snapshot with a flipped payload byte and a fixed-up trailer:
	// the checksum passes, so the staged parser must reject it for
	// structural reasons or accept it cleanly — never merge halfway.
	fixed := append([]byte(nil), valid...)
	fixed[7] ^= 0x10
	binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(fixed[:len(fixed)-4]))
	f.Add(fixed)
	// A cyclic-graph snapshot (the workload that exercises the budget
	// guards at evaluation time), plus corruptions of it.
	cyc := New(term.NewBank(symtab.New()))
	if err := cyc.LoadText("up(a,b). up(b,c). up(c,a). flat(b,f). down(f,g). down(g,h). stop(99999999999)."); err != nil {
		f.Fatal(err)
	}
	var cbuf bytes.Buffer
	if err := Save(&cbuf, cyc); err != nil {
		f.Fatal(err)
	}
	cvalid := cbuf.Bytes()
	f.Add(cvalid)
	f.Add(cvalid[:len(cvalid)/3])
	for i := 9; i < len(cvalid); i += 11 {
		c := append([]byte(nil), cvalid...)
		c[i] ^= 0x55
		f.Add(c)
	}

	// Arena-rebuild seeds: the loader reconstructs each relation's arena,
	// dedup table and indexes from the byte stream, so seed the shapes
	// that stress that path — a declared-but-empty relation, an arity-0
	// (propositional) relation, and a relation sized to land exactly on
	// the open-addressing growth boundary (capacity 16 × load factor 3/4
	// ⇒ rehash at the 12th row).
	arena := New(term.NewBank(symtab.New()))
	if _, err := arena.Ensure(arena.Bank().Symbols().Intern("empty"), 2); err != nil {
		f.Fatal(err)
	}
	if err := arena.LoadText("flag."); err != nil {
		f.Fatal(err)
	}
	grow := make([]byte, 0, 256)
	grow = append(grow, "grow(0)."...)
	for i := 1; i < 13; i++ {
		grow = append(grow, " grow("...)
		grow = append(grow, byte('0'+i/10), byte('0'+i%10))
		grow = append(grow, ")."...)
	}
	if err := arena.LoadText(string(grow)); err != nil {
		f.Fatal(err)
	}
	var abuf bytes.Buffer
	if err := Save(&abuf, arena); err != nil {
		f.Fatal(err)
	}
	avalid := abuf.Bytes()
	f.Add(avalid)
	f.Add(avalid[:len(avalid)-5])
	for i := 6; i < len(avalid); i += 13 {
		c := append([]byte(nil), avalid...)
		c[i] ^= 0x0f
		f.Add(c)
	}

	// Compound-heavy seeds: atoms are no longer interned, so only genuine
	// compound and list arguments fill the snapshot's compound section —
	// seed the decoder with a database that is mostly that section.
	comp := New(term.NewBank(symtab.New()))
	if err := comp.LoadText("pt(p(1,2)). deep(f(g(h(1)),x)). l([1,[2,x]]). l([a|b]). e(f()). pair(p(1,2),[p(1,2)])."); err != nil {
		f.Fatal(err)
	}
	var pbuf bytes.Buffer
	if err := Save(&pbuf, comp); err != nil {
		f.Fatal(err)
	}
	pvalid := pbuf.Bytes()
	f.Add(pvalid)
	f.Add(pvalid[:len(pvalid)*2/3])
	for i := 7; i < len(pvalid); i += 9 {
		c := append([]byte(nil), pvalid...)
		c[i] ^= 0x21
		f.Add(c)
	}

	// Found by this fuzzer: a list cell declared with no arguments, which
	// loaded and then crashed Format. It was found in the LCDB1 form; the
	// same payload under the current magic, checksummed, still reaches
	// the decoder's list-cell check.
	found := []byte("LCDB1\b\x00\x0200\x03'.'\x0200\x010\x010\x010\x010\x02\x00\x01\x01\x02\x02\x00\x02\x02\x000\a\x01\x01\x02\x01")
	f.Add(found)
	sealed := append([]byte(snapshotMagic), found[len(legacyMagic):]...)
	f.Add(binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(sealed)))

	f.Fuzz(func(t *testing.T, data []byte) {
		db := New(term.NewBank(symtab.New()))
		if err := Load(bytes.NewReader(data), db); err != nil {
			return // rejection is fine
		}
		if bytes.HasPrefix(data, []byte(legacyMagic)) {
			t.Fatal("LCDB1 snapshot accepted")
		}
		// Anything accepted must re-save and re-load to identical text.
		var out bytes.Buffer
		if err := Save(&out, db); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		db2 := New(term.NewBank(symtab.New()))
		if err := Load(bytes.NewReader(out.Bytes()), db2); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if db.Format() != db2.Format() {
			t.Fatal("snapshot round trip diverged")
		}
	})
}

// FuzzLoadFacts holds the streaming loader to the general parser: for any
// text, LoadText and parser.Parse + Assert (assertText) either both refuse
// it or build databases with the same Format() and the same rows in the
// same RowID order — and a refusal leaves the streaming side's database
// untouched. Seeds: the repository's corpus programs and fact files, the
// FuzzParse seeds, and fact shapes of the loader's own.
func FuzzLoadFacts(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.dl")
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus seeds: %v", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	for _, s := range []string{
		// The FuzzParse seeds (internal/parser/fuzz_test.go).
		"p(a).", "p(X) :- q(X).", "sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).", "?- sg(a,Y).",
		"p(Y,L) :- q(Y1,[e(r1,[W])|L]), down1(Y1,Y,W).", "f([1,2,3]). g([]). h([X|T]) :- h(T).",
		"n(-42). m(0).", "t(X) :- s(X), X != b, X >= 0, succ(X,Y).", "p :- q, not r.", "% comment only",
		"p(X) :- q(X), not r(X,_).", "weird( deep(f(g(h(1)),[a|T])) ).",
		"p(X", "p(X) :-", ":-", "?-", "[", "]])(", "p..", "..", "p(X) :- q(X)", "1 + 2.", "X.", "p(X,Y) :- X = Y.",
		"up(a,b). up(b,c). up(c,a). flat(b,f). down(f,g).\n?- sg(a,Y).",
		"e(a,b). e(b,a). tc(X,Y) :- e(X,Y). ?- tc(a,Y).", "num(0).\nnum(N) :- num(M), succ(M,N).",
		"stop(99999999999).", "num(9223372036854775807).",
		// Fact shapes.
		"up(a,b). up(b,c). up(a,b). flat(c,d). up(c,d).", "flag. flag. other.", "flag(). flag.",
		"n(7). n(-3). big(2305843009213693951). small(-2305843009213693952). over(2305843009213693952).",
		"pt(p(1,2)). l([1,[2,x]]). l([a|b]). l([]). l(f()).", "p(a). p(a,b).", "p(a,b). q(c). p(d).",
		"% c\nup(a,b). % d\n up( c , d ) .", "_p(a).", "p(_x).", "\xe9t\xe9(\xe0).", "p(\xc9).",
		"1 = 1.", "f(a) = b.", "f(a) = X.", "not p(a).", "not(a).", "p(-).", "l([-]).", "l([a|]).", "p(a) q(b).",
		"up(a,b). up(", "up(a,b). @",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		const seed = "up(a,b). n(1)."
		got, want := newDB(), newDB()
		for _, db := range []*Database{got, want} {
			if err := db.LoadText(seed); err != nil {
				t.Fatal(err)
			}
		}
		before := rowOrder(got)
		gotErr, wantErr := got.LoadText(src), assertText(want, src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("streaming loader: %v; parser.Parse + Assert: %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if rowOrder(got) != before {
				t.Fatalf("refused text changed the database:\n%s", rowOrder(got))
			}
			return
		}
		if got.Format() != want.Format() {
			t.Fatalf("Format differs:\n%s\nvs\n%s", got.Format(), want.Format())
		}
		if rowOrder(got) != rowOrder(want) {
			t.Fatalf("row order differs:\n%s\nvs\n%s", rowOrder(got), rowOrder(want))
		}
	})
}
