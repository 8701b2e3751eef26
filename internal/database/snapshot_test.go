package database

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := newDB()
	if err := src.LoadText(`
up(a,b). up(b,c). flat(c,d).
n(7). n(-3).
pair(x,[1,2,[nested]]).
deep(f(g(h(1)),x)).
zero.
`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := newDB()
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if src.Format() != dst.Format() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", src.Format(), dst.Format())
	}
}

func TestSnapshotLoadIntoDifferentUniverse(t *testing.T) {
	// The destination bank has different intern ids for everything.
	src := newDB()
	if err := src.LoadText("up(a,b). pt(p(1,2))."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := newDB()
	// Pollute the destination universe first.
	if err := dst.LoadText("unrelated(z,q,w). other(k(9))."); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dst.Format(), "up(a,b).") ||
		!strings.Contains(dst.Format(), "pt(p(1,2)).") ||
		!strings.Contains(dst.Format(), "unrelated(z,q,w).") {
		t.Errorf("merged database:\n%s", dst.Format())
	}
}

func TestSnapshotMergeDedups(t *testing.T) {
	src := newDB()
	if err := src.LoadText("up(a,b)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := newDB()
	if err := dst.LoadText("up(a,b). up(b,c)."); err != nil {
		t.Fatal(err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	up, _ := dst.Bank().Symbols().Lookup("up")
	if dst.Relation(up).Len() != 2 {
		t.Errorf("up has %d tuples after merge, want 2", dst.Relation(up).Len())
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	dst := newDB()
	if err := Load(strings.NewReader("not a snapshot"), dst); err == nil {
		t.Error("garbage accepted")
	}
	if err := Load(strings.NewReader("LCDB1\xff\xff\xff"), dst); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if err := Load(strings.NewReader(""), dst); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSnapshotArityConflict(t *testing.T) {
	src := newDB()
	if err := src.LoadText("p(a,b)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := newDB()
	if err := dst.LoadText("p(a)."); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst); err == nil {
		t.Error("arity conflict not reported")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	src := newDB()
	if err := src.LoadText("up(a,b). up(b,c). n(41)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Flip every byte position in turn: each corruption must be caught
	// by the CRC (payload and trailer alike), and none may merge
	// anything into the destination.
	for i := len(snapshotMagic); i < len(valid); i++ {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x01
		dst := newDB()
		err := Load(bytes.NewReader(c), dst)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		var ce *SnapshotCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at byte %d: error %v, want SnapshotCorruptError", i, err)
		}
		if dst.FactCount() != 0 {
			t.Fatalf("flip at byte %d: %d facts merged from a corrupt snapshot", i, dst.FactCount())
		}
	}
}

func TestSnapshotTruncationDetected(t *testing.T) {
	src := newDB()
	if err := src.LoadText("up(a,b). flat(c,d)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, n := range []int{len(valid) - 1, len(valid) - 4, len(valid) / 2, len(snapshotMagic) + 2, len(snapshotMagic)} {
		dst := newDB()
		err := Load(bytes.NewReader(valid[:n]), dst)
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		var ce *SnapshotCorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: error %v, want SnapshotCorruptError", n, err)
		}
		if dst.FactCount() != 0 {
			t.Fatalf("truncation to %d bytes merged %d facts", n, dst.FactCount())
		}
	}
}

func TestSnapshotCorruptLeavesDatabaseUntouched(t *testing.T) {
	src := newDB()
	if err := src.LoadText("up(a,b)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	corrupt := buf.Bytes()
	corrupt[len(corrupt)-1] ^= 0xff

	dst := newDB()
	if err := dst.LoadText("keep(x,y). keep(y,z)."); err != nil {
		t.Fatal(err)
	}
	before := dst.Format()
	if err := Load(bytes.NewReader(corrupt), dst); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if dst.Format() != before {
		t.Errorf("database changed by a rejected snapshot:\n%s\nvs\n%s", before, dst.Format())
	}
}

// TestSnapshotLegacyV1Rejected: pre-CRC snapshots (magic "LCDB1", the
// same payload, no trailer) are not read any more. They fail on the magic
// and leave the database untouched.
func TestSnapshotLegacyV1Rejected(t *testing.T) {
	src := newDB()
	if err := src.LoadText("up(a,b). pt(p(1,2)). n(-9)."); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	v1 := append([]byte("LCDB1"), v2[len(snapshotMagic):len(v2)-4]...)
	dst := newDB()
	if err := dst.LoadText("keep(x,y)."); err != nil {
		t.Fatal(err)
	}
	before := dst.Format()
	err := Load(bytes.NewReader(v1), dst)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("LCDB1 snapshot: error %v, want the bad-magic error", err)
	}
	if dst.Format() != before {
		t.Errorf("database changed by a rejected snapshot:\n%s\nvs\n%s", before, dst.Format())
	}
}

// Property: random databases survive the round trip bit-exactly (by text).
func TestSnapshotRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := newDB()
		bank := src.Bank()
		preds := []string{"p", "q", "r"}
		for i := 0; i < 40; i++ {
			pred := preds[r.Intn(len(preds))]
			arity := 1 + r.Intn(3)
			tpl := make(Tuple, arity)
			for j := range tpl {
				switch r.Intn(3) {
				case 0:
					tpl[j] = term.Int(int64(r.Intn(100) - 50))
				case 1:
					tpl[j] = term.Symbol(bank.Symbols().Intern(string(rune('a' + r.Intn(6)))))
				default:
					tpl[j] = bank.List(term.Int(int64(r.Intn(5))),
						term.Symbol(bank.Symbols().Intern("x")))
				}
			}
			// Keep arities consistent per predicate: suffix name.
			name := pred + string(rune('0'+arity))
			if _, err := src.Assert(bank.Symbols().Intern(name), tpl); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			return false
		}
		dst := New(term.NewBank(symtab.New()))
		if err := Load(&buf, dst); err != nil {
			return false
		}
		return src.Format() == dst.Format()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
