package database

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lincount/internal/symtab"
	"lincount/internal/term"
)

// Binary snapshot format for databases. The format externalizes the term
// universe (symbol strings and hash-consed compounds) so a snapshot can be
// loaded into any bank: values are remapped on load, not assumed to share
// intern ids with the writer.
//
// Layout (all integers varint-encoded):
//
//	magic "LCDB2"
//	nsyms, then nsyms length-prefixed strings   (index = writer Sym id)
//	ncomps, then per compound: functor sym index, arity, arg values
//	nrels, then per relation: name sym index, arity, ntuples, tuples
//	CRC-32 (IEEE) of everything above, 4 bytes little-endian
//
// Values are encoded as (tag, payload): tag 0 integer (payload = value),
// tag 1 symbol (payload = writer sym index), tag 2 compound (payload =
// writer compound index). Compound args always reference earlier
// compounds, because the writer emits them in bank interning order.
//
// The CRC trailer detects truncation and bit rot: a snapshot whose
// checksum does not match is rejected with SnapshotCorruptError before any
// of it is merged into the database. Any other magic — the pre-trailer
// "LCDB1" format included — is rejected as not a snapshot.

const snapshotMagic = "LCDB2"

// SnapshotCorruptError reports a snapshot that failed its integrity
// check: a truncated stream or a CRC mismatch (bit rot, a torn write, a
// concatenation accident). The database is untouched when Load returns
// it.
type SnapshotCorruptError struct {
	// Reason describes the failed check.
	Reason string
	// Want and Got are the stored and computed CRC-32 values; both are
	// zero when the stream was too short to carry a trailer.
	Want, Got uint32
}

func (e *SnapshotCorruptError) Error() string {
	if e.Want == 0 && e.Got == 0 {
		return fmt.Sprintf("database: corrupt snapshot: %s", e.Reason)
	}
	return fmt.Sprintf("database: corrupt snapshot: %s (stored crc %08x, computed %08x)", e.Reason, e.Want, e.Got)
}

// Save writes a snapshot of db to w, in the "LCDB2" (CRC-trailed)
// format.
func Save(w io.Writer, db *Database) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}

	bank := db.bank
	syms := bank.Symbols()
	nsyms := syms.Len()
	writeUvarint(bw, uint64(nsyms))
	for i := 0; i < nsyms; i++ {
		s := syms.String(symtab.Sym(i))
		writeUvarint(bw, uint64(len(s)))
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}

	ncomps := bank.Len()
	writeUvarint(bw, uint64(ncomps))
	for i := 0; i < ncomps; i++ {
		c := bank.DerefIndex(i)
		writeUvarint(bw, uint64(c.Functor))
		writeUvarint(bw, uint64(len(c.Args)))
		for _, a := range c.Args {
			writeValue(bw, a)
		}
	}

	preds := db.Predicates()
	writeUvarint(bw, uint64(len(preds)))
	for _, p := range preds {
		rel := db.rels[p]
		writeUvarint(bw, uint64(p))
		writeUvarint(bw, uint64(rel.Arity()))
		writeUvarint(bw, uint64(rel.Len()))
		// Rows are written in insertion order (ascending RowID), which is
		// exactly the order the pre-arena writer emitted tuples in: the
		// on-disk bytes are unchanged by the columnar refactor.
		for id := RowID(0); int(id) < rel.Len(); id++ {
			for _, v := range rel.Row(id) {
				writeValue(bw, v)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// The trailer covers magic + payload and is written to w alone (it
	// must not feed back into the hash).
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	bw.Write(buf[:n])
}

func writeValue(bw *bufio.Writer, v term.Value) {
	switch {
	case v.IsInt():
		bw.WriteByte(0)
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], v.AsInt())
		bw.Write(buf[:n])
	case v.IsSymbol():
		bw.WriteByte(1)
		writeUvarint(bw, uint64(v.AsSymbol()))
	default:
		bw.WriteByte(2)
		writeUvarint(bw, uint64(v.CompIndex()))
	}
}

// Load reads a snapshot from r into db (which may already hold facts; the
// snapshot's tuples are merged). Symbols and compounds are re-interned
// into db's bank, so the snapshot may come from a different universe.
//
// Only "LCDB2" snapshots load. Their CRC-32 trailer is verified first: a
// truncated or bit-flipped snapshot is rejected with *SnapshotCorruptError.
// The payload is then decoded in one pass, straight from memory, into
// staged relations, and db changes only once the whole payload has
// validated: whatever the error, db's relations are exactly what they
// were.
func Load(r io.Reader, db *Database) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("database: reading snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic) {
		return fmt.Errorf("database: reading snapshot header: %w", io.ErrUnexpectedEOF)
	}
	head, payload := data[:len(snapshotMagic)], data[len(snapshotMagic):]
	if string(head) != snapshotMagic {
		return fmt.Errorf("database: not a snapshot file (bad magic %q)", head)
	}
	if len(payload) < 4 {
		return &SnapshotCorruptError{Reason: "truncated (no room for the CRC trailer)"}
	}
	want := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
		return &SnapshotCorruptError{Reason: "checksum mismatch", Want: want, Got: got}
	}
	payload = payload[:len(payload)-4]
	// The payload is checksummed but possibly adversarial: decode it into
	// staging relations, commit only if all of it validates.
	staging := New(db.bank)
	if err := (&snapshotDecoder{buf: payload}).decode(staging); err != nil {
		return err
	}
	return commitSnapshot(db, staging)
}

// commitSnapshot moves every staged relation into db after checking arity
// agreement for all of them. A relation db does not have yet is adopted
// as staged — arena, dedup table and all; this is the whole of a recovery,
// which loads into an empty database. Only a predicate db already holds
// is merged row by row.
func commitSnapshot(db, staging *Database) error {
	preds := staging.Predicates()
	for _, p := range preds {
		src := staging.rels[p]
		if dst, ok := db.rels[p]; ok && dst.arity != src.arity {
			return fmt.Errorf("database: snapshot relation %s has arity %d, database has %d",
				db.bank.Symbols().String(p), src.arity, dst.arity)
		}
	}
	for _, p := range preds {
		src := staging.rels[p]
		if _, ok := db.rels[p]; !ok {
			db.rels[p] = src
			continue
		}
		dst, err := db.Ensure(p, src.arity)
		if err != nil {
			return err // unreachable: arities were checked above
		}
		for id := RowID(0); int(id) < src.rows; id++ {
			dst.Insert(src.rowSlice(id))
		}
	}
	return nil
}

// snapshotDecoder reads the snapshot body (everything between the magic
// and the trailer) from memory.
type snapshotDecoder struct {
	buf     []byte
	pos     int
	symMap  []symtab.Sym
	compMap []term.Value
}

// errSnapshotTruncated reports a payload that ends inside a field, or
// declares more elements than its remaining bytes could hold.
var errSnapshotTruncated = fmt.Errorf("database: snapshot payload truncated: %w", io.ErrUnexpectedEOF)

func (d *snapshotDecoder) left() int { return len(d.buf) - d.pos }

func (d *snapshotDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, errSnapshotTruncated
	}
	d.pos += n
	return v, nil
}

// count reads an element count and rejects one the bytes left could not
// possibly back (every element takes at least minBytes), so a lying header
// cannot demand an absurd allocation.
func (d *snapshotDecoder) count(minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.left()/minBytes) {
		return 0, errSnapshotTruncated
	}
	return int(n), nil
}

// index reads an index below limit.
func (d *snapshotDecoder) index(limit int, what string) (int, error) {
	i, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if i >= uint64(limit) {
		return 0, fmt.Errorf("database: snapshot %s index %d out of range", what, i)
	}
	return int(i), nil
}

func (d *snapshotDecoder) value() (term.Value, error) {
	if d.left() == 0 {
		return 0, errSnapshotTruncated
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case 0:
		n, w := binary.Varint(d.buf[d.pos:])
		if w <= 0 {
			return 0, errSnapshotTruncated
		}
		d.pos += w
		if n<<2>>2 != n {
			return 0, fmt.Errorf("database: snapshot integer %d outside the 62-bit range", n)
		}
		return term.Int(n), nil
	case 1:
		s, err := d.index(len(d.symMap), "symbol")
		if err != nil {
			return 0, err
		}
		return term.Symbol(d.symMap[s]), nil
	case 2:
		// compMap grows in writer order, so a valid snapshot never
		// references a compound before defining it.
		c, err := d.index(len(d.compMap), "compound")
		if err != nil {
			return 0, err
		}
		return d.compMap[c], nil
	default:
		return 0, fmt.Errorf("database: bad value tag %d", tag)
	}
}

// values reads n values into the reused buffer.
func (d *snapshotDecoder) values(dst []term.Value, n int) ([]term.Value, error) {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func (d *snapshotDecoder) decode(staging *Database) error {
	bank := staging.bank
	syms := bank.Symbols()

	nsyms, err := d.count(1)
	if err != nil {
		return err
	}
	d.symMap = make([]symtab.Sym, nsyms)
	for i := range d.symMap {
		n, err := d.count(1)
		if err != nil {
			return err
		}
		d.symMap[i] = syms.Intern(string(d.buf[d.pos : d.pos+n]))
		d.pos += n
	}

	ncomps, err := d.count(2)
	if err != nil {
		return err
	}
	d.compMap = make([]term.Value, 0, ncomps)
	consSym := syms.Intern(term.ListConsName)
	var vals []term.Value // one buffer for every compound and tuple
	for i := 0; i < ncomps; i++ {
		f, err := d.index(nsyms, "functor")
		if err != nil {
			return err
		}
		arity, err := d.count(2)
		if err != nil {
			return err
		}
		if d.symMap[f] == consSym && arity != 2 {
			// Every list walk (Format, ListElems) takes a cell's two
			// arguments for granted.
			return fmt.Errorf("database: snapshot list cell with %d arguments", arity)
		}
		if vals, err = d.values(vals, arity); err != nil {
			return err
		}
		d.compMap = append(d.compMap, bank.Compound(d.symMap[f], vals...))
	}

	nrels, err := d.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nrels; i++ {
		p, err := d.index(nsyms, "predicate")
		if err != nil {
			return err
		}
		arity, err := d.uvarint()
		if err != nil {
			return err
		}
		if arity > maxArity {
			return fmt.Errorf("database: snapshot relation arity %d out of range", arity)
		}
		rel, err := staging.Ensure(d.symMap[p], int(arity))
		if err != nil {
			return err
		}
		if arity == 0 {
			// Tuples of a propositional relation take no bytes: any
			// positive count is the one empty row.
			ntuples, err := d.uvarint()
			if err != nil {
				return err
			}
			if ntuples > 0 {
				rel.Insert(nil)
			}
			continue
		}
		ntuples, err := d.count(2 * int(arity))
		if err != nil {
			return err
		}
		rel.Reserve(ntuples)
		for t := 0; t < ntuples; t++ {
			if vals, err = d.values(vals, int(arity)); err != nil {
				return err
			}
			rel.Insert(vals)
		}
	}
	return nil
}
