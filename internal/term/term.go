// Package term defines the ground-value representation used throughout the
// engine and the hash-consing Bank for compound terms.
//
// A Value is a single 64-bit handle: small integers and interned symbols are
// encoded inline; compound terms (including list cells) live in a Bank and
// are hash-consed, so two structurally equal ground terms always have the
// same handle. This gives O(1) equality, O(1) hashing and full structural
// sharing — it is exactly the "pointer" implementation of path lists that
// §3.4 of the paper calls for: consing a path entry onto a list allocates at
// most one new cell and returns a small handle.
package term

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"lincount/internal/symtab"
)

// Value is a handle to a ground term. The two low bits are a tag; the
// payload occupies the remaining 62 bits.
//
//	tag 0: small signed integer
//	tag 1: interned symbol (symtab.Sym)
//	tag 2: compound handle (index into a Bank)
type Value int64

const (
	tagInt  = 0
	tagSym  = 1
	tagComp = 2

	tagBits = 2
	tagMask = (1 << tagBits) - 1
)

// Int returns the Value encoding the small integer n.
// n must fit in 62 bits, which covers every counter the engine produces.
func Int(n int64) Value {
	v := Value(n<<tagBits | tagInt)
	if v>>tagBits != Value(n) {
		panic(fmt.Sprintf("term: integer %d overflows Value encoding", n))
	}
	return v
}

// Symbol returns the Value encoding the interned symbol s.
func Symbol(s symtab.Sym) Value { return Value(int64(s)<<tagBits | tagSym) }

// IsInt reports whether v encodes a small integer.
func (v Value) IsInt() bool { return v&tagMask == tagInt }

// IsSymbol reports whether v encodes an interned symbol.
func (v Value) IsSymbol() bool { return v&tagMask == tagSym }

// IsCompound reports whether v encodes a compound term handle.
func (v Value) IsCompound() bool { return v&tagMask == tagComp }

// AsInt returns the integer payload. It panics if v is not an integer.
func (v Value) AsInt() int64 {
	if !v.IsInt() {
		panic("term: Value is not an integer")
	}
	return int64(v) >> tagBits
}

// AsSymbol returns the symbol payload. It panics if v is not a symbol.
func (v Value) AsSymbol() symtab.Sym {
	if !v.IsSymbol() {
		panic("term: Value is not a symbol")
	}
	return symtab.Sym(int64(v) >> tagBits)
}

func (v Value) compIndex() int32 {
	if !v.IsCompound() {
		panic("term: Value is not a compound")
	}
	return int32(int64(v) >> tagBits)
}

func compValue(idx int32) Value { return Value(int64(idx)<<tagBits | tagComp) }

// Compound is the stored shape of a hash-consed compound term.
type Compound struct {
	Functor symtab.Sym
	Args    []Value
}

// Bank hash-conses compound terms. The zero value is not usable; call
// NewBank.
//
// A Bank is safe for concurrent use: Compound interns under a mutex, and
// Deref is lock-free. Compounds live in fixed-size chunks that are never
// reallocated once published (the chunk table is swapped atomically), so
// a reader holding a Value handle can dereference it while another
// goroutine interns — the property concurrent evaluations of prepared
// queries over one shared Program rely on. A handle is dereferenceable
// by any goroutine that obtained it through a happens-before edge with
// its interning (its own Compound call, or state built before the
// goroutines forked).
type Bank struct {
	syms *symtab.Table

	mu     sync.Mutex
	index  map[string]int32
	n      int32                    // number of interned compounds, guarded by mu
	chunks atomic.Pointer[[]*chunk] // published table of immutable-once-visible chunks

	nilSym  symtab.Sym
	consSym symtab.Sym
}

// Compounds are stored in fixed-size chunks so published slots are never
// moved by an append; 4096 entries keeps the table small and the
// two-level index cheap (a shift and a mask).
const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

type chunk [chunkSize]Compound

// ListNilName and ListConsName are the reserved functor names used for list
// cells. The parser maps `[...]` syntax onto them.
const (
	ListNilName  = "[]"
	ListConsName = "'.'"
)

// NewBank returns an empty bank tied to the given symbol table.
func NewBank(syms *symtab.Table) *Bank {
	b := &Bank{
		syms:    syms,
		index:   make(map[string]int32, 256),
		nilSym:  syms.Intern(ListNilName),
		consSym: syms.Intern(ListConsName),
	}
	b.chunks.Store(&[]*chunk{})
	return b
}

// Symbols returns the symbol table this bank interns functors into.
func (b *Bank) Symbols() *symtab.Table { return b.syms }

func compKey(functor symtab.Sym, args []Value) string {
	var sb []byte
	sb = binary.AppendVarint(sb, int64(functor))
	for _, a := range args {
		sb = binary.AppendVarint(sb, int64(a))
	}
	return string(sb)
}

// Compound interns the compound term functor(args...) and returns its
// handle. Structurally equal compounds always return the same Value.
// A zero-argument compound is legal and distinct from the bare symbol.
func (b *Bank) Compound(functor symtab.Sym, args ...Value) Value {
	key := compKey(functor, args)
	b.mu.Lock()
	if idx, ok := b.index[key]; ok {
		b.mu.Unlock()
		return compValue(idx)
	}
	idx := b.n
	tab := *b.chunks.Load()
	if int(idx>>chunkBits) == len(tab) {
		grown := make([]*chunk, len(tab)+1)
		copy(grown, tab)
		grown[len(tab)] = new(chunk)
		b.chunks.Store(&grown)
		tab = grown
	}
	tab[idx>>chunkBits][idx&chunkMask] = Compound{Functor: functor, Args: append([]Value(nil), args...)}
	b.index[key] = idx
	b.n = idx + 1
	b.mu.Unlock()
	return compValue(idx)
}

// Deref returns the stored compound for a compound Value.
// The returned Compound's Args slice must not be mutated.
func (b *Bank) Deref(v Value) Compound {
	idx := v.compIndex()
	return (*b.chunks.Load())[idx>>chunkBits][idx&chunkMask]
}

// DerefIndex returns the i-th interned compound (interning order). Used by
// serializers that externalize the whole bank.
func (b *Bank) DerefIndex(i int) Compound {
	return (*b.chunks.Load())[i>>chunkBits][i&chunkMask]
}

// CompIndex returns the bank index of a compound Value; it panics if v is
// not a compound. Argument compounds always have smaller indexes than the
// compounds containing them, which serializers rely on.
func (v Value) CompIndex() int { return int(v.compIndex()) }

// Len reports the number of distinct compounds interned.
func (b *Bank) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.n)
}

// Nil returns the empty-list value.
func (b *Bank) Nil() Value { return Symbol(b.nilSym) }

// Cons returns the interned list cell [head|tail].
func (b *Bank) Cons(head, tail Value) Value {
	return b.Compound(b.consSym, head, tail)
}

// IsNil reports whether v is the empty list.
func (b *Bank) IsNil(v Value) bool {
	return v.IsSymbol() && v.AsSymbol() == b.nilSym
}

// IsCons reports whether v is a list cell.
func (b *Bank) IsCons(v Value) bool {
	return v.IsCompound() && b.Deref(v).Functor == b.consSym
}

// List interns the proper list of the given elements.
func (b *Bank) List(elems ...Value) Value {
	v := b.Nil()
	for i := len(elems) - 1; i >= 0; i-- {
		v = b.Cons(elems[i], v)
	}
	return v
}

// ListElems returns the elements of a proper list, or ok=false if v is not a
// proper list (including improper tails).
func (b *Bank) ListElems(v Value) (elems []Value, ok bool) {
	for b.IsCons(v) {
		c := b.Deref(v)
		elems = append(elems, c.Args[0])
		v = c.Args[1]
	}
	if !b.IsNil(v) {
		return nil, false
	}
	return elems, true
}

// Format renders v as Datalog source text.
func (b *Bank) Format(v Value) string {
	var sb strings.Builder
	b.format(&sb, v)
	return sb.String()
}

func (b *Bank) format(sb *strings.Builder, v Value) {
	switch {
	case v.IsInt():
		fmt.Fprintf(sb, "%d", v.AsInt())
	case v.IsSymbol():
		sb.WriteString(b.syms.String(v.AsSymbol()))
	default:
		c := b.Deref(v)
		if c.Functor == b.consSym {
			b.formatList(sb, v)
			return
		}
		sb.WriteString(b.syms.String(c.Functor))
		sb.WriteByte('(')
		for i, a := range c.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			b.format(sb, a)
		}
		sb.WriteByte(')')
	}
}

func (b *Bank) formatList(sb *strings.Builder, v Value) {
	sb.WriteByte('[')
	first := true
	for b.IsCons(v) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		c := b.Deref(v)
		b.format(sb, c.Args[0])
		v = c.Args[1]
	}
	if !b.IsNil(v) {
		sb.WriteByte('|')
		b.format(sb, v)
	}
	sb.WriteByte(']')
}

// Equal reports structural equality of two ground terms. Because the bank
// hash-conses, this is handle equality.
func Equal(a, b Value) bool { return a == b }

// Compare imposes a deterministic total order on Values for stable output:
// integers first (by value), then symbols (by Sym index), then compounds
// (by handle index, which reflects interning order).
func Compare(a, b Value) int {
	ta, tb := a&tagMask, b&tagMask
	if ta != tb {
		return int(ta) - int(tb)
	}
	pa, pb := int64(a)>>tagBits, int64(b)>>tagBits
	switch {
	case pa < pb:
		return -1
	case pa > pb:
		return 1
	default:
		return 0
	}
}
