// Package wal implements lincountd's write-ahead log: an append-only,
// CRC-checked record stream of assert/retract batches that makes every
// acknowledged write durable before it becomes visible, plus the
// rename-atomic manifest that ties a checkpoint snapshot to the live log
// segment.
//
// On-disk segment layout (magic "LCWL1"):
//
//	magic "LCWL1"
//	records: each
//	  payload length  uint32 little-endian
//	  CRC-32 (IEEE)   uint32 little-endian, over the payload alone
//	  payload:
//	    seq     uvarint  (the epoch this batch published)
//	    nops    uvarint
//	    per op: kind byte (0 assert, 1 retract),
//	            uvarint text length, fact text bytes
//
// The format is deliberately boring: the single writer appends whole
// records with one Write call, so a crash tears at most the final
// record, and the CRC plus the length prefix make the tear detectable.
// Replay distinguishes the two failure modes the recovery contract
// cares about:
//
//   - A torn tail (short header, short payload, or a bad-CRC record
//     that is the last thing in the file) is the expected residue of a
//     crash mid-append: replay stops cleanly before it and reports the
//     offset so the writer can truncate and resume.
//   - Anything wrong before the tail — a bad CRC followed by more data,
//     a garbage length, a non-monotonic sequence number, an undecodable
//     payload that passed its CRC — is bit rot or tampering, and replay
//     refuses with a typed *WALCorruptError rather than silently
//     dropping acknowledged writes.
//
// Sequence numbers are the server's epoch numbers: every record's seq
// must strictly exceed its predecessor's (and the checkpoint seq it
// replays on top of), so recovery can prove it rebuilt an unbroken
// chain of published batches.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
)

// Magic is the segment-file magic. LCWL1 parallels the LCDB2 snapshot
// magic: "lincount write-ahead log, format 1".
const Magic = "LCWL1"

// frameHeaderLen is the fixed per-record framing: payload length plus
// payload CRC, both uint32 little-endian.
const frameHeaderLen = 8

// maxRecordBytes is a sanity cap on a single record's payload. A real
// record is bounded by the server's batch size times its request-body
// cap; a length prefix past this is bit rot, not data.
const maxRecordBytes = 1 << 30

// SyncPolicy selects when the writer fsyncs the segment after an append.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is on
	// disk before the acknowledgment. The durability default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.Interval: a crash can
	// lose up to one interval of acknowledged writes.
	SyncInterval
	// SyncNever leaves flushing to the OS (and to segment rotation):
	// fastest, weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always, interval, never)", s)
}

// Options parameterizes a Writer.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the maximum fsync lag under SyncInterval (default 50ms).
	Interval time.Duration
	// Inject, when non-nil, arms the wal.append and wal.fsync fault
	// sites — the chaos harness's hook into the durable write path.
	Inject *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	return o
}

// Op is one logged operation: fact text to assert or retract, exactly
// as the write request carried it.
type Op = database.Op

// Record is one logged batch: the epoch it published plus its
// operations in application order.
type Record struct {
	Seq uint64
	Ops []Op
}

// WALCorruptError reports log damage that is not a torn tail: bit rot
// before the last record, a garbage length prefix, a sequence number
// that does not advance, or an undecodable payload whose CRC passed.
// Recovery treats it as fatal — serving from a log with a hole in the
// middle would silently drop acknowledged writes.
type WALCorruptError struct {
	// Path is the segment file, when known.
	Path string
	// Offset is the byte offset of the bad record's frame header.
	Offset int64
	// Reason describes the failed check.
	Reason string
	// Want and Got are the stored and computed CRC-32 values when the
	// failure was a checksum mismatch; zero otherwise.
	Want, Got uint32
}

func (e *WALCorruptError) Error() string {
	loc := fmt.Sprintf("offset %d", e.Offset)
	if e.Path != "" {
		loc = fmt.Sprintf("%s, offset %d", e.Path, e.Offset)
	}
	if e.Want != 0 || e.Got != 0 {
		return fmt.Sprintf("wal: corrupt log (%s): %s (stored crc %08x, computed %08x)",
			loc, e.Reason, e.Want, e.Got)
	}
	return fmt.Sprintf("wal: corrupt log (%s): %s", loc, e.Reason)
}

// encodeRecord appends rec's framed bytes (header + payload) to buf.
func encodeRecord(buf []byte, rec Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		kind := byte(0)
		if op.Retract {
			kind = 1
		}
		buf = append(buf, kind)
		buf = binary.AppendUvarint(buf, uint64(len(op.Text)))
		buf = append(buf, op.Text...)
	}
	payload := buf[start+frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// decodePayload parses a record payload whose CRC already checked out.
// Errors here mean the writer emitted garbage (or an adversary forged a
// CRC) — replay maps them to WALCorruptError.
func decodePayload(payload []byte) (Record, error) {
	var rec Record
	br := bytes.NewReader(payload)
	seq, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, fmt.Errorf("reading seq: %w", err)
	}
	nops, err := binary.ReadUvarint(br)
	if err != nil {
		return rec, fmt.Errorf("reading op count: %w", err)
	}
	if nops > uint64(len(payload)) {
		return rec, fmt.Errorf("op count %d exceeds payload size", nops)
	}
	rec.Seq = seq
	rec.Ops = make([]Op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return rec, fmt.Errorf("reading op %d kind: %w", i, err)
		}
		if kind > 1 {
			return rec, fmt.Errorf("op %d has bad kind %d", i, kind)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return rec, fmt.Errorf("reading op %d length: %w", i, err)
		}
		if n > uint64(len(payload)) {
			return rec, fmt.Errorf("op %d length %d exceeds payload size", i, n)
		}
		text := make([]byte, n)
		if _, err := io.ReadFull(br, text); err != nil {
			return rec, fmt.Errorf("reading op %d text: %w", i, err)
		}
		rec.Ops = append(rec.Ops, Op{Retract: kind == 1, Text: string(text)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return rec, errors.New("trailing bytes after last op")
	}
	return rec, nil
}

// Writer appends records to one segment file. It is not safe for
// concurrent Append calls (the server's single-writer goroutine owns
// it); Size and Records may be read from other goroutines.
type Writer struct {
	path string
	f    *os.File
	opts Options

	mu       chan struct{} // 1-token mutex guarding size/records vs readers
	size     int64
	records  int
	lastSync time.Time

	// broken, once set, fails every further Append: a failed append
	// could not be rolled back, so the tail may be torn mid-file and
	// appending past it would turn a recoverable tear into corruption.
	broken error
}

// Create creates (or atomically replaces) the segment at path: the
// magic is written to a temp file, fsynced, renamed into place, and the
// directory fsynced, so the segment either exists with a whole header
// or not at all.
func Create(path string, opts Options) (*Writer, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: publishing segment: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return newWriter(path, f, int64(len(Magic)), 0, opts), nil
}

// OpenAt opens an existing segment for appending after recovery:
// goodSize is the offset after the last intact record (ReplayFile's
// GoodSize) and records that segment's replayed record count. Any torn
// tail past goodSize is truncated away before the first append.
func OpenAt(path string, goodSize int64, records int, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	if goodSize < int64(len(Magic)) || goodSize > st.Size() {
		f.Close()
		return nil, fmt.Errorf("wal: resume offset %d out of range for %s (%d bytes)", goodSize, path, st.Size())
	}
	if goodSize < st.Size() {
		// Drop the torn tail so resumed appends extend an intact chain.
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: syncing truncated segment: %w", err)
		}
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking segment tail: %w", err)
	}
	return newWriter(path, f, goodSize, records, opts), nil
}

func newWriter(path string, f *os.File, size int64, records int, opts Options) *Writer {
	w := &Writer{
		path:    path,
		f:       f,
		opts:    opts.withDefaults(),
		mu:      make(chan struct{}, 1),
		size:    size,
		records: records,
	}
	w.mu <- struct{}{}
	return w
}

func (w *Writer) lock()   { <-w.mu }
func (w *Writer) unlock() { w.mu <- struct{}{} }

// Path returns the segment file path.
func (w *Writer) Path() string { return w.path }

// Size returns the segment's intact byte length (header included).
func (w *Writer) Size() int64 {
	w.lock()
	defer w.unlock()
	return w.size
}

// Records returns how many records the segment holds (replayed ones
// included when opened with OpenAt).
func (w *Writer) Records() int {
	w.lock()
	defer w.unlock()
	return w.records
}

// Append encodes rec, writes it as one frame, and fsyncs per the sync
// policy. On any failure the partial frame is rolled back (the file is
// truncated to its pre-append size) so the segment stays intact and the
// caller may retry; if even the rollback fails, the writer marks itself
// broken and every later Append returns the breakage error.
func (w *Writer) Append(rec Record) error {
	w.lock()
	defer w.unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.opts.Inject.Hit(faultinject.SiteWALAppend); err != nil {
		return err
	}
	buf, err := encodeRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return w.rollback(fmt.Errorf("wal: appending record: %w", err))
	}
	if err := w.maybeSync(); err != nil {
		return w.rollback(err)
	}
	w.size += int64(len(buf))
	w.records++
	obsv.MWALRecords.Add(1)
	obsv.MWALBytes.Add(int64(len(buf)))
	return nil
}

// rollback restores the segment to its last intact size after a failed
// append; if the truncate fails too, the writer is marked broken.
func (w *Writer) rollback(cause error) error {
	if err := w.f.Truncate(w.size); err != nil {
		w.broken = fmt.Errorf("wal: segment unusable (failed append could not be rolled back: %v): %w", err, cause)
		return w.broken
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.broken = fmt.Errorf("wal: segment unusable (failed append could not be rolled back: %v): %w", err, cause)
		return w.broken
	}
	return cause
}

// maybeSync fsyncs per the configured policy. Called with the lock held
// and the new frame written but not yet counted.
func (w *Writer) maybeSync() error {
	switch w.opts.Sync {
	case SyncAlways:
	case SyncInterval:
		if time.Since(w.lastSync) < w.opts.Interval {
			return nil
		}
	case SyncNever:
		return nil
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if err := w.opts.Inject.Hit(faultinject.SiteWALFsync); err != nil {
		return err
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	obsv.MWALFsyncSeconds.Observe(time.Since(start).Seconds())
	w.lastSync = time.Now()
	return nil
}

// Sync forces an fsync regardless of policy — segment rotation and
// clean shutdown call it so even SyncNever logs are whole at rest.
func (w *Writer) Sync() error {
	w.lock()
	defer w.unlock()
	if w.broken != nil {
		return w.broken
	}
	return w.syncLocked()
}

// Close closes the segment file without syncing (call Sync first when
// the tail matters).
func (w *Writer) Close() error {
	w.lock()
	defer w.unlock()
	return w.f.Close()
}

// ReplayResult summarizes one segment scan.
type ReplayResult struct {
	// Records is how many intact records were replayed.
	Records int
	// LastSeq is the final record's sequence number (the startSeq passed
	// to Replay when the segment held no records).
	LastSeq uint64
	// GoodSize is the offset just past the last intact record — the
	// truncation point for a torn tail and the resume offset for OpenAt.
	GoodSize int64
	// TornBytes is how many trailing bytes a torn tail occupied (zero
	// for a cleanly closed segment).
	TornBytes int64
}

// Replay scans one segment stream, invoking fn for every intact record
// in order. startSeq is the sequence number the chain resumes from
// (the checkpoint seq, or the previous segment's LastSeq); every record
// must strictly advance it.
//
// When strictTail is false (the newest segment), a torn tail — short
// frame, short payload, or a bad-CRC record with nothing after it —
// ends the scan cleanly and is reported via TornBytes. When strictTail
// is true (an older segment, cleanly closed by rotation), any damage at
// all is a *WALCorruptError. An error from fn aborts the scan as-is.
func Replay(r io.Reader, startSeq uint64, strictTail bool, fn func(Record) error) (*ReplayResult, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	res := &ReplayResult{LastSeq: startSeq}

	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return res, &WALCorruptError{Offset: 0, Reason: "missing segment header"}
	}
	if string(head) != Magic {
		return res, &WALCorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q", head)}
	}
	offset := int64(len(Magic))
	res.GoodSize = offset

	torn := func(n int64, reason string) (*ReplayResult, error) {
		if strictTail {
			return res, &WALCorruptError{Offset: offset, Reason: reason + " (before the live tail)"}
		}
		res.TornBytes = n
		return res, nil
	}

	frame := make([]byte, frameHeaderLen)
	for {
		n, err := io.ReadFull(br, frame)
		if err == io.EOF {
			return res, nil // clean end of segment
		}
		if err == io.ErrUnexpectedEOF {
			return torn(int64(n), "torn frame header")
		}
		if err != nil {
			return res, fmt.Errorf("wal: reading frame header: %w", err)
		}
		plen := binary.LittleEndian.Uint32(frame)
		want := binary.LittleEndian.Uint32(frame[4:])
		if plen == 0 || plen > maxRecordBytes {
			return res, &WALCorruptError{Offset: offset, Reason: fmt.Sprintf("implausible record length %d", plen)}
		}
		payload := make([]byte, plen)
		pn, err := io.ReadFull(br, payload)
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return torn(frameHeaderLen+int64(pn), "torn record payload")
		}
		if err != nil {
			return res, fmt.Errorf("wal: reading record payload: %w", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != want {
			// A bad CRC on the very last record is a torn write (the
			// frame landed, part of the payload did not, and the file
			// was later extended to the full length by a racing
			// preallocation or the tear is in the middle of the
			// payload). A bad CRC with more data after it is bit rot.
			if _, peekErr := br.Peek(1); peekErr == io.EOF && !strictTail {
				res.TornBytes = frameHeaderLen + int64(plen)
				return res, nil
			}
			return res, &WALCorruptError{Offset: offset, Reason: "record checksum mismatch", Want: want, Got: got}
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return res, &WALCorruptError{Offset: offset, Reason: fmt.Sprintf("undecodable record (crc valid): %v", err)}
		}
		if rec.Seq <= res.LastSeq {
			return res, &WALCorruptError{Offset: offset,
				Reason: fmt.Sprintf("sequence did not advance (%d after %d)", rec.Seq, res.LastSeq)}
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.Records++
		res.LastSeq = rec.Seq
		offset += frameHeaderLen + int64(plen)
		res.GoodSize = offset
	}
}

// ReplayFile is Replay over the segment at path, stamping the path into
// any corruption error.
func ReplayFile(path string, startSeq uint64, strictTail bool, fn func(Record) error) (*ReplayResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	res, err := Replay(f, startSeq, strictTail, fn)
	var corrupt *WALCorruptError
	if errors.As(err, &corrupt) && corrupt.Path == "" {
		corrupt.Path = path
	}
	return res, err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}
