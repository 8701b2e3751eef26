// Durability for the query server: a write-ahead log appended by the
// single-writer goroutine before each epoch publish, checkpoints that
// bound replay time, and boot-time crash recovery.
//
// The ordering invariant is durable-before-visible-before-acked: a
// batch's WAL record is appended (and fsynced, per policy) before the
// new snapshot is stored, which happens before any request in the batch
// is answered. A crash therefore loses no acknowledged write; at worst
// it persists a write whose client never saw the ack (the client's
// context expired while the batch was in flight), which the Write
// contract already declares at-most-once from the caller's view.
//
// Checkpointing is a rendezvous between two goroutines. The
// checkpointer asks the writer to rotate: the writer — idle between
// batches, so no append can race the swap — syncs and closes the live
// segment, installs a fresh one named for the current epoch, and hands
// back the epoch plus its immutable database. The checkpointer then
// writes the LCDB2 snapshot and the manifest at its leisure, concurrent
// with new writes landing in the fresh segment, and finally deletes the
// superseded segments and snapshots. A crash at any point leaves a
// recoverable directory: before the manifest swap the old
// snapshot+segments chain is intact (recovery also replays segments the
// manifest has never heard of); after it the new pair is.
//
// Recovery runs before the server accepts traffic: load the manifest's
// snapshot, replay the manifest's segment and every higher-numbered
// one in order — all but the last with a strict tail, because rotation
// syncs and closes them — and resume appending to the last segment at
// its intact prefix. Sequence numbers are epoch numbers and every
// published epoch logs exactly one record, so recovery insists the
// replayed chain is gapless; a hole means an acknowledged write went
// missing and the server refuses to start rather than serve it.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/wal"
)

// ErrNotDurable is returned by Checkpoint when the server runs without
// a data directory.
var ErrNotDurable = errors.New("server: not durable (no data directory configured)")

// RecoveryInfo summarizes what boot-time recovery rebuilt.
type RecoveryInfo struct {
	// Epoch is the recovered epoch (manifest seq plus replayed records).
	Epoch uint64
	// CheckpointSeq is the manifest's epoch (0 when no checkpoint existed).
	CheckpointSeq uint64
	// Records is how many WAL records were replayed on top of the
	// checkpoint snapshot.
	Records int
	// TruncatedBytes is the size of the torn tail dropped from the live
	// segment (0 after a clean shutdown).
	TruncatedBytes int64
	// Segments is how many segment files were replayed.
	Segments int
}

// CheckpointResult reports one completed checkpoint.
type CheckpointResult struct {
	// Epoch is the epoch the snapshot captured.
	Epoch uint64 `json:"epoch"`
	// Snapshot is the snapshot's file name inside the data directory.
	Snapshot string `json:"snapshot"`
	// Skipped reports that no epoch was published since the previous
	// checkpoint, so nothing was written.
	Skipped bool `json:"skipped,omitempty"`
}

// rotateReq asks the writer goroutine to swap in a fresh WAL segment.
type rotateReq struct {
	reply chan rotateReply // buffered; the writer always answers exactly once
}

type rotateReply struct {
	epoch   uint64
	db      *lincount.Database
	segment string // live segment's file name after the swap
	err     error
}

// ckptCall is one admin-triggered checkpoint waiting on the checkpointer.
type ckptCall struct {
	reply chan ckptReply // buffered
}

type ckptReply struct {
	res *CheckpointResult
	err error
}

func (c *Config) walOptions() wal.Options {
	return wal.Options{Sync: c.WALSync, Interval: c.WALSyncInterval, Inject: c.Inject}
}

// recoverData rebuilds the database state from cfg.DataDir: manifest
// snapshot, then WAL replay, then a writer resumed on the live segment.
// The base database is mutated in place (the server owns it). Called
// from New before the snapshot is published, so no reader can observe a
// half-replayed state.
func recoverData(c *Config, base *lincount.Database) (*wal.Writer, RecoveryInfo, error) {
	var info RecoveryInfo
	dir := c.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("server: creating data dir: %w", err)
	}
	m, err := wal.ReadManifest(dir)
	if err != nil {
		return nil, info, err
	}

	var chainSeq uint64
	firstSegSeq := uint64(0)
	if m != nil {
		f, err := os.Open(filepath.Join(dir, m.Snapshot))
		if err != nil {
			return nil, info, fmt.Errorf("server: opening checkpoint snapshot: %w", err)
		}
		err = base.LoadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, info, fmt.Errorf("server: loading checkpoint snapshot %s: %w", m.Snapshot, err)
		}
		chainSeq = m.Seq
		info.CheckpointSeq = m.Seq
		firstSegSeq, _ = wal.SegmentSeq(m.Segment) // validated by ReadManifest
	}

	segs, err := wal.ListSegments(dir)
	if err != nil {
		return nil, info, err
	}
	// Segments below the manifest's are superseded leftovers of a crash
	// mid-cleanup; segments at or above it (including ones a crash left
	// unmentioned between rotation and manifest write) are the live chain.
	live := segs[:0]
	for _, seg := range segs {
		if seg.Seq >= firstSegSeq {
			live = append(live, seg)
		}
	}
	if m != nil {
		if len(live) == 0 || live[0].Name != m.Segment {
			return nil, info, fmt.Errorf("server: manifest names segment %s but it is missing from %s", m.Segment, dir)
		}
	}

	replayOne := func(rec wal.Record) error {
		if err := c.Inject.Hit(faultinject.SiteWALReplay); err != nil {
			return err
		}
		if rec.Seq != chainSeq+1 {
			return fmt.Errorf("server: recovery found an epoch gap (record %d after %d): acknowledged writes are missing", rec.Seq, chainSeq)
		}
		// Replay the epoch's op frame through Database.Apply, the batch
		// semantics the live write path applied it with, so recovered and
		// live state cannot drift.
		if _, err := base.Apply(rec.Ops); err != nil {
			return fmt.Errorf("server: replaying epoch %d: %w", rec.Seq, err)
		}
		chainSeq = rec.Seq
		return nil
	}

	var lastRes *wal.ReplayResult
	for i, seg := range live {
		// Rotation-boundary continuity: a segment is created at the epoch
		// current when its predecessor was retired, so its number must
		// equal the chain seq reached so far (the manifest's own segment
		// may predate the checkpoint when empty rotations were skipped).
		if i > 0 && seg.Seq != chainSeq {
			return nil, info, fmt.Errorf("server: recovery found a segment gap (%s after epoch %d): acknowledged writes are missing", seg.Name, chainSeq)
		}
		strict := i < len(live)-1 // only the live tail may legally tear
		res, err := wal.ReplayFile(filepath.Join(dir, seg.Name), chainSeq, strict, replayOne)
		if err != nil {
			return nil, info, err
		}
		info.Records += res.Records
		info.Segments++
		lastRes = res
	}
	obsv.MWALRecoveryRecords.Add(int64(info.Records))
	info.Epoch = chainSeq

	var w *wal.Writer
	if len(live) == 0 {
		w, err = wal.Create(filepath.Join(dir, wal.SegmentName(chainSeq)), c.walOptions())
	} else {
		last := live[len(live)-1]
		if lastRes.TornBytes > 0 {
			info.TruncatedBytes = lastRes.TornBytes
			obsv.MWALRecoveryTruncated.Add(lastRes.TornBytes)
		}
		w, err = wal.OpenAt(filepath.Join(dir, last.Name), lastRes.GoodSize, lastRes.Records, c.walOptions())
	}
	if err != nil {
		return nil, info, err
	}
	return w, info, nil
}

// Recovery returns what boot-time recovery rebuilt (the zero value when
// the server is not durable or the directory was fresh).
func (s *Server) Recovery() RecoveryInfo { return s.recovered }

// Durable reports whether the server writes a WAL.
func (s *Server) Durable() bool { return s.walW.Load() != nil }

// walAppend logs one batch's ops (batchOps' framing, the slice the
// apply consumed) as the record for epoch seq. Returns nil immediately
// when the server is not durable.
func (s *Server) walAppend(seq uint64, ops []wal.Op) error {
	w := s.walW.Load()
	if w == nil {
		return nil
	}
	return w.Append(wal.Record{Seq: seq, Ops: ops})
}

// maybeKickCheckpoint nudges the checkpointer when the live segment has
// outgrown the configured thresholds. Called by the writer after each
// publish; non-blocking, so a checkpoint already in progress simply
// absorbs the kick.
func (s *Server) maybeKickCheckpoint() {
	w := s.walW.Load()
	if w == nil {
		return
	}
	overBytes := s.cfg.CheckpointBytes > 0 && w.Size() >= s.cfg.CheckpointBytes
	overRecords := s.cfg.CheckpointRecords > 0 && w.Records() >= s.cfg.CheckpointRecords
	if !overBytes && !overRecords {
		return
	}
	select {
	case s.ckptKick <- struct{}{}:
	default:
	}
}

// rotate is executed by the writer goroutine between batches: it swaps
// in a fresh segment named for the current epoch and hands the
// checkpointer the epoch plus its immutable database. When no record
// has landed since the last rotation the live segment is reused — a new
// one would collide with its name and checkpoint nothing new.
func (s *Server) rotate(rr rotateReq) {
	cur := s.snap.Load()
	old := s.walW.Load()
	if old.Records() == 0 {
		rr.reply <- rotateReply{epoch: cur.Epoch, db: cur.DB, segment: filepath.Base(old.Path())}
		return
	}
	// Seal the outgoing segment first: rotated segments are replayed with
	// a strict tail, so they must be whole at rest.
	if err := old.Sync(); err != nil {
		rr.reply <- rotateReply{err: err}
		return
	}
	next, err := wal.Create(filepath.Join(s.cfg.DataDir, wal.SegmentName(cur.Epoch)), s.cfg.walOptions())
	if err != nil {
		rr.reply <- rotateReply{err: err}
		return
	}
	s.walW.Store(next)
	old.Close()
	rr.reply <- rotateReply{epoch: cur.Epoch, db: cur.DB, segment: filepath.Base(next.Path())}
}

// checkpointer is the checkpoint goroutine: it serializes admin-
// triggered and threshold-triggered checkpoints, performing the slow
// parts (snapshot save, manifest swap, cleanup) off the writer's path.
func (s *Server) checkpointer() {
	defer close(s.ckptDone)
	for {
		select {
		case <-s.ckptStop:
			return
		case call := <-s.ckptC:
			res, err := s.doCheckpoint()
			call.reply <- ckptReply{res: res, err: err}
		case <-s.ckptKick:
			if _, err := s.doCheckpoint(); err != nil && !errors.Is(err, ErrDraining) {
				obsv.MWALCheckpointErrors.Add(1)
			}
		}
	}
}

// doCheckpoint rotates the log, saves the rotated-out state as a
// snapshot, swaps the manifest, and deletes superseded files. An
// injected wal.checkpoint fault (or any I/O failure) aborts after the
// rotation: the manifest still names the old pair, and recovery replays
// the new segment on top of it, so an aborted checkpoint costs only the
// orphaned temp file it may leave.
func (s *Server) doCheckpoint() (*CheckpointResult, error) {
	start := time.Now()
	rr := rotateReq{reply: make(chan rotateReply, 1)}
	select {
	case s.rotateC <- rr:
	case <-s.writerDone:
		return nil, ErrDraining
	}
	rep := <-rr.reply
	if rep.err != nil {
		obsv.MWALCheckpointErrors.Add(1)
		return nil, fmt.Errorf("server: checkpoint rotation: %w", rep.err)
	}
	if rep.epoch == s.lastCkptSeq.Load() {
		return &CheckpointResult{Epoch: rep.epoch, Skipped: true}, nil
	}

	snapName, err := s.writeCheckpointSnapshot(rep.epoch, rep.db)
	if err != nil {
		obsv.MWALCheckpointErrors.Add(1)
		return nil, err
	}
	if err := wal.WriteManifest(s.cfg.DataDir, wal.Manifest{
		Seq:      rep.epoch,
		Snapshot: snapName,
		Segment:  rep.segment,
	}); err != nil {
		obsv.MWALCheckpointErrors.Add(1)
		return nil, err
	}
	s.lastCkptSeq.Store(rep.epoch)
	s.cleanupData(rep.epoch, snapName, rep.segment)
	obsv.MWALCheckpoints.Add(1)
	obsv.MWALCheckpointSeconds.Observe(time.Since(start).Seconds())
	s.cfg.Log.LogAttrs(s.baseCtx, slog.LevelInfo, "checkpoint",
		slog.Uint64("epoch", rep.epoch),
		slog.String("snapshot", snapName),
		slog.Duration("duration", time.Since(start)))
	return &CheckpointResult{Epoch: rep.epoch, Snapshot: snapName}, nil
}

// writeCheckpointSnapshot saves db as the epoch's snapshot file,
// rename-atomically.
func (s *Server) writeCheckpointSnapshot(epoch uint64, db *lincount.Database) (string, error) {
	if err := s.cfg.Inject.Hit(faultinject.SiteWALCheckpoint); err != nil {
		return "", err
	}
	name := wal.SnapshotFileName(epoch)
	path := filepath.Join(s.cfg.DataDir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("server: writing checkpoint snapshot: %w", err)
	}
	if err := db.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("server: writing checkpoint snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("server: syncing checkpoint snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("server: closing checkpoint snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("server: publishing checkpoint snapshot: %w", err)
	}
	return name, nil
}

// cleanupData deletes segments and snapshots superseded by the
// checkpoint at epoch. Deletion failures are ignored: stale files cost
// disk, not correctness (recovery filters below the manifest's segment).
func (s *Server) cleanupData(epoch uint64, keepSnap, keepSeg string) {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == keepSnap || name == keepSeg || name == wal.ManifestName {
			continue
		}
		if seq, ok := wal.SegmentSeq(name); ok && seq < epoch {
			os.Remove(filepath.Join(s.cfg.DataDir, name))
		}
		if len(name) > 5 && name[:5] == "snap-" && name != keepSnap {
			os.Remove(filepath.Join(s.cfg.DataDir, name))
		}
	}
}

// Checkpoint triggers a checkpoint and waits for it: rotate the WAL,
// snapshot the rotated-out state, swap the manifest, delete superseded
// files. Safe to call concurrently (the checkpointer serializes);
// returns ErrNotDurable without a data directory and ErrDraining once a
// drain has begun. Registered as in-flight so Drain waits for a
// checkpoint already underway.
func (s *Server) Checkpoint(ctx context.Context) (*CheckpointResult, error) {
	if !s.Durable() {
		return nil, fail(ErrNotDurable)
	}
	if err := s.begin(); err != nil {
		return nil, fail(err)
	}
	defer s.inflight.Done()
	ctx, _, stop := s.requestCtx(ctx, 0)
	defer stop()

	call := ckptCall{reply: make(chan ckptReply, 1)}
	select {
	case s.ckptC <- call:
	case <-ctx.Done():
		return nil, fail(&lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)})
	}
	select {
	case rep := <-call.reply:
		if rep.err != nil {
			return nil, fail(rep.err)
		}
		return rep.res, nil
	case <-ctx.Done():
		// The checkpointer still completes the checkpoint; only this
		// caller stops waiting for it.
		return nil, fail(&lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)})
	}
}
