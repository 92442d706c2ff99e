package rowstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Checkpoints for the row store. A Checkpoint publishes the common
// prefix of every household as the new base view and makes the table
// file hold everything committed.
//
// With the write-ahead log (internal/wal) armed, the engine pairs it
// with a no-steal buffer pool: the table file on disk only ever holds
// the last checkpoint, every acked Append is framed into the log
// first, and recovery is "open the checkpointed file, replay the log
// through the idempotent append path". A checkpoint is then a
// copy-on-write rewrite — stream every page (dirty frames from the
// pool, the rest from the file) into a temp file, fsync, rename over
// the table, fsync the directory, then truncate the log — so a crash
// at any point leaves either the old file with its full log or the
// new file with an empty one, never a torn mix.
//
// Without the log the pool writes dirty pages back in place (steal)
// and every Append flushes, so a checkpoint works in place too: write
// the meta page, flush the pool, fsync the table file. That keeps the
// paper's update workload a tuples-only write rather than a rewrite of
// the whole file.

// walDir is where the engine's write-ahead log lives.
func (e *Engine) walDir() string { return filepath.Join(e.dir, "wal") }

// Checkpoint publishes the common prefix of every household to Run
// (see publish) and makes the table file hold everything committed:
// with the write-ahead log armed, by an atomic rewrite that truncates
// the log; without it, in place. Safe to call concurrently with
// Append/Snapshot: it serializes on the engine's extraction latch.
func (e *Engine) Checkpoint() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	// ensureLive replays any unreplayed log before we truncate it.
	ls, err := e.ensureLive()
	if err != nil {
		return err
	}
	e.publish(ls)
	if e.walOn {
		return e.checkpointLocked()
	}
	e.ckptAppended = ls.appended
	if err := writeMeta(e.bp, e.table.meta()); err != nil {
		return err
	}
	if err := e.bp.flush(); err != nil {
		return err
	}
	return e.pf.sync()
}

// publish advances the base view to the common prefix of every
// household: the minimum committed length, as in colstore's fold cut.
// Publishing sets the series length, the household list and the
// consumer count; the meta page follows at the checkpoint's write. A
// household shorter than the current base (one that joined late) pins
// the cut, and nothing publishes; once it catches up to the base
// length, it publishes even if the cut stays where it was. Cursors
// opened before keep the list and length they captured. Callers hold
// readMu.
func (e *Engine) publish(ls *liveState) {
	cut := -1
	for _, id := range ls.ids {
		if n := ls.lens[id]; cut < 0 || n < cut {
			cut = n
		}
	}
	tb := e.table
	if cut < tb.seriesLen || (cut == tb.seriesLen && len(ls.ids) == len(e.base.ids)) {
		return
	}
	tb.seriesLen = cut
	tb.consumers = len(ls.ids)
	// A copy: applyBatch inserts into ls.ids in place, and open cursors
	// hold subslices of the old view's list.
	e.base = &view{e: e, ids: append([]timeseries.ID(nil), ls.ids...), n: cut}
}

// foldLogLocked is the write-ahead log's checkpoint without
// publishing: it folds the no-steal pool's dirty pages into the table
// file and truncates the log, for Release and Close, under readMu.
// Without an open log it does nothing.
func (e *Engine) foldLogLocked() error {
	if !e.walOn || e.wlog == nil {
		return nil
	}
	return e.checkpointLocked()
}

// checkpointLocked is the write-ahead log's copy-on-write checkpoint,
// under readMu. The caller must have replayed the log (ensureLive) if
// one exists on disk.
func (e *Engine) checkpointLocked() error {
	// The meta page must describe the state being checkpointed: with
	// the log armed, Append leaves it to the checkpoint.
	if err := writeMeta(e.bp, e.table.meta()); err != nil {
		return err
	}
	path := filepath.Join(e.dir, "table.db")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rowstore: checkpoint: %w", err)
	}
	fail := func(err error) error {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	var buf [PageSize]byte
	for id := PageID(0); id < e.pf.nPages; id++ {
		src := buf[:]
		if fr, ok := e.bp.frames[id]; ok {
			src = fr.data[:]
		} else if err := e.pf.read(id, buf[:]); err != nil {
			return fail(err)
		}
		if _, err := f.Write(src); err != nil {
			return fail(fmt.Errorf("rowstore: checkpoint write page %d: %w", id, err))
		}
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("rowstore: checkpoint sync: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rowstore: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("rowstore: checkpoint rename: %w", err)
	}
	if err := wal.SyncDir(e.dir); err != nil {
		return fmt.Errorf("rowstore: checkpoint: sync dir: %w", err)
	}
	// Swap the file handle under the pool; cached frames keep their
	// page IDs (the rewrite preserved every offset) and are now clean.
	npf, err := openPagedFile(path)
	if err != nil {
		return err
	}
	old := e.pf
	e.pf = npf
	e.bp.pf = npf
	for _, fr := range e.bp.frames {
		fr.dirty = false
	}
	e.bp.trim()
	if e.live != nil {
		e.ckptAppended = e.live.appended
	}
	if err := old.close(); err != nil {
		return err
	}
	// The checkpoint covers everything the log held.
	if e.wlog != nil {
		if err := e.wlog.Rewrite(nil); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
	}
	return nil
}

// StartCheckpointer runs background checkpointing until ctx is
// cancelled: whenever WithTailBudget readings accumulate past the last
// checkpoint, they are folded into the table file and the log
// truncated. The returned channel closes when the goroutine exits.
// Errors are recorded for CheckpointErr; ingestion keeps running until
// the next trigger retries.
func (e *Engine) StartCheckpointer(ctx context.Context) <-chan struct{} {
	return e.ckpt.Start(ctx, e.Checkpoint)
}

// CheckpointErr returns the most recent background-checkpoint failure,
// nil if none.
func (e *Engine) CheckpointErr() error { return e.ckpt.Err() }

// Crash simulates a process death for recovery tests: every file
// handle drops with no flush, sync or checkpoint. The engine object is
// dead afterwards — recovery happens by opening a fresh engine over
// the same directory.
func (e *Engine) Crash() {
	if e.wlog != nil {
		e.wlog.Drop()
		e.wlog = nil
	}
	if e.pf != nil {
		_ = e.pf.close()
	}
	e.pf, e.bp, e.table = nil, nil, nil
	e.base = nil
	e.live = nil
	e.ckptAppended = 0
}
