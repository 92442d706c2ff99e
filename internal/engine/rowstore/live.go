package rowstore

import (
	"context"
	"fmt"
	"io"
	"sort"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Live ingestion (core.Appender). New readings become ordinary tuple
// inserts through the same heap/B+tree machinery as the bulk loader —
// page append behind the buffer-pool latch. The whole batch is applied
// while holding readMu, the engine's single extraction latch, which
// makes writers serial (deliberately contrasting colstore's sharded
// tail: this engine models connections contending on a shared buffer
// pool) and makes batches atomic with respect to snapshots and
// readers for free.
//
// Append is the engine's one write path: the paper's §3 update
// workload ("add a day's worth of new points") is one Append batch
// holding every household's new hours, followed by Checkpoint.
//
// Visibility. The published view (engine.go) holds the base household
// list and length: NewCursor, Run and Warm read exactly that prefix, so
// the base is stable while ingestion runs, and Checkpoint publishes the
// common prefix of every household as a new view (durable.go).
// Snapshot captures the per-household live lengths and serves the full
// committed state through truncating prefix reads (readSeriesUpTo), so
// a snapshot at epoch E never observes a batch committed after E.
//
// Durability. Live tuples are real pages: without the write-ahead log
// every Append rewrites the meta page and flushes the buffer pool, so
// a reopened engine rebuilds its live lengths from the index
// (ensureLive scans lazily — the cold-start path pays nothing until
// the first Append or Snapshot). That baseline loses whatever a crash
// catches mid-flush; WithWAL closes the hole: the batch is framed into
// the write-ahead log before Append acks — the whole batch, duplicates
// included, because a batch applied in memory whose log write failed
// must re-log entirely on retry or the retry's ack would promise
// durability the log cannot deliver — the pool switches to no-steal
// and nothing but a checkpoint writes the table file, and reopen
// replays the log through applyBatch, which skips duplicates exactly
// like live delivery. See durable.go for the checkpoint protocol.

// liveState tracks per-household committed lengths beyond the
// published seriesLen. Guarded by Engine.readMu.
type liveState struct {
	epoch    uint64
	appended int64                    // tuples inserted through live Append this session
	lens     map[timeseries.ID]int    // household -> total committed hours
	seqs     map[timeseries.ID]uint64 // next index sequence (LayoutArrays chunk seq)
	ids      []timeseries.ID          // ascending, base + live-only households
	temp     []float64                // full temperature column incl. live hours
}

// ensureLive lazily builds the live state from the index. Callers hold
// readMu.
func (e *Engine) ensureLive() (*liveState, error) {
	if e.live != nil {
		return e.live, nil
	}
	// Every household in the index, published or not: one that joined
	// after the last publishing Checkpoint is outside the published view.
	ids, err := e.table.distinctIDs()
	if err != nil {
		return nil, err
	}
	ls := &liveState{
		lens: make(map[timeseries.ID]int, len(ids)),
		seqs: make(map[timeseries.ID]uint64, len(ids)),
		ids:  ids,
	}
	maxLen := 0
	var maxID timeseries.ID
	for _, id := range ids {
		n, seq, err := e.table.committedLen(id)
		if err != nil {
			return nil, err
		}
		ls.lens[id] = n
		ls.seqs[id] = seq
		if n > maxLen {
			maxLen, maxID = n, id
		}
	}
	if maxLen > 0 {
		// The longest household's tuples carry the full temperature
		// column (every committed hour appears in at least that one).
		_, temp, err := e.table.readSeriesInto(maxID, maxLen)
		if err != nil {
			return nil, err
		}
		ls.temp = temp
	}
	if e.walOn && e.wlog == nil {
		// First touch after open: replay whatever the log holds on top
		// of the checkpointed base. Batches apply through the same
		// duplicate-skipping path as live delivery, so a log that
		// overlaps the base (clean shutdown mid-ingest) is harmless.
		lg, err := wal.Open(wal.Options{
			Dir:    e.walDir(),
			Policy: e.walPolicy,
			FS:     e.walFS,
		})
		if err != nil {
			return nil, fmt.Errorf("rowstore: %w", err)
		}
		if err := lg.Replay(func(batch []core.Reading) error {
			return e.applyBatch(ls, batch)
		}); err != nil {
			_ = lg.Close()
			return nil, fmt.Errorf("rowstore: wal replay: %w", err)
		}
		e.wlog = lg
	}
	e.live = ls
	return ls, nil
}

// committedLen finds one household's total committed hours (live
// tuples included) and next sequence number from its last index entry.
// The scan starts at the entry holding the published prefix's last
// hour, so a household holding the prefix costs one seek plus its live
// entries rather than a walk of its whole index range; one that does
// not (it joined after the last publish) falls back to the whole range.
func (tb *table) committedLen(id timeseries.ID) (hours int, nextSeq uint64, err error) {
	var from uint64
	if tb.seriesLen > 0 {
		from = uint64(tb.seriesLen - 1)
		if tb.layout == LayoutArrays {
			// A chunk holds at most chunkHours hours, so the chunk
			// holding hour h has sequence number h/chunkHours or more.
			from /= chunkHours
		}
	}
	hours, nextSeq, found, err := tb.lastEntry(id, from)
	if err == nil && !found && from > 0 {
		hours, nextSeq, _, err = tb.lastEntry(id, 0)
	}
	return hours, nextSeq, err
}

// lastEntry reads the committed length and next sequence number from
// the last of one household's index entries at sequence from or later.
func (tb *table) lastEntry(id timeseries.ID, from uint64) (hours int, nextSeq uint64, found bool, err error) {
	var lastK key
	var lastT TID
	err = tb.index.scanRange(key{ID: uint64(id), Seq: from}, key{ID: uint64(id) + 1}, func(k key, v TID) error {
		lastK, lastT, found = k, v, true
		return nil
	})
	if err != nil || !found {
		return 0, 0, false, err
	}
	switch tb.layout {
	case LayoutRows:
		return int(lastK.Seq) + 1, lastK.Seq + 1, true, nil
	case LayoutArrays:
		t, err := tb.heap.get(lastT)
		if err != nil {
			return 0, 0, false, err
		}
		start, count, err := chunkBounds(t)
		if err != nil {
			return 0, 0, false, err
		}
		return start + count, lastK.Seq + 1, true, nil
	default:
		return 0, 0, false, fmt.Errorf("rowstore: unknown layout %v", tb.layout)
	}
}

// holdingPrefix keeps the households that hold at least the published
// seriesLen hours.
func (tb *table) holdingPrefix(ids []timeseries.ID) ([]timeseries.ID, error) {
	kept := ids[:0]
	for _, id := range ids {
		n, _, err := tb.committedLen(id)
		if err != nil {
			return nil, err
		}
		if n >= tb.seriesLen {
			kept = append(kept, id)
		}
	}
	return kept, nil
}

// Append implements core.Appender. The batch is applied under readMu —
// serial writers, atomic batches — with redelivered hours skipped, so
// a retried batch applies exactly once. Without the write-ahead log the
// meta page is rewritten and the pool flushed per batch; with it, the
// log record is the batch's durability and the table file waits for
// the next checkpoint, or for the fold Append runs itself once the
// no-steal pool holds twice its capacity.
func (e *Engine) Append(batch []core.Reading) error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	ls, err := e.ensureLive()
	if err != nil {
		return err
	}
	if e.walOn && e.bp.overfull() {
		// A no-steal pool evicts no dirty page, so between checkpoints
		// it grows with every page the appends dirty. Fold them into the
		// table file (publishing nothing) before this batch, so a
		// failed fold leaves the batch unapplied.
		if err := e.checkpointLocked(); err != nil {
			return err
		}
	}
	if err := e.applyBatch(ls, batch); err != nil {
		return err
	}
	if e.wlog != nil && len(batch) > 0 {
		// Log the batch verbatim before acking. A failed write or sync
		// surfaces here and the ack never happens; the producer's retry
		// re-applies (duplicates skip) and re-logs the whole batch.
		seq, err := e.wlog.Append(batch)
		if err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
		if err := e.wlog.Commit(seq); err != nil {
			return fmt.Errorf("rowstore: %w", err)
		}
	}
	if e.tailBudget > 0 && ls.appended-e.ckptAppended >= e.tailBudget {
		e.ckpt.Trigger()
	}
	ls.epoch++
	if e.walOn {
		return nil
	}
	if err := writeMeta(e.bp, e.table.meta()); err != nil {
		return err
	}
	return e.bp.flush()
}

// applyBatch inserts the batch's fresh readings. LayoutArrays
// coalesces each maximal contiguous same-household run into chunk
// tuples, so chunks never span a batch — the invariant the truncating
// prefix reads rely on. The whole batch is validated before any of it
// is applied, so a rejected batch leaves the pool, the index and the
// live state untouched; household lengths advance only once tuples are
// actually inserted, so a batch aborted by a storage error leaves a
// retryable state.
func (e *Engine) applyBatch(ls *liveState, batch []core.Reading) error {
	if err := ls.validate(batch); err != nil {
		return err
	}
	tb := e.table
	var buf []byte
	var runID timeseries.ID
	var runStart int
	var runCons, runTemps []float64
	flushRun := func() error {
		if len(runCons) == 0 {
			return nil
		}
		seq := ls.seqs[runID]
		if err := tb.insertChunks(runID, seq, runStart, runCons, runTemps); err != nil {
			return err
		}
		ls.seqs[runID] = seq + uint64((len(runCons)+chunkHours-1)/chunkHours)
		ls.lens[runID] = runStart + len(runCons)
		ls.appended += int64(len(runCons))
		runCons, runTemps = runCons[:0], runTemps[:0]
		return nil
	}
	for i := range batch {
		r := &batch[i]
		expected, known := ls.lens[r.ID]
		if tb.layout == LayoutArrays && r.ID == runID && len(runCons) > 0 {
			// The pending run extends this household past its flushed
			// length.
			if end := runStart + len(runCons); end > expected {
				expected = end
			}
		}
		if r.Hour < expected {
			continue // duplicate redelivery: already committed
		}
		if !known {
			// First reading of a new household: register it in the
			// ascending ID list (base households were pre-registered).
			pos := sort.Search(len(ls.ids), func(j int) bool { return ls.ids[j] >= r.ID })
			ls.ids = append(ls.ids, 0)
			copy(ls.ids[pos+1:], ls.ids[pos:])
			ls.ids[pos] = r.ID
			ls.lens[r.ID] = 0
		}
		if r.Hour == len(ls.temp) {
			ls.temp = append(ls.temp, r.Temperature)
		}
		switch tb.layout {
		case LayoutRows:
			buf = encodeRowTuple(buf, r.ID, r.Hour, r.Temperature, r.Consumption)
			tid, err := tb.heap.insert(buf)
			if err != nil {
				return err
			}
			if err := tb.index.insert(key{ID: uint64(r.ID), Seq: uint64(r.Hour)}, tid); err != nil {
				return err
			}
			ls.lens[r.ID] = r.Hour + 1
			ls.appended++
		case LayoutArrays:
			if r.ID != runID || len(runCons) == 0 || r.Hour != runStart+len(runCons) {
				if err := flushRun(); err != nil {
					return err
				}
				runID, runStart = r.ID, r.Hour
			}
			runCons = append(runCons, r.Consumption)
			runTemps = append(runTemps, r.Temperature)
		default:
			return fmt.Errorf("rowstore: unknown layout %v", tb.layout)
		}
	}
	return flushRun()
}

// validate checks the whole batch, in batch order, against the state
// it would extend, changing nothing: non-negative hours, positive IDs
// for new households, and no gap in any household or in the shared
// temperature column. Redelivered hours are skipped, as applyBatch
// skips them.
func (ls *liveState) validate(batch []core.Reading) error {
	next := make(map[timeseries.ID]int, len(batch)) // next hour per household, batch applied so far
	temp := len(ls.temp)
	for i := range batch {
		r := &batch[i]
		if r.Hour < 0 {
			return fmt.Errorf("rowstore: negative hour %d for household %d", r.Hour, r.ID)
		}
		expected, ok := next[r.ID]
		if !ok {
			var known bool
			if expected, known = ls.lens[r.ID]; !known && r.ID <= 0 {
				return fmt.Errorf("rowstore: household id must be positive, got %d", r.ID)
			}
		}
		if r.Hour < expected {
			continue // duplicate redelivery: already committed
		}
		if r.Hour > expected {
			return fmt.Errorf("rowstore: household %d: gap at hour %d, expected %d", r.ID, r.Hour, expected)
		}
		next[r.ID] = expected + 1
		switch {
		case r.Hour == temp:
			temp++
		case r.Hour > temp:
			return fmt.Errorf("rowstore: temperature gap: reading at hour %d, column covers %d", r.Hour, temp)
		}
	}
	return nil
}

// Snapshot implements core.Appender: a read-isolated cursor over the
// full committed state — published base plus live tuples — in
// ascending household-ID order, with the epoch it was taken at. The
// cursor re-reads tuples through the shared latch per Next, truncated
// to the lengths captured here, so later appends are invisible to it.
func (e *Engine) Snapshot() (core.Cursor, core.Epoch, error) {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return nil, 0, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	ls, err := e.ensureLive()
	if err != nil {
		return nil, 0, err
	}
	lens := make(map[timeseries.ID]int, len(ls.lens))
	for id, n := range ls.lens {
		lens[id] = n
	}
	return &rowSnapCursor{
		e:    e,
		ids:  append([]timeseries.ID(nil), ls.ids...),
		lens: lens,
		temp: append([]float64(nil), ls.temp...),
	}, core.Epoch(ls.epoch), nil
}

var _ core.Appender = (*Engine)(nil)

// rowSnapCursor serves one captured-length prefix read per Next.
type rowSnapCursor struct {
	e      *Engine
	ids    []timeseries.ID
	lens   map[timeseries.ID]int
	temp   []float64
	ctx    context.Context
	i      int
	closed bool
}

func (c *rowSnapCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *rowSnapCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.ids) {
		return nil, io.EOF
	}
	id := c.ids[c.i]
	c.e.readMu.Lock()
	if c.e.table == nil {
		c.e.readMu.Unlock()
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	s, err := c.e.table.readSeriesUpTo(id, c.lens[id])
	c.e.readMu.Unlock()
	if err != nil {
		return nil, err
	}
	c.i++
	return s, nil
}

func (c *rowSnapCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *rowSnapCursor) Close() error {
	c.closed = true
	return nil
}

func (c *rowSnapCursor) SizeHint() (int, bool) { return len(c.ids), true }

// SnapshotTemp implements core.SnapshotTemperature.
func (c *rowSnapCursor) SnapshotTemp() *timeseries.Temperature {
	return &timeseries.Temperature{Values: c.temp}
}
