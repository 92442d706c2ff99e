package colstore

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/smartmeter/smartbench/internal/colcodec"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Live ingestion (core.Appender). The read-optimized segment file never
// grows in place; instead each household accumulates an in-memory tail
// beyond the immutable base segment. Tails are sharded across
// independently locked maps so concurrent writers on disjoint
// households (core.ShardFor) apply in parallel, and a tail seals every
// completed day into a compressed colcodec block — the same encoding
// SegmentWriter uses — so resident cost stays near the on-disk ratio.
// Checkpoint folds base + tails into a fresh segment file through
// SegmentWriter, making the tail durable and visible to Run. Append is
// the engine's one write path: the paper's §3 update workload is one
// Append batch holding every household's new day, then Checkpoint —
// which rewrites the whole segment image, the read-optimized
// structure's update cost the paper anticipates.
//
// Isolation. Writers share ingestMu.RLock (their mutual exclusion is
// the per-shard locks); Snapshot takes ingestMu exclusively, so it
// waits out in-flight batches and can never observe half a batch.
// Captured tail state stays valid forever because tails are
// append-only: an append writes beyond every captured slice length (or
// reallocates), and sealing a day swaps in a fresh open slice rather
// than truncating the captured one.
//
// Durability. Without WithWAL the tail lives in memory only: Release,
// Load and OpenExisting drop it, and Checkpoint is the only way to
// keep appended data. With WithWAL armed, every batch is one record in
// the engine's write-ahead log (internal/wal) before Append acks —
// written under the locks of the shards the batch touches, so for
// every household log order equals apply order — and replayed through
// this same idempotent apply path on reopen. Duplicates in the log
// (retried batches are re-logged whole) fall into the r.Hour <
// expected no-op, so recovery is bit-exact with a no-crash run over
// the acked prefix. Checkpoint folds the common prefix of every
// household into a fresh segment file (temp file + fsync + rename +
// dir fsync) and rewrites the log down to the unfolded remainders.

// liveShards is the number of independently locked tail maps. Sixteen
// comfortably exceeds the writer counts the ingest benchmark drives
// (Workers:4) while keeping the snapshot sweep trivial.
const liveShards = 16

// dayHours is the sealing granularity: one compressed block per
// completed day, mirroring the hourly-readings-per-day layout the
// paper's tasks assume.
const dayHours = 24

// sealedDay is one full day of readings sealed into a colcodec block.
type sealedDay struct {
	payload []byte
}

// liveSeries is one household's in-memory tail beyond the base
// segment. sealed and open are append-only; see the isolation note
// above.
type liveSeries struct {
	id     timeseries.ID
	base   int // hours stored in the base segment (0 for new households)
	sealed []sealedDay
	open   []float64 // current partial day
}

// hours returns the household's total committed hours, base included.
func (ls *liveSeries) hours() int {
	return ls.base + dayHours*len(ls.sealed) + len(ls.open)
}

type liveShard struct {
	mu  sync.Mutex
	m   map[timeseries.ID]*liveSeries
	enc colcodec.Encoder
}

// liveTail is the engine's live-ingestion state.
type liveTail struct {
	// ingestMu is share-locked by writers and exclusively locked by
	// Snapshot: batch atomicity with respect to snapshots.
	ingestMu sync.RWMutex
	epoch    atomic.Uint64
	applied  atomic.Int64 // tail readings resident (the checkpoint trigger)

	baseN   int                   // base series length (0 without a base)
	baseIDs map[timeseries.ID]int // base household -> consumer index

	shards [liveShards]liveShard

	// wlog, when non-nil, is the armed write-ahead log. A batch is
	// framed into it under the locks of every shard it touches.
	wlog *wal.Log

	tempMu   sync.Mutex
	tempTail []float64 // temperature beyond the base column; append-only
}

// ensureLive lazily builds the live tail, attaching the base segment
// file when one exists (a missing file just means ingestion starts
// from empty).
func (e *Engine) ensureLive() (*liveTail, error) {
	e.liveMu.Lock()
	defer e.liveMu.Unlock()
	if e.live != nil {
		return e.live, nil
	}
	if e.store == nil {
		if _, err := os.Stat(e.path); err == nil {
			if err := e.attach(); err != nil {
				return nil, err
			}
		}
	}
	lt := &liveTail{}
	if e.store != nil {
		lt.baseN = e.store.n
		lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
		for i, id := range e.store.ids {
			lt.baseIDs[id] = i
		}
	}
	for i := range lt.shards {
		lt.shards[i].m = make(map[timeseries.ID]*liveSeries)
	}
	if e.walOn {
		lg, err := wal.Open(wal.Options{
			Dir:    e.walDir(),
			Policy: e.walPolicy,
			FS:     e.walFS,
		})
		if err != nil {
			return nil, fmt.Errorf("colstore: %w", err)
		}
		// Recovery: replay the acked batches through the same
		// idempotent apply path live writes take (lt.wlog is still nil,
		// so nothing is re-logged). Readings already in the base (a
		// checkpoint outran the log rewrite) fall into the duplicate
		// no-op; the epoch is untouched — it restarts at the reopened
		// state's zero, per the core.Appender contract.
		err = lg.Replay(func(batch []core.Reading) error {
			_, err := lt.apply(batch)
			return err
		})
		if err != nil {
			_ = lg.Close()
			return nil, fmt.Errorf("colstore: wal replay: %w", err)
		}
		lt.wlog = lg
	}
	e.live = lt
	return lt, nil
}

// Append implements core.Appender. It is safe for concurrent use with
// itself and Snapshot; writers whose batches touch disjoint shards
// (pre-split with core.ShardFor) apply in parallel. With the WAL armed,
// the batch is one log record before Append returns, and — under
// SyncBatch/SyncAlways — group-committed to disk, so a nil return
// means the batch survives a crash.
func (e *Engine) Append(batch []core.Reading) error {
	lt, err := e.ensureLive()
	if err != nil {
		return err
	}
	lt.ingestMu.RLock()
	seq, err := lt.apply(batch)
	if err == nil && lt.wlog != nil {
		// Group commit outside the shard locks: concurrent writers
		// share the leader's fsync instead of serializing on it.
		err = lt.wlog.Commit(seq)
	}
	if err != nil {
		lt.ingestMu.RUnlock()
		return err
	}
	lt.epoch.Add(1)
	applied := lt.applied.Load()
	lt.ingestMu.RUnlock()
	if e.tailBudget > 0 && applied >= e.tailBudget {
		e.ckpt.Trigger()
	}
	return nil
}

// apply locks the tail shards the batch touches, in ascending order,
// and validates the whole batch. Still holding those locks, it frames
// the batch into the log (when armed) as one record and then applies
// it, so for every household log order equals apply order, and memory
// never holds a reading the log lacks. A rejected batch changes neither
// memory nor the log. The returned seq is for Commit (zero when nothing
// was logged).
//
// Redelivered hours (below the household's next expected hour) are
// skipped, making retried batches apply exactly once — but they are
// logged with the rest, deliberately: a batch whose first attempt
// reached memory but failed its commit must land in the log again when
// the caller retries and gets its ack, or the ack would promise
// durability the log cannot deliver. Replay skips the duplicates just
// like this loop does.
func (lt *liveTail) apply(batch []core.Reading) (seq uint64, err error) {
	var touched [liveShards]bool
	for i := range batch {
		touched[core.ShardFor(batch[i].ID, liveShards)] = true
	}
	for si := range touched {
		if touched[si] {
			lt.shards[si].mu.Lock()
		}
	}
	defer func() {
		for si := range touched {
			if touched[si] {
				lt.shards[si].mu.Unlock()
			}
		}
	}()
	if err := lt.validate(batch); err != nil {
		return 0, err
	}
	if lt.wlog != nil && len(batch) > 0 {
		if seq, err = lt.wlog.Append(batch); err != nil {
			return 0, err
		}
	}
	lt.extendTemp(batch)
	var applied int64
	for i := range batch {
		r := &batch[i]
		sh := &lt.shards[core.ShardFor(r.ID, liveShards)]
		ls := sh.m[r.ID]
		if ls == nil {
			ls = &liveSeries{id: r.ID}
			if _, ok := lt.baseIDs[r.ID]; ok {
				ls.base = lt.baseN
			}
			sh.m[r.ID] = ls
		}
		if r.Hour < ls.hours() {
			continue // duplicate redelivery: already committed
		}
		ls.open = append(ls.open, r.Consumption)
		applied++
		if len(ls.open) == dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: sh.enc.AppendValues(nil, ls.open)})
			// A fresh slice, not a truncation: snapshots captured the
			// old day's header and keep reading it.
			ls.open = nil
		}
	}
	lt.applied.Add(applied)
	return seq, nil
}

// validate checks the whole batch, in batch order, against the state
// it would extend, changing nothing: positive household IDs,
// non-negative hours, and no gap in any household or in the shared
// temperature column. The caller holds the lock of every shard the
// batch touches.
func (lt *liveTail) validate(batch []core.Reading) error {
	next := make(map[timeseries.ID]int, len(batch)) // next hour per household, batch applied so far
	for i := range batch {
		r := &batch[i]
		if r.ID <= 0 {
			return fmt.Errorf("colstore: household id must be positive, got %d", r.ID)
		}
		if r.Hour < 0 {
			return fmt.Errorf("colstore: negative hour %d for household %d", r.Hour, r.ID)
		}
		expected, ok := next[r.ID]
		if !ok {
			expected = lt.committedHours(r.ID)
		}
		if r.Hour > expected {
			return fmt.Errorf("colstore: household %d: gap at hour %d, expected %d", r.ID, r.Hour, expected)
		}
		if r.Hour == expected {
			expected++
		}
		next[r.ID] = expected
	}
	// The column only grows, so a batch that fits it now still fits
	// when extendTemp runs.
	lt.tempMu.Lock()
	n := lt.baseN + len(lt.tempTail)
	lt.tempMu.Unlock()
	for i := range batch {
		switch h := batch[i].Hour; {
		case h == n:
			n++
		case h > n:
			return fmt.Errorf("colstore: temperature gap: reading at hour %d, column covers %d", h, n)
		}
	}
	return nil
}

// committedHours is the household's next expected hour. The caller
// holds the household's shard lock.
func (lt *liveTail) committedHours(id timeseries.ID) int {
	if ls := lt.shards[core.ShardFor(id, liveShards)].m[id]; ls != nil {
		return ls.hours()
	}
	if _, ok := lt.baseIDs[id]; ok {
		return lt.baseN
	}
	return 0
}

// extendTemp grows the shared temperature column over a validated
// batch. A reading at an hour the column already covers is a no-op
// (shared column, idempotent redelivery).
func (lt *liveTail) extendTemp(batch []core.Reading) {
	lt.tempMu.Lock()
	defer lt.tempMu.Unlock()
	for i := range batch {
		if r := &batch[i]; r.Hour == lt.baseN+len(lt.tempTail) {
			lt.tempTail = append(lt.tempTail, r.Temperature)
		}
	}
}

// snapItem is one household's captured state: an optional base segment
// column plus immutable tail headers.
type snapItem struct {
	id     timeseries.ID
	cons   int // base consumer index, -1 when tail-only
	baseH  int
	sealed []sealedDay
	open   []float64
}

// Snapshot implements core.Appender: a read-isolated cursor over the
// base segment plus every committed tail, with the epoch it was taken
// at. The cursor reads base columns through the engine's current
// residency mode (pager or resident image) and stays valid while
// appends continue; Load, Release or Checkpoint invalidate it.
func (e *Engine) Snapshot() (core.Cursor, core.Epoch, error) {
	lt, err := e.ensureLive()
	if err != nil {
		return nil, 0, err
	}
	lt.ingestMu.Lock()
	// Read the store reference inside the exclusive section: a
	// concurrent Checkpoint swaps it under the same lock, and the
	// captured tail state must pair with the base it grew on.
	st, pg := e.store, e.pager
	ep := core.Epoch(lt.epoch.Load())
	tails := make(map[timeseries.ID]*snapItem)
	for si := range lt.shards {
		for id, ls := range lt.shards[si].m {
			tails[id] = &snapItem{id: id, cons: -1, sealed: ls.sealed, open: ls.open}
		}
	}
	nTemp := lt.baseN + len(lt.tempTail)
	temp := make([]float64, 0, nTemp)
	if st != nil {
		temp = append(temp, st.temp...)
	}
	temp = append(temp, lt.tempTail...)
	lt.ingestMu.Unlock()

	var items []snapItem
	if st != nil {
		items = make([]snapItem, 0, st.consumers+len(tails))
		for c, id := range st.ids {
			it := snapItem{id: id, cons: c, baseH: st.n}
			if t, ok := tails[id]; ok {
				it.sealed, it.open = t.sealed, t.open
				delete(tails, id)
			}
			items = append(items, it)
		}
	} else {
		items = make([]snapItem, 0, len(tails))
	}
	for _, t := range tails {
		items = append(items, *t)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
	return &snapCursor{st: st, pg: pg, items: items, temp: temp}, ep, nil
}

var _ core.Appender = (*Engine)(nil)

// snapCursor merges one base column with the captured tail per Next.
// Rows are fresh allocations: they must outlive the cursor while the
// pager recycles frames and writers keep appending.
type snapCursor struct {
	st      *segStore
	pg      *pager
	items   []snapItem
	temp    []float64
	ctx     context.Context
	scratch []byte
	i       int
	closed  bool
}

func (c *snapCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *snapCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.items) {
		return nil, io.EOF
	}
	it := &c.items[c.i]
	total := it.baseH + dayHours*len(it.sealed) + len(it.open)
	row := make([]float64, total)
	if it.baseH > 0 {
		if err := c.decodeBase(it.cons, row[:it.baseH]); err != nil {
			return nil, err
		}
	}
	off := it.baseH
	for b := range it.sealed {
		vals, _, err := colcodec.DecodeValues(it.sealed[b].payload, row[off:off:off+dayHours])
		if err != nil {
			return nil, err
		}
		if len(vals) != dayHours {
			return nil, fmt.Errorf("colstore: sealed day decoded to %d values", len(vals))
		}
		copy(row[off:off+dayHours], vals)
		off += dayHours
	}
	copy(row[off:], it.open)
	c.i++
	return &timeseries.Series{ID: it.id, Readings: row}, nil
}

// decodeBase reads one base consumer column through the pager in
// budgeted mode, or out of the resident image otherwise.
func (c *snapCursor) decodeBase(cons int, dst []float64) error {
	if c.pg != nil {
		st := c.pg.st
		for b := 0; b < st.blockCount; b++ {
			f, scratch, err := c.pg.fetch(cons, b, c.scratch)
			if err != nil {
				c.scratch = scratch
				return err
			}
			c.scratch = scratch
			copy(dst[f.start:f.start+len(f.vals)], f.vals)
			c.pg.unpin(f)
		}
		return nil
	}
	var err error
	c.scratch, err = c.st.decodeConsumerInto(cons, dst, c.scratch)
	return err
}

func (c *snapCursor) Reset() error {
	// Rows were handed out as fresh slices; replaying re-decodes the
	// same captured state.
	c.i = 0
	c.closed = false
	return nil
}

func (c *snapCursor) Close() error {
	c.closed = true
	c.scratch = nil
	return nil
}

func (c *snapCursor) SizeHint() (int, bool) { return len(c.items), true }

// SnapshotTemp implements core.SnapshotTemperature: the temperature
// column as captured at snapshot time.
func (c *snapCursor) SnapshotTemp() *timeseries.Temperature {
	return &timeseries.Temperature{Values: c.temp}
}

// Checkpoint folds the live tail into a fresh segment file and
// re-attaches it, making appended data durable in the read-optimized
// format and shrinking (or emptying) the tail. It is safe to run
// concurrently with Append and Snapshot: it takes the ingest lock
// exclusively, waits out in-flight batches, and stops the world for
// the fold. The fold cut is the minimum total hours over all
// households — everything below it moves into the new base, the
// remainders stay in the tail — so households need not be aligned. The
// segment rewrite is crash-safe (temp file, fsync, rename, directory
// fsync): a crash mid-checkpoint leaves the old segment intact and,
// with the WAL armed, the full log to replay over it. Epochs keep
// counting across a checkpoint, and snapshot cursors taken before it
// stay readable: a replaced paged store is retired, not closed, until
// Release; a replaced in-core image lives as long as a cursor holds it.
func (e *Engine) Checkpoint() error {
	lt, err := e.ensureLive()
	if err != nil {
		return err
	}
	lt.ingestMu.Lock()
	defer lt.ingestMu.Unlock()
	return e.checkpointLocked(lt)
}

// ckptSeries is one household's fold state during a checkpoint.
type ckptSeries struct {
	id  timeseries.ID
	ls  *liveSeries // nil for base households with no tail
	rem []float64   // readings above the cut, kept in the new tail
}

// checkpointLocked is Checkpoint's body; the caller holds ingestMu
// exclusively, so shard maps, the temperature tail and e.store are all
// frozen.
func (e *Engine) checkpointLocked(lt *liveTail) error {
	st := e.store
	// Collect every household and its total hours; the fold cut is
	// the minimum, so the new base stays rectangular.
	var items []ckptSeries
	byID := make(map[timeseries.ID]*liveSeries)
	for si := range lt.shards {
		for id, ls := range lt.shards[si].m {
			byID[id] = ls
		}
	}
	cut := -1
	if st != nil {
		items = make([]ckptSeries, 0, st.consumers+len(byID))
		for _, id := range st.ids {
			ls := byID[id]
			delete(byID, id)
			h := st.n
			if ls != nil {
				h = ls.hours()
			}
			items = append(items, ckptSeries{id: id, ls: ls})
			if cut < 0 || h < cut {
				cut = h
			}
		}
	}
	for id, ls := range byID {
		items = append(items, ckptSeries{id: id, ls: ls})
		if h := ls.hours(); cut < 0 || h < cut {
			cut = h
		}
	}
	if len(items) == 0 {
		return fmt.Errorf("colstore: nothing to checkpoint")
	}
	if st != nil && cut <= st.n {
		// A laggard household pins the cut at (or below) the current
		// base: nothing can fold without truncating stored data.
		return nil
	}
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })

	fullTemp := make([]float64, 0, lt.baseN+len(lt.tempTail))
	if st != nil {
		fullTemp = append(fullTemp, st.temp...)
	}
	fullTemp = append(fullTemp, lt.tempTail...)
	if cut > len(fullTemp) {
		return fmt.Errorf("colstore: checkpoint: households cover %d hours, temperature only %d", cut, len(fullTemp))
	}

	var opts []WriterOption
	if st != nil {
		opts = append(opts, WithBlockRows(st.blockRows))
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return fmt.Errorf("colstore: %w", err)
	}
	tmp := e.path + ".tmp"
	w, err := NewSegmentWriter(tmp, fullTemp[:cut], opts...)
	if err != nil {
		return err
	}
	var row []float64
	var scratch []byte
	for i := range items {
		it := &items[i]
		row, scratch, err = lt.assembleRow(st, it, row, scratch)
		if err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
		if err := w.Append(it.id, row[:cut]); err != nil {
			_ = w.Close()
			_ = os.Remove(tmp)
			return err
		}
		if len(row) > cut {
			it.rem = append([]float64(nil), row[cut:]...)
		}
	}
	if err := w.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, e.path); err != nil {
		return fmt.Errorf("colstore: checkpoint rename: %w", err)
	}
	if err := wal.SyncDir(e.dir); err != nil {
		return fmt.Errorf("colstore: checkpoint: sync dir: %w", err)
	}

	// Swap in the new base. A paged old store is retired, not closed:
	// snapshot cursors taken before this checkpoint keep decoding it
	// through its file handle. An in-core store holds no handle; the
	// cursors' own pointers keep its image alive while they read.
	if e.store != nil && e.store.f != nil {
		e.retired = append(e.retired, e.store)
	}
	e.decoded = nil
	e.pager = nil
	if err := e.attach(); err != nil {
		return err
	}

	// Rebuild the tail in place (writers blocked on ingestMu resume
	// against the same liveTail): fresh shard maps hold only the
	// remainders, re-sealed at day granularity. The epoch keeps
	// counting — snapshots stay monotonic across the fold.
	lt.baseN = cut
	lt.baseIDs = make(map[timeseries.ID]int, e.store.consumers)
	for i, id := range e.store.ids {
		lt.baseIDs[id] = i
	}
	var remReadings int64
	for i := range lt.shards {
		lt.shards[i].m = make(map[timeseries.ID]*liveSeries)
	}
	for i := range items {
		it := &items[i]
		if len(it.rem) == 0 {
			continue
		}
		sh := &lt.shards[core.ShardFor(it.id, liveShards)]
		ls := &liveSeries{id: it.id, base: cut}
		rem := it.rem
		for len(rem) >= dayHours {
			ls.sealed = append(ls.sealed, sealedDay{payload: sh.enc.AppendValues(nil, rem[:dayHours])})
			rem = rem[dayHours:]
		}
		if len(rem) > 0 {
			ls.open = append([]float64(nil), rem...)
		}
		sh.m[it.id] = ls
		remReadings += int64(len(it.rem))
	}
	lt.tempTail = append([]float64(nil), fullTemp[cut:]...)
	lt.applied.Store(remReadings)

	// Shrink the log to the remainders. A crash between the segment
	// rename above and this rewrite is safe: the stale log replays
	// over the new base and every folded reading lands in the
	// duplicate no-op.
	if lt.wlog != nil {
		var batches [][]core.Reading
		for i := range items {
			it := &items[i]
			if len(it.rem) == 0 {
				continue
			}
			b := make([]core.Reading, len(it.rem))
			for j, v := range it.rem {
				b[j] = core.Reading{
					ID:          it.id,
					Hour:        cut + j,
					Consumption: v,
					Temperature: fullTemp[cut+j],
				}
			}
			batches = append(batches, b)
		}
		if err := lt.wlog.Rewrite(batches); err != nil {
			return err
		}
	}
	return nil
}

// assembleRow decodes one household's full series — base column,
// sealed tail days, open tail — into row, reusing the buffers.
func (lt *liveTail) assembleRow(st *segStore, it *ckptSeries, row []float64, scratch []byte) ([]float64, []byte, error) {
	baseH := 0
	cons := -1
	if st != nil {
		if c, ok := lt.baseIDs[it.id]; ok {
			baseH, cons = st.n, c
		}
	}
	total := baseH
	if it.ls != nil {
		total = it.ls.hours()
	}
	if cap(row) < total {
		row = make([]float64, total)
	}
	row = row[:total]
	if baseH > 0 {
		var err error
		scratch, err = st.decodeConsumerInto(cons, row[:baseH], scratch)
		if err != nil {
			return row, scratch, err
		}
	}
	if it.ls == nil {
		return row, scratch, nil
	}
	off := baseH
	for b := range it.ls.sealed {
		vals, _, err := colcodec.DecodeValues(it.ls.sealed[b].payload, row[off:off:off+dayHours])
		if err != nil {
			return row, scratch, err
		}
		if len(vals) != dayHours {
			return row, scratch, fmt.Errorf("colstore: sealed day decoded to %d values", len(vals))
		}
		copy(row[off:off+dayHours], vals)
		off += dayHours
	}
	copy(row[off:], it.ls.open)
	return row, scratch, nil
}
