package rowstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// DefaultPoolPages is the default buffer pool capacity (3072 pages =
// 24 MiB, echoing the paper's shared_buffers=3072MB scaled to bench
// size).
const DefaultPoolPages = 3072

// Engine is the PostgreSQL/MADLib analogue.
type Engine struct {
	dir       string
	layout    Layout
	poolPages int

	// Durability (see durable.go). walOn arms the write-ahead log
	// under walPolicy/walFS and switches the buffer pool to no-steal so
	// the table file changes only at checkpoints. tailBudget (in live
	// readings) arms the background checkpointer.
	walOn      bool
	walPolicy  wal.SyncPolicy
	walFS      wal.FS
	wlog       *wal.Log
	tailBudget int64
	ckpt       *wal.Checkpointer
	// ckptAppended is ls.appended at the last checkpoint; the trigger
	// fires on the difference. Guarded by readMu.
	ckptAppended int64

	pf    *pagedFile
	bp    *bufferPool
	table *table
	// base is the published view Run reads; see view. Replaced, never
	// changed in place, under readMu.
	base *view

	// readMu serializes tuple extraction: the buffer pool and B+tree are
	// not thread-safe, so concurrent partition cursors take this lock
	// per readSeries — the analogue of connections contending on the
	// shared buffer latch. heap.get copies tuple bytes out before
	// unpinning, so nothing pool-owned escapes the critical section.
	// Live ingestion (live.go) runs entirely under the same latch:
	// Append holds it across a whole batch, so a snapshot (or any
	// reader) observes batches atomically.
	readMu sync.Mutex

	// live is the lazily built live-ingestion state (live.go), guarded
	// by readMu.
	live *liveState
}

// Option configures the engine.
type Option func(*Engine)

// WithLayout selects the physical schema (default LayoutRows).
func WithLayout(l Layout) Option { return func(e *Engine) { e.layout = l } }

// WithPoolPages sets the buffer pool capacity in pages.
func WithPoolPages(n int) Option { return func(e *Engine) { e.poolPages = n } }

// WithWAL arms the write-ahead log: every Append is framed into a log
// under <dir>/wal before it is acked, with the given fsync policy, and
// replayed through the idempotent append path on reopen. See
// internal/wal for the format and policy semantics.
func WithWAL(policy wal.SyncPolicy) Option {
	return func(e *Engine) {
		e.walOn = true
		e.walPolicy = policy
	}
}

// WithWALFS substitutes the filesystem under the write-ahead log — the
// crash-injection hook (fault.Disk). Pair it with WithWAL.
func WithWALFS(fs wal.FS) Option {
	return func(e *Engine) { e.walFS = fs }
}

// WithTailBudget arms automatic background checkpointing: once at
// least this many readings have been appended since the last
// checkpoint, the engine signals the checkpointer goroutine
// (StartCheckpointer) to fold them into the table file. Zero disables
// the trigger.
func WithTailBudget(readings int64) Option {
	return func(e *Engine) {
		if readings > 0 {
			e.tailBudget = readings
		}
	}
}

// New returns a row-store engine whose storage lives under dir.
func New(dir string, opts ...Option) *Engine {
	e := &Engine{
		dir:       dir,
		layout:    LayoutRows,
		poolPages: DefaultPoolPages,
		ckpt:      wal.NewCheckpointer(),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements core.Engine.
func (e *Engine) Name() string {
	return fmt.Sprintf("rowstore/%s (PostgreSQL-MADLib analogue)", e.layout)
}

// Capabilities implements core.Engine (Table 1, MADLib column).
func (e *Engine) Capabilities() core.Capabilities {
	return core.Capabilities{
		Histogram:        core.SupportBuiltin,
		Quantiles:        core.SupportBuiltin,
		Regression:       core.SupportBuiltin,
		CosineSimilarity: core.SupportNone,
	}
}

// Load implements core.Engine: it bulk-loads the CSV source into heap
// pages and builds the household B+tree, tuple by tuple — the cost
// profile behind the paper's Figure 4 MADLib bars.
func (e *Engine) Load(src *meterdata.Source) (*core.LoadStats, error) {
	if err := e.closeStorage(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	path := filepath.Join(e.dir, "table.db")
	if err := os.RemoveAll(path); err != nil {
		return nil, fmt.Errorf("rowstore: %w", err)
	}
	pf, err := openPagedFile(path)
	if err != nil {
		return nil, err
	}
	// The pool steals while it builds: the new file is no checkpoint
	// yet, and a no-steal pool would hold the whole table in memory.
	bp := newBufferPool(pf, e.poolPages)
	// Page 0 is reserved for the meta page.
	metaFr, err := bp.allocate()
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	bp.unpin(metaFr, true)
	heap, err := newHeapFile(bp)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	idx, err := newBTree(bp)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	tb := &table{layout: e.layout, heap: heap, index: idx}

	// The source may be one big CSV or many small files; bulk loading
	// one big file is faster for the DBMS (paper §5.3.1), a difference
	// that emerges naturally from per-file open/parse overhead.
	ds, err := meterdata.ReadDataset(src)
	if err != nil {
		_ = pf.close()
		return nil, err
	}
	var readings int64
	for _, s := range ds.Series {
		if err := tb.insertSeries(s, ds.Temperature); err != nil {
			_ = pf.close()
			return nil, err
		}
		readings += int64(len(s.Readings))
	}
	if err := writeMeta(bp, tb.meta()); err != nil {
		_ = pf.close()
		return nil, err
	}
	if err := bp.flush(); err != nil {
		_ = pf.close()
		return nil, err
	}
	if e.walOn {
		// The fresh base is a durability point: everything fsynced, and
		// any old log — which belonged to replaced state — cleared so it
		// cannot replay into the new table.
		if err := pf.sync(); err != nil {
			_ = pf.close()
			return nil, err
		}
		if err := wal.Clear(e.walDir(), e.walFS); err != nil {
			_ = pf.close()
			return nil, fmt.Errorf("rowstore: %w", err)
		}
		bp.noSteal = true
	}
	ids := make([]timeseries.ID, 0, len(ds.Series))
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	e.pf, e.bp, e.table = pf, bp, tb
	e.base = &view{e: e, ids: ids, n: tb.seriesLen, temp: ds.Temperature}
	return &core.LoadStats{
		Consumers:    len(ds.Series),
		Readings:     readings,
		StorageBytes: pf.sizeBytes(),
	}, nil
}

// Open re-attaches the engine to storage previously written by Load in
// the same directory, without re-ingesting any data — the durability
// path a restarted database server takes.
func (e *Engine) Open() error {
	if err := e.closeStorage(); err != nil {
		return err
	}
	pf, err := openPagedFile(filepath.Join(e.dir, "table.db"))
	if err != nil {
		return err
	}
	if pf.nPages == 0 {
		_ = pf.close()
		return fmt.Errorf("rowstore: %s holds no data", e.dir)
	}
	bp := newBufferPool(pf, e.poolPages)
	bp.noSteal = e.walOn
	m, err := readMeta(bp)
	if err != nil {
		_ = pf.close()
		return err
	}
	heap := &heapFile{bp: bp, first: m.heapFirst, last: m.heapLast, tuples: m.tuples}
	idx := openBTree(bp, m.root, m.height)
	tb := &table{
		layout:    m.layout,
		heap:      heap,
		index:     idx,
		seriesLen: m.seriesLen,
		consumers: m.consumers,
	}
	ids, err := tb.distinctIDs()
	if err == nil && len(ids) != m.consumers {
		// Households appended after the last publishing Checkpoint are
		// in the index too; the base view keeps only those holding the
		// whole published prefix.
		ids, err = tb.holdingPrefix(ids)
		tb.consumers = len(ids)
	}
	if err != nil {
		_ = pf.close()
		return err
	}
	e.layout = m.layout
	e.pf, e.bp, e.table = pf, bp, tb
	e.base = &view{e: e, ids: ids, n: tb.seriesLen}
	return nil
}

// Warm implements the benchmark's warm start: it extracts every series
// of the published view from the stored pages into memory (the paper's
// "run SELECT queries to extract the data we need"). It holds readMu
// throughout, so no Checkpoint publishes mid-extraction.
func (e *Engine) Warm() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	v := e.base
	if len(v.ids) == 0 {
		return fmt.Errorf("rowstore: table holds no households")
	}
	ds := &timeseries.Dataset{Series: make([]*timeseries.Series, 0, len(v.ids))}
	for _, id := range v.ids {
		cons, temp, err := e.table.readSeriesInto(id, v.n)
		if err != nil {
			return err
		}
		ds.Series = append(ds.Series, &timeseries.Series{ID: id, Readings: cons})
		if ds.Temperature == nil {
			ds.Temperature = &timeseries.Temperature{Values: temp}
		}
	}
	e.base = &view{e: e, ids: v.ids, n: v.n, cache: ds, temp: ds.Temperature}
	return nil
}

// Release implements core.Engine: drops the tuple cache and empties the
// buffer pool, so the next Run pays cold-start I/O again. With the
// write-ahead log armed, the pool's dirty pages cannot be written back
// in place (no-steal), so a copy-on-write rewrite folds them first; it
// publishes nothing, so the base view stays as it was.
func (e *Engine) Release() error {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.bp == nil {
		return nil
	}
	e.base = &view{e: e, ids: e.base.ids, n: e.base.n}
	if err := e.foldLogLocked(); err != nil {
		return err
	}
	return e.bp.reset()
}

// Close flushes and closes the underlying file.
func (e *Engine) Close() error { return e.closeStorage() }

func (e *Engine) closeStorage() error {
	if e.pf == nil {
		return nil
	}
	// Clean shutdown with a log open: fold the pool's dirty pages
	// atomically and truncate the log. No-steal pools never flush in
	// place, so after a failed fold the table file keeps the last
	// checkpoint and the log, still on disk, replays at the next open.
	e.readMu.Lock()
	first := e.foldLogLocked()
	e.readMu.Unlock()
	if !e.walOn {
		if err := e.bp.flush(); err != nil && first == nil {
			first = err
		}
	}
	if e.wlog != nil {
		if err := e.wlog.Close(); err != nil && first == nil {
			first = err
		}
		e.wlog = nil
	}
	if err := e.pf.close(); err != nil && first == nil {
		first = err
	}
	e.pf, e.bp, e.table = nil, nil, nil
	e.base = nil
	e.live = nil
	e.ckptAppended = 0
	return first
}

// Run implements core.Engine by handing the engine's cursor to the
// shared execution pipeline. Cold runs extract each consumer with an
// index scan and decode tuples one at a time; warm runs reuse the
// in-memory arrays built by Warm.
func (e *Engine) Run(spec core.Spec) (*core.Results, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext implements core.Engine: Run under a caller-supplied context
// governing cancellation and deadlines. The run reads one published
// view from its temperature column through every cursor.
func (e *Engine) RunContext(ctx context.Context, spec core.Spec) (*core.Results, error) {
	v, err := e.current()
	if err != nil {
		return nil, err
	}
	return exec.RunContext(ctx, v, spec)
}

// current returns the published view.
func (e *Engine) current() (*view, error) {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	return e.base, nil
}

// NewCursor implements core.Engine over the published view.
func (e *Engine) NewCursor() (core.Cursor, error) {
	v, err := e.current()
	if err != nil {
		return nil, err
	}
	return v.NewCursor()
}

// NewCursors implements core.PartitionedSource over the published view.
func (e *Engine) NewCursors(max int) ([]core.Cursor, error) {
	v, err := e.current()
	if err != nil {
		return nil, err
	}
	return v.NewCursors(max)
}

// Temperature implements core.Engine over the published view.
func (e *Engine) Temperature() (*timeseries.Temperature, error) {
	v, err := e.current()
	if err != nil {
		return nil, err
	}
	return v.Temperature()
}

var _ core.PartitionedSource = (*Engine)(nil)

// view is one published state of the base: the household list and
// series length Run reads, plus what Warm or Temperature extracted from
// them. Load, Open and a publishing Checkpoint install a new view; Warm
// and Release install one with or without the in-memory cache. A view
// never changes in place except for temp's lazy fill under readMu, so a
// Run that takes one view for its temperature column and all its
// cursors cannot pair a temperature column and series of different
// lengths when a Checkpoint publishes mid-run, and a cursor keeps
// reading what it opened on.
type view struct {
	e     *Engine
	ids   []timeseries.ID
	n     int
	cache *timeseries.Dataset // set by Warm
	temp  *timeseries.Temperature
}

// NewCursor is the view's full cursor: in-memory arrays after Warm,
// otherwise a serial index-scan cursor through the buffer pool.
func (v *view) NewCursor() (core.Cursor, error) {
	if v.cache != nil {
		return core.NewDatasetCursor(v.cache), nil
	}
	return &scanCursor{e: v.e, ids: v.ids, n: v.n}, nil
}

// NewCursors splits the view into contiguous household ranges of the
// sorted ID list, which are contiguous heap-page ranges because Load
// inserts tuples in household order. All scan cursors funnel through
// readSeriesShared, sharing the single buffer pool under the engine's
// read lock.
func (v *view) NewCursors(max int) ([]core.Cursor, error) {
	if max < 1 {
		return nil, fmt.Errorf("rowstore: NewCursors: max must be >= 1, got %d", max)
	}
	curs := make([]core.Cursor, 0, max)
	if v.cache != nil {
		series := v.cache.Series
		for _, r := range core.PartitionRanges(len(series), max) {
			part := series[r[0]:r[1]]
			curs = append(curs, core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
				return part, nil
			}, nil))
		}
		return curs, nil
	}
	for _, r := range core.PartitionRanges(len(v.ids), max) {
		curs = append(curs, &scanCursor{e: v.e, ids: v.ids[r[0]:r[1]], n: v.n})
	}
	return curs, nil
}

// Temperature is the view's temperature column, read from the first
// consumer's tuples on first use.
func (v *view) Temperature() (*timeseries.Temperature, error) {
	if v.cache != nil {
		return v.cache.Temperature, nil
	}
	e := v.e
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	if v.temp == nil {
		if len(v.ids) == 0 {
			return nil, fmt.Errorf("rowstore: table holds no households")
		}
		_, temp, err := e.table.readSeriesInto(v.ids[0], v.n)
		if err != nil {
			return nil, err
		}
		v.temp = &timeseries.Temperature{Values: temp}
	}
	return v.temp, nil
}

// readSeriesShared is the one extraction path every scan cursor uses:
// it holds readMu across the index scan and tuple decode of the first
// n hours.
func (e *Engine) readSeriesShared(id timeseries.ID, n int) (*timeseries.Series, error) {
	e.readMu.Lock()
	defer e.readMu.Unlock()
	if e.table == nil {
		return nil, fmt.Errorf("rowstore: %w", core.ErrNotLoaded)
	}
	return e.table.readSeriesUpTo(id, n)
}

// Layout returns the engine's physical schema.
func (e *Engine) Layout() Layout { return e.layout }

// PoolStats returns buffer pool hit/miss counters for diagnostics.
func (e *Engine) PoolStats() (hits, misses int64) {
	if e.bp == nil {
		return 0, 0
	}
	return e.bp.Hits, e.bp.Misses
}

var _ core.Engine = (*Engine)(nil)

// StorageBytes returns the current size of the engine's table file.
func (e *Engine) StorageBytes() int64 {
	if e.pf == nil {
		return 0
	}
	return e.pf.sizeBytes()
}
