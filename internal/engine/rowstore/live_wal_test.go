package rowstore

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// sameRows asserts two snapshot maps are bit-identical.
func sameRows(t *testing.T, got, want map[timeseries.ID][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d households, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("household %d missing after recovery", id)
		}
		if len(g) != len(w) {
			t.Fatalf("household %d: recovered %d hours, want %d", id, len(g), len(w))
		}
		for h := range w {
			if g[h] != w[h] {
				t.Fatalf("household %d hour %d: recovered %v, want %v", id, h, g[h], w[h])
			}
		}
	}
}

// loadWAL loads a fresh WAL-armed engine over a generated base and
// returns it with its directory, household IDs and base length.
func loadWAL(t *testing.T, layout Layout, opts ...Option) (e *Engine, dir string, ids []timeseries.ID, baseN int) {
	t.Helper()
	src, ds := writeSource(t, 4, 2)
	dir = t.TempDir()
	e = New(dir, append([]Option{WithLayout(layout), WithWAL(wal.SyncBatch)}, opts...)...)
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	return e, dir, ids, len(ds.Temperature.Values)
}

// TestWALRecoverAfterCrash: a crash drops the buffer pool's dirty
// pages (no-steal never wrote them back), so everything beyond the
// base lives only in the log — and replays bit-exactly on reopen.
func TestWALRecoverAfterCrash(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
			for h := baseN; h < baseN+24; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := drainSnap(t, cur)
			wantTemp := cur.(core.SnapshotTemperature).SnapshotTemp()
			cur.Close()
			e.Crash()

			re := New(dir, WithWAL(wal.SyncBatch))
			defer re.Close()
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			cur2, ep, err := re.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer cur2.Close()
			if ep != 0 {
				t.Errorf("post-recovery epoch = %d, want 0 (epochs restart per instance)", ep)
			}
			sameRows(t, drainSnap(t, cur2), want)
			temp := cur2.(core.SnapshotTemperature).SnapshotTemp()
			if len(temp.Values) != len(wantTemp.Values) {
				t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), len(wantTemp.Values))
			}
			for h, v := range temp.Values {
				if v != wantTemp.Values[h] {
					t.Fatalf("recovered temperature hour %d: %v, want %v", h, v, wantTemp.Values[h])
				}
			}
		})
	}
}

// TestWALCheckpointCrashRecover: a checkpoint folds the live tuples
// into the table file and truncates the log; appends after it land in
// the log again. A crash — with a torn checkpoint temp file abandoned
// next to the table, as a crash mid-rewrite would leave — recovers the
// checkpointed pages from the file and the rest from the log.
func TestWALCheckpointCrashRecover(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutArrays)
	for h := baseN; h < baseN+24; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := e.wlog.SizeBytes(); s > 16 {
		t.Errorf("wal holds %d bytes after checkpoint, want near-empty", s)
	}
	for h := baseN + 24; h < baseN+36; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()
	// Crash mid-checkpoint: the temp file exists, the rename never ran.
	torn := filepath.Join(dir, "table.db.tmp")
	if err := os.WriteFile(torn, []byte("torn mid-checkpoint page image"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatalf("reopen with abandoned checkpoint temp file: %v", err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestWALCleanCloseThenCrashlessReopen: Close checkpoints, so a
// reopened engine sees everything without replay; the log is empty.
func TestWALCleanCloseThenCrashlessReopen(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutRows)
	for h := baseN; h < baseN+10; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal", wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 16 {
		t.Errorf("wal holds %d bytes after clean close, want near-empty", fi.Size())
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestWALTornShardTailRecovers: bytes chopped off the log — the
// torn-write shape a power failure leaves — must never surface a
// decode error; the reopened engine holds the base plus a bit-exact
// prefix of the appended tail.
func TestWALTornShardTailRecovers(t *testing.T) {
	e, dir, ids, baseN := loadWAL(t, LayoutArrays)
	const extra = 12
	for h := baseN; h < baseN+extra; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	e.Crash()
	logPath := filepath.Join(dir, "wal", wal.FileName)
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatalf("reopen over torn log tail: %v", err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for _, id := range ids {
		got := rows[id]
		if len(got) < baseN || len(got) > baseN+extra {
			t.Fatalf("household %d: recovered %d hours, want between %d and %d", id, len(got), baseN, baseN+extra)
		}
		for h := baseN; h < len(got); h++ {
			if got[h] != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v (prefix must be bit-exact)", id, h, got[h], liveVal(id, h))
			}
		}
	}
}

// TestWALBackgroundCheckpointTrigger: crossing the tail budget wakes
// the background checkpointer, which truncates the log down to the
// post-fold remainder; a crash afterwards still recovers everything.
func TestWALBackgroundCheckpointTrigger(t *testing.T) {
	src, ds := writeSource(t, 4, 1)
	dir := t.TempDir()
	const budget = 50
	e := New(dir, WithWAL(wal.SyncBatch), WithTailBudget(budget))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	baseN := len(ds.Temperature.Values)
	ctx, cancel := context.WithCancel(context.Background())
	done := e.StartCheckpointer(ctx)
	const hours = 100 // 400 readings: crosses the budget repeatedly
	for h := baseN; h < baseN+hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	// After the last fold at most budget readings remain unfolded, so
	// the log settles below the byte cost of budget readings (28 bytes
	// each plus per-record framing); converging there proves a
	// checkpoint ran after (or at) the final budget crossing.
	limit := int64(8 + (budget/len(ids)+1)*(8+4+len(ids)*28))
	deadline := time.After(5 * time.Second)
	for e.wlog.SizeBytes() > limit {
		select {
		case <-deadline:
			t.Fatalf("background checkpoint never folded the log: %d bytes, limit %d", e.wlog.SizeBytes(), limit)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := e.CheckpointErr(); err != nil {
		t.Fatalf("background checkpoint error: %v", err)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("checkpointer did not exit on context cancel")
	}
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := drainSnap(t, cur)
	cur.Close()
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	defer re.Close()
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
	for _, id := range ids {
		if got := len(want[id]); got != baseN+hours {
			t.Fatalf("household %d: %d hours before crash, want %d", id, got, baseN+hours)
		}
	}
}

// TestWALCheckpointAppendSnapshotChaos races Checkpoint against
// concurrent Appends and Snapshots under -race, for both layouts:
// epochs stay monotonic across folds and every snapshot stays a
// bit-exact gap-free prefix.
func TestWALCheckpointAppendSnapshotChaos(t *testing.T) {
	const base = 48
	ids := make([]timeseries.ID, 0, 10)
	ds := &timeseries.Dataset{Temperature: &timeseries.Temperature{}}
	for h := 0; h < base; h++ {
		ds.Temperature.Values = append(ds.Temperature.Values, cursortest.IsolationTemp(h))
	}
	for id := timeseries.ID(1); id <= 10; id++ {
		ids = append(ids, id)
		s := &timeseries.Series{ID: id}
		for h := 0; h < base; h++ {
			s.Readings = append(s.Readings, cursortest.IsolationValue(id, h))
		}
		ds.Series = append(ds.Series, s)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e := New(t.TempDir(), WithLayout(layout), WithWAL(wal.SyncBatch))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			cursortest.RunCheckpointChaos(t, e, e.Checkpoint, ids, base, 48)
		})
	}
}

// TestWALRejectedBatchRecovers: a batch rejected part-way through on a
// gap must not stop recovery of the batches acked after it.
func TestWALRejectedBatchRecovers(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
			for h := baseN; h < baseN+8; h++ {
				hs := ids[:2]
				if h >= baseN+5 {
					hs = ids[1:2] // ids[0] stops at baseN+4
				}
				if err := e.Append(hourBatch(hs, h)); err != nil {
					t.Fatal(err)
				}
			}
			snap := func() map[timeseries.ID][]float64 {
				cur, _, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				return drainSnap(t, cur)
			}
			at := func(h int) core.Reading { return hourBatch(ids[:1], baseN+h)[0] }
			before := snap()
			if err := e.Append([]core.Reading{at(5), at(7)}); err == nil {
				t.Fatal("batch with a gap acked")
			}
			// A rejected batch leaves nothing visible, not even the
			// readings before its gap.
			sameRows(t, snap(), before)
			for h := 5; h <= 6; h++ {
				if err := e.Append([]core.Reading{at(h)}); err != nil {
					t.Fatal(err)
				}
			}
			want := snap()
			e.Crash()

			re := New(dir, WithWAL(wal.SyncBatch))
			defer re.Close()
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			cur2, _, err := re.Snapshot()
			if err != nil {
				t.Fatalf("recovery after a rejected batch: %v", err)
			}
			defer cur2.Close()
			sameRows(t, drainSnap(t, cur2), want)
		})
	}
}

// TestWALAppendLeavesTableFileUntouched: with the log armed, nothing
// but a checkpoint writes the table file. Appends that allocate pages
// and split index nodes leave table.db byte-identical, and so does a
// reopen that replays them.
func TestWALAppendLeavesTableFileUntouched(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			e, dir, ids, baseN := loadWAL(t, layout)
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "table.db")
			base, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			unchanged := func(when string) {
				t.Helper()
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(base) {
					t.Fatalf("%s: table.db changed (%d -> %d bytes)", when, len(base), len(got))
				}
			}
			const extra = 300
			for h := baseN; h < baseN+extra; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
			}
			if grown := int64(e.pf.nPages) * PageSize; grown <= int64(len(base)) {
				t.Fatalf("appends allocated no pages (%d bytes); the test needs a bigger tail", grown)
			}
			unchanged("after appends")
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := drainSnap(t, cur)
			cur.Close()
			e.Crash()

			re := New(dir, WithWAL(wal.SyncBatch))
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			cur2, _, err := re.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, drainSnap(t, cur2), want)
			cur2.Close()
			unchanged("after a reopen with replay")
			re.Crash()
		})
	}
}

// TestWALPoolStaysBounded: a no-steal pool evicts no dirty page, so
// Append folds the pool into the table file once it holds twice its
// capacity. A long run of appends through a 16-page pool keeps it
// within that bound plus one batch's pages, publishes nothing, and
// survives a crash and replay intact.
func TestWALPoolStaysBounded(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			const pages = 16
			e, dir, ids, baseN := loadWAL(t, layout, WithPoolPages(pages))
			for h := baseN; h < baseN+2000; h++ {
				if err := e.Append(hourBatch(ids, h)); err != nil {
					t.Fatal(err)
				}
				if n := len(e.bp.frames); n > 2*pages+4 {
					t.Fatalf("hour %d: pool holds %d frames, cap %d", h, n, pages)
				}
			}
			wantTotals(t, e, ids, baseN)
			cur, _, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want := drainSnap(t, cur)
			cur.Close()
			e.Crash()
			re := New(dir, WithWAL(wal.SyncBatch), WithPoolPages(pages))
			defer re.Close()
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			cur2, _, err := re.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, drainSnap(t, cur2), want)
			cur2.Close()
		})
	}
}
