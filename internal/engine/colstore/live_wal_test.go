package colstore

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// sameRows asserts two snapshot maps are bit-identical: same households,
// same lengths, same values.
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

// TestWALRecoverAfterCrash: everything appended before a crash replays
// bit-exactly from the log on reopen, with the epoch restarting at zero
// (epochs are per engine instance).
func TestWALRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{3, 7, 12, 21}
	const hours = 30
	for h := 0; h < hours; h++ {
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
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
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
	if len(temp.Values) != hours {
		t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), hours)
	}
	for h, v := range temp.Values {
		if v != liveTemp(h) {
			t.Fatalf("recovered temperature hour %d: %v, want %v", h, v, liveTemp(h))
		}
	}
	// Recovery is idempotent: a second crash-and-reopen with no new
	// appends replays the same prefix again.
	re.Crash()
	re2 := New(dir, WithWAL(wal.SyncBatch))
	cur3, _, err := re2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur3.Close()
	sameRows(t, drainSnap(t, cur3), want)
}

// TestWALReplayOnOpenExisting: a live tail on top of a loaded base
// survives a crash; OpenExisting reports the recovered tail in its
// stats and serves base + tail bit-exactly.
func TestWALReplayOnOpenExisting(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
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
	cur.Close()
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	st, err := re.OpenExisting()
	if err != nil {
		t.Fatal(err)
	}
	wantReadings := int64(len(ids)) * int64(baseN+24)
	if st.Readings != wantReadings {
		t.Errorf("OpenExisting stats.Readings = %d, want %d (base + recovered tail)", st.Readings, wantReadings)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur2.Close()
	sameRows(t, drainSnap(t, cur2), want)
}

// TestCheckpointCrashLeavesOldWALSegmentReadable: a crash mid-Checkpoint
// — after the temp segment started streaming but before the rename —
// must leave the previous segment and the write-ahead log untouched, so
// a reopen recovers everything and a later Checkpoint succeeds over the
// abandoned temp file.
func TestCheckpointCrashLeavesOldWALSegmentReadable(t *testing.T) {
	src, ds := writeSource(t, 3, 2)
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
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
	cur.Close()

	// Simulate the crash point: Checkpoint writes <segment>.tmp and the
	// process dies before the rename, leaving a torn temp file behind.
	torn := e.path + ".tmp"
	if err := os.WriteFile(torn, []byte("torn mid-checkpoint segment write"), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	if _, err := re.OpenExisting(); err != nil {
		t.Fatalf("reopen with abandoned checkpoint temp file: %v", err)
	}
	cur2, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, drainSnap(t, cur2), want)
	cur2.Close()

	// A real Checkpoint now replaces both the stale temp file and the
	// old segment; the folded state still matches.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := re.live.applied.Load(); got != 0 {
		t.Errorf("tail readings after checkpoint = %d, want 0", got)
	}
	cur3, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur3.Close()
	sameRows(t, drainSnap(t, cur3), want)
}

// TestWALCheckpointRemainder: with households at unequal hours the
// checkpoint folds only the common prefix and rewrites the log down to
// the remainders; a crash right after still recovers every acked hour.
func TestWALCheckpointRemainder(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{2, 5, 9}
	const common, lead = 48, 7
	for h := 0; h < common; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	for h := common; h < common+lead; h++ {
		if err := e.Append(hourBatch(ids[:1], h)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if e.store == nil || e.store.n != common {
		t.Fatalf("checkpoint cut: store covers %v hours, want %d", e.store, common)
	}
	if got := e.live.applied.Load(); got != lead {
		t.Errorf("tail readings after checkpoint = %d, want %d", got, lead)
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for i, id := range ids {
		wantN := common
		if i == 0 {
			wantN = common + lead
		}
		got := rows[id]
		if len(got) != wantN {
			t.Fatalf("household %d: recovered %d hours, want %d", id, len(got), wantN)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v", id, h, v, liveVal(id, h))
			}
		}
	}
	temp := cur.(core.SnapshotTemperature).SnapshotTemp()
	if len(temp.Values) != common+lead {
		t.Fatalf("recovered temperature covers %d hours, want %d", len(temp.Values), common+lead)
	}
}

// TestWALCheckpointAppendSnapshotChaos races Checkpoint against
// concurrent Appends and Snapshots under -race: epochs must stay
// monotonic across folds and every snapshot must remain a bit-exact
// gap-free prefix, before, during and after each segment swap.
func TestWALCheckpointAppendSnapshotChaos(t *testing.T) {
	e := New(t.TempDir(), WithWAL(wal.SyncBatch))
	var ids []timeseries.ID
	for id := timeseries.ID(1); id <= 12; id++ {
		ids = append(ids, id)
	}
	ckpt := func() error {
		err := e.Checkpoint()
		if err != nil && strings.Contains(err.Error(), "nothing to checkpoint") {
			// The race can win before the first append lands.
			return nil
		}
		return err
	}
	cursortest.RunCheckpointChaos(t, e, ckpt, ids, 0, 72)
}

// TestWALBackgroundCheckpointTrigger: crossing the tail budget wakes the
// background checkpointer, which folds the tail without losing a
// reading; cancelling the context stops the goroutine.
func TestWALBackgroundCheckpointTrigger(t *testing.T) {
	dir := t.TempDir()
	const budget = 100
	e := New(dir, WithWAL(wal.SyncBatch), WithTailBudget(budget))
	ctx, cancel := context.WithCancel(context.Background())
	done := e.StartCheckpointer(ctx)
	ids := []timeseries.ID{4, 8, 15, 16}
	const hours = 60 // 240 readings: crosses the budget at least once
	for h := 0; h < hours; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	// The fold is asynchronous; wait for the tail to shrink below the
	// budget (the checkpointer owns no other signal a test can join on).
	deadline := time.After(5 * time.Second)
	for e.live.applied.Load() >= budget {
		select {
		case <-deadline:
			t.Fatalf("background checkpoint never fired: tail readings = %d", e.live.applied.Load())
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
	// Nothing was lost across the fold.
	cur, _, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for _, id := range ids {
		got := rows[id]
		if len(got) != hours {
			t.Fatalf("household %d: %d hours after background checkpoint, want %d", id, len(got), hours)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: %v, want %v", id, h, v, liveVal(id, h))
			}
		}
	}
	if e.store == nil {
		t.Fatal("no segment store after background checkpoint")
	}
}

// TestWALTornShardTailRecovers: chopping bytes off the log — the
// torn-write shape a power failure leaves — must never surface a decode
// error; the engine reopens with each household holding a bit-exact
// prefix of what was appended.
func TestWALTornShardTailRecovers(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	ids := []timeseries.ID{1, 2, 3, 4, 5, 6}
	const hours = 20
	for h := 0; h < hours; h++ {
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
	if err := os.Truncate(logPath, fi.Size()-11); err != nil {
		t.Fatal(err)
	}

	re := New(dir, WithWAL(wal.SyncBatch))
	cur, _, err := re.Snapshot()
	if err != nil {
		t.Fatalf("reopen over a torn log tail: %v", err)
	}
	defer cur.Close()
	rows := drainSnap(t, cur)
	for id, got := range rows {
		if len(got) > hours {
			t.Fatalf("household %d: %d hours recovered, only %d appended", id, len(got), hours)
		}
		for h, v := range got {
			if v != liveVal(id, h) {
				t.Fatalf("household %d hour %d: recovered %v, want %v (prefix must be bit-exact)", id, h, v, liveVal(id, h))
			}
		}
	}
}

// TestWALRejectedBatchRecovers: a batch rejected part-way through on a
// gap must change neither memory nor the log. Were its valid prefix
// applied, a later batch building on it would ack, and replay — which
// never saw the rejected batch — would fail on the gap, losing every
// acked reading.
func TestWALRejectedBatchRecovers(t *testing.T) {
	dir := t.TempDir()
	e := New(dir, WithWAL(wal.SyncBatch))
	for h := 0; h < 8; h++ {
		ids := []timeseries.ID{3, 4}
		if h >= 5 {
			ids = ids[1:] // household 3 stops at hour 4
		}
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	snap := func(eng *Engine) map[timeseries.ID][]float64 {
		t.Helper()
		cur, _, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		return drainSnap(t, cur)
	}
	want := snap(e)
	at := func(h int) core.Reading { return hourBatch([]timeseries.ID{3}, h)[0] }
	if err := e.Append([]core.Reading{at(5), at(7)}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("batch with a gap: err = %v, want a gap error", err)
	}
	sameRows(t, snap(e), want)
	// Hour 5 never applied, so hour 6 is still a gap.
	if err := e.Append([]core.Reading{at(6)}); err == nil {
		t.Fatal("hour 6 acked although the rejected batch's hour 5 must not have applied")
	}
	e.Crash()

	re := New(dir, WithWAL(wal.SyncBatch))
	sameRows(t, snap(re), want)
	re.Crash()
}

// walShardIDs returns household IDs that between them touch every
// tail shard.
func walShardIDs(t *testing.T) []timeseries.ID {
	t.Helper()
	var ids []timeseries.ID
	var seen [liveShards]bool
	covered := 0
	for id := timeseries.ID(1); covered < liveShards; id++ {
		if id > 1000 {
			t.Fatalf("IDs 1..1000 cover only %d of %d shards", covered, liveShards)
		}
		ids = append(ids, id)
		if s := core.ShardFor(id, liveShards); !seen[s] {
			seen[s] = true
			covered++
		}
	}
	return ids
}

// TestWALAppendCostsOneWriteOneFsync: under SyncAlways, an Append that
// spans every tail shard costs exactly two disk operations — one log
// write and one fsync — however many shards it touches.
func TestWALAppendCostsOneWriteOneFsync(t *testing.T) {
	disk := fault.NewDisk(fault.DiskConfig{})
	e := New(t.TempDir(), WithWAL(wal.SyncAlways), WithWALFS(disk))
	ids := walShardIDs(t)
	// The first Append opens the log; measure the second.
	if err := e.Append(hourBatch(ids, 0)); err != nil {
		t.Fatal(err)
	}
	before := disk.Ops()
	if err := e.Append(hourBatch(ids, 1)); err != nil {
		t.Fatal(err)
	}
	if got := disk.Ops() - before; got != 2 {
		t.Errorf("Append over %d shards cost %d disk ops, want 2 (one write, one fsync)", liveShards, got)
	}
	e.Crash()
}

// renameDisk records the renames made through a fault disk.
type renameDisk struct {
	*fault.Disk
	renamed []string
}

func (d *renameDisk) Rename(oldPath, newPath string) error {
	d.renamed = append(d.renamed, newPath)
	return d.Disk.Rename(oldPath, newPath)
}

// TestWALCheckpointRewritesOneLog: a Checkpoint replaces the log with
// exactly one rename, whatever the number of tail shards holding
// remainders.
func TestWALCheckpointRewritesOneLog(t *testing.T) {
	disk := &renameDisk{Disk: fault.NewDisk(fault.DiskConfig{})}
	e := New(t.TempDir(), WithWAL(wal.SyncAlways), WithWALFS(disk))
	ids := walShardIDs(t)
	for h := 0; h < 30; h++ {
		if err := e.Append(hourBatch(ids, h)); err != nil {
			t.Fatal(err)
		}
	}
	// One household runs ahead, so the checkpoint leaves a remainder.
	if err := e.Append(hourBatch(ids[:1], 30)); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(disk.renamed) != 1 {
		t.Fatalf("Checkpoint renamed %d log files (%v), want 1", len(disk.renamed), disk.renamed)
	}
	e.Crash()
}
