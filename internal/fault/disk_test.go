package fault

import (
	"bytes"
	"errors"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// TestDiskDurability pins the two-layer model: synced bytes survive
// Reboot verbatim, unsynced bytes resolve to a torn prefix.
func TestDiskDurability(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 7})
	f, err := d.OpenAppend("a.log")
	if err != nil {
		t.Fatal(err)
	}
	synced := []byte("synced-bytes")
	if _, err := f.Write(synced); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile-tail")); err != nil {
		t.Fatal(err)
	}
	d.Reboot()
	g, err := d.OpenAppend("a.log")
	if err != nil {
		t.Fatal(err)
	}
	size, err := g.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size < int64(len(synced)) {
		t.Fatalf("size %d after reboot: synced prefix was lost", size)
	}
	got := make([]byte, len(synced))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, synced) {
		t.Fatalf("synced prefix changed across reboot: %q", got)
	}
}

// TestDiskCrashAtOp checks the op counter: the Nth operation and
// everything after it fail with ErrCrashed, and nothing before does.
func TestDiskCrashAtOp(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 1, CrashAtOp: 3})
	f, err := d.OpenAppend("a.log") // not counted
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("two")); err == nil { // op 3: crash
		t.Fatal("op 3 did not crash")
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 3 failed with %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op got %v, want ErrCrashed", err)
	}
	if !d.Crashed() {
		t.Fatal("Crashed() = false after crash")
	}
	d.Reboot()
	if d.Crashed() {
		t.Fatal("Crashed() = true after reboot")
	}
	if _, err := d.OpenAppend("a.log"); err != nil {
		t.Fatalf("reopen after reboot: %v", err)
	}
}

// TestDiskRenameAtomic walks the temp-file-then-rename protocol
// (write old · create tmp · write tmp · sync tmp · rename · syncdir,
// ops 1..8): a crash at or before the rename leaves the old content;
// a crash after it serves the new content — never a mix.
func TestDiskRenameAtomic(t *testing.T) {
	writeReplace := func(d *Disk) {
		f, err := d.Create("seg") // op 1
		if err != nil {
			return
		}
		if _, err := f.Write([]byte("old")); err != nil { // op 2
			return
		}
		if err := f.Sync(); err != nil { // op 3
			return
		}
		g, err := d.Create("seg.tmp") // op 4
		if err != nil {
			return
		}
		if _, err := g.Write([]byte("new")); err != nil { // op 5
			return
		}
		if err := g.Sync(); err != nil { // op 6
			return
		}
		if err := d.Rename("seg.tmp", "seg"); err != nil { // op 7
			return
		}
		_ = d.SyncDir(".") // op 8
	}
	for crashAt := int64(4); crashAt <= 8; crashAt++ {
		d := NewDisk(DiskConfig{Seed: 2, CrashAtOp: crashAt})
		writeReplace(d)
		d.Reboot()
		h, err := d.OpenAppend("seg")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3)
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		want := "old"
		if crashAt > 7 {
			want = "new"
		}
		if string(buf) != want {
			t.Fatalf("crashAt=%d: segment content %q, want %q", crashAt, buf, want)
		}
	}
}

// TestDiskWALSweep drives the real WAL over the fault disk at every
// crash point of a fixed append script: after reboot, Open must
// recover every committed batch and never decode a torn record.
func TestDiskWALSweep(t *testing.T) {
	script := make([][]core.Reading, 8)
	for i := range script {
		script[i] = []core.Reading{{
			ID:          timeseries.ID(1 + i%2),
			Hour:        i / 2,
			Consumption: float64(i) * 1.5,
			Temperature: float64(i) * 0.5,
		}}
	}
	run := func(d *Disk) (acked int) {
		l, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncBatch, FS: d})
		if err != nil {
			return 0
		}
		for _, b := range script {
			seq, err := l.Append(b)
			if err != nil {
				return acked
			}
			if err := l.Commit(seq); err != nil {
				return acked
			}
			acked++
		}
		_ = l.Close()
		return acked
	}

	probe := NewDisk(DiskConfig{Seed: 3})
	if got := run(probe); got != len(script) {
		t.Fatalf("probe run acked %d of %d batches", got, len(script))
	}
	maxOp := probe.Ops()
	if maxOp < 16 {
		t.Fatalf("probe counted only %d ops; sweep too small", maxOp)
	}

	torn := 0
	for op := int64(1); op <= maxOp; op++ {
		d := NewDisk(DiskConfig{Seed: 3, CrashAtOp: op})
		acked := run(d)
		d.Reboot()
		torn += d.TornFiles()
		r, err := wal.Open(wal.Options{Dir: "wal", FS: d})
		if err != nil {
			t.Fatalf("op %d: reopen: %v", op, err)
		}
		recovered := 0
		if err := r.Replay(func(batch []core.Reading) error {
			recovered++
			return nil
		}); err != nil {
			t.Fatalf("op %d: replay: %v", op, err)
		}
		if recovered < acked {
			t.Errorf("op %d: recovered %d batches < %d acked", op, recovered, acked)
		}
		if recovered > len(script) {
			t.Errorf("op %d: recovered %d batches, more than ever written", op, recovered)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("op %d: close: %v", op, err)
		}
	}
	if torn == 0 {
		t.Error("no crash point produced a torn file; the tear model is dead")
	}
	t.Logf("swept %d crash points, %d torn files", maxOp, torn)
}

// TestDiskFailSync: injected fsync failures surface through Commit
// without crashing the disk.
func TestDiskFailSync(t *testing.T) {
	d := NewDisk(DiskConfig{Seed: 4, FailSyncRate: 1})
	l, err := wal.Open(wal.Options{Dir: "wal", Policy: wal.SyncBatch, FS: d})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]core.Reading{{ID: 1, Hour: 0, Consumption: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); err == nil {
		t.Fatal("Commit succeeded under FailSyncRate=1")
	}
	if d.Crashed() {
		t.Fatal("fsync failure must not crash the disk")
	}
}
