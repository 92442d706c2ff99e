package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// mkBatch builds a deterministic batch for household id starting at
// hour h.
func mkBatch(id timeseries.ID, h, n int) []core.Reading {
	batch := make([]core.Reading, n)
	for i := range batch {
		hour := h + i
		batch[i] = core.Reading{
			ID:          id,
			Hour:        hour,
			Consumption: float64(id)*1000 + float64(hour)*0.25,
			Temperature: 10 + float64(hour)*0.125,
		}
	}
	return batch
}

func sameReadings(t *testing.T, got, want []core.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d readings, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Hour != w.Hour ||
			math.Float64bits(g.Consumption) != math.Float64bits(w.Consumption) ||
			math.Float64bits(g.Temperature) != math.Float64bits(w.Temperature) {
			t.Fatalf("reading %d: got %+v, want %+v", i, g, w)
		}
	}
}

// collect replays a log into a slice of batches.
func collect(t *testing.T, l *Log) [][]core.Reading {
	t.Helper()
	var out [][]core.Reading
	if err := l.Replay(func(batch []core.Reading) error {
		out = append(out, batch)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]core.Reading
	for i := 0; i < 6; i++ {
		b := mkBatch(timeseries.ID(i%3+1), (i/3)*4, 4)
		seq, err := l.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	if l.SizeBytes() <= int64(len(magic)) {
		t.Fatalf("SizeBytes = %d, want > magic only", l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	st := r.Stats()
	if st.Batches != 6 || st.Readings != 24 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want 6 batches / 24 readings / 0 truncated", st)
	}
	got := collect(t, r)
	if len(got) != len(want) {
		t.Fatalf("got %d batches, want %d", len(got), len(want))
	}
	for i := range want {
		sameReadings(t, got[i], want[i])
	}
	// Replay is one-shot.
	if again := collect(t, r); len(again) != 0 {
		t.Fatalf("second replay returned %d batches", len(again))
	}
}

// TestTornTailTruncated cuts a log file mid-record and checks the torn
// record is CRC-rejected and truncated while the intact prefix
// survives.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b0 := mkBatch(1, 0, 5)
	b1 := mkBatch(1, 5, 5)
	for _, b := range [][]core.Reading{b0, b1} {
		seq, err := l.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the second record: drop its last 3 bytes.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 1 || st.Readings != 5 {
		t.Fatalf("stats = %+v, want exactly the first batch recovered", st)
	}
	if st.TruncatedBytes <= 0 {
		t.Fatalf("TruncatedBytes = %d, want > 0", st.TruncatedBytes)
	}
	got := collect(t, r)
	sameReadings(t, got[0], b0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail must be gone from disk: a third open sees a clean
	// one-record log.
	r2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.TruncatedBytes != 0 || st.Batches != 1 {
		t.Fatalf("after truncation, stats = %+v, want clean 1-batch log", st)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordTruncated flips a payload byte mid-file: the CRC
// must reject that record and everything after it, never decoding
// either.
func TestCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		if _, err := l.Append(mkBatch(1, i*4, 4)); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, l.SizeBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the second record's payload.
	data[sizes[0]+recHdrSize+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 1 {
		t.Fatalf("recovered %d batches, want 1 (corruption must cut record 2 and 3)", st.Batches)
	}
	wantCut := sizes[2] - sizes[0]
	if st.TruncatedBytes != wantCut {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, wantCut)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBadMagicResets replaces the magic: the whole file is garbage and
// must be reset without decoding anything.
func TestBadMagicResets(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(mkBatch(1, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Batches != 0 || st.TruncatedBytes != int64(len(data)) {
		t.Fatalf("stats = %+v, want 0 batches and the whole file truncated", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommit drives concurrent writers through SyncBatch on a
// sync-counting file: every commit must be covered, and leader-based
// grouping must issue fewer fsyncs than batches.
func TestGroupCommit(t *testing.T) {
	fs := &countingFS{inner: OSFS}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncBatch, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := l.Append(mkBatch(timeseries.ID(w+1), i, 1))
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(seq); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	syncs := fs.syncs.Load()
	if syncs == 0 {
		t.Fatal("no fsyncs issued under SyncBatch")
	}
	if syncs > writers*perWriter {
		t.Fatalf("%d fsyncs for %d batches: group commit is not grouping", syncs, writers*perWriter)
	}
	t.Logf("group commit: %d batches, %d fsyncs", writers*perWriter, syncs)

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Batches != writers*perWriter {
		t.Fatalf("recovered %d batches, want %d", st.Batches, writers*perWriter)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRewrite replaces the log and checks only the new batches replay
// afterwards.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(mkBatch(1, i*2, 2)); err != nil {
			t.Fatal(err)
		}
	}
	remainder := mkBatch(1, 6, 2)
	if err := l.Rewrite([][]core.Reading{remainder, nil}); err != nil {
		t.Fatal(err)
	}
	// The log keeps accepting appends after a rewrite.
	seq, err := l.Append(mkBatch(1, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, r)
	if len(got) != 2 {
		t.Fatalf("got %d batches after rewrite, want 2", len(got))
	}
	sameReadings(t, got[0], remainder)
	sameReadings(t, got[1], mkBatch(1, 8, 1))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingFS wraps another FS and counts Sync calls on the files it
// opens.
type countingFS struct {
	inner FS
	syncs atomic.Int64
}

func (c *countingFS) MkdirAll(dir string) error { return c.inner.MkdirAll(dir) }

func (c *countingFS) OpenAppend(path string) (File, error) {
	f, err := c.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, syncs: &c.syncs}, nil
}

func (c *countingFS) Create(path string) (File, error) {
	f, err := c.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, syncs: &c.syncs}, nil
}

func (c *countingFS) Rename(oldPath, newPath string) error { return c.inner.Rename(oldPath, newPath) }
func (c *countingFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *countingFS) SyncDir(dir string) error             { return c.inner.SyncDir(dir) }

type countingFile struct {
	File
	syncs *atomic.Int64
}

func (c *countingFile) Sync() error {
	c.syncs.Add(1)
	return c.File.Sync()
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"off", SyncOff}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		back, err := ParsePolicy(got.String())
		if err != nil || back != tc.want {
			t.Fatalf("round trip of %q failed", tc.in)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// FuzzScan feeds arbitrary file bytes to the log decoder. It must
// never panic, must keep no more than the file holds, and the records
// it keeps must be exactly the bytes their batches re-encode to.
func FuzzScan(f *testing.F) {
	valid := []byte(magic)
	for i := 0; i < 3; i++ {
		valid = append(valid, encodeRecord(nil, mkBatch(timeseries.ID(i+1), i*4, i+1))...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte(magic))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(magic)+recHdrSize+2] ^= 0x10
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		keep, batches, err := scan(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("scan of in-memory bytes failed: %v", err)
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep = %d outside [0, %d]", keep, len(data))
		}
		if keep == 0 {
			if len(batches) != 0 {
				t.Fatalf("no intact magic, yet %d batches decoded", len(batches))
			}
			return
		}
		again := []byte(magic)
		for _, b := range batches {
			again = append(again, encodeRecord(nil, b)...)
		}
		if !bytes.Equal(again, data[:keep]) {
			t.Fatalf("re-encoding %d batches gives %d bytes, not the %d kept", len(batches), len(again), keep)
		}
	})
}
