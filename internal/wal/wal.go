// Package wal implements the write-ahead log that makes live
// ingestion crash-safe. An engine appends each committed batch to its
// one log file as one record before acking Append; on reopen the log
// is replayed through the engine's idempotent append path, so the
// recovered state is bit-exact with a no-crash run over the acked
// prefix. Checkpoints rewrite the log down to the readings that are
// not yet folded into the base segment.
//
// File format. Each engine directory holds one file, wal.log (logs
// written by earlier builds, one wal-NNN.log per writer shard, are not
// read):
//
//	file    = magic record*
//	magic   = "SMWAL1\n\x00"                          (8 bytes)
//	record  = crc32c(payload) u32le · len(payload) u32le · payload
//	payload = count u32le · reading×count
//	reading = id u64le · hour u32le · consumption u64le · temperature u64le
//
// Consumption and temperature are IEEE-754 bit patterns, so replay is
// bit-exact. The CRC is Castagnoli (CRC32C) over the payload only: a
// torn or corrupt tail fails the checksum and the file is truncated at
// the last whole record — a bad record is never decoded, and nothing
// after it is trusted.
//
// Durability policies. SyncAlways fsyncs inside Append (every batch is
// durable before it is acked). SyncBatch acks after the write and makes
// Commit a group commit: one leader fsyncs on behalf of every batch
// written before it grabbed the file, so concurrent writers share
// fsyncs. SyncOff never fsyncs — the log bounds loss to the OS page
// cache but forfeits power-failure durability.
//
// All file access goes through the FS interface so tests can substitute
// a deterministic fault-injecting filesystem (internal/fault.Disk).
package wal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncBatch groups fsyncs: Append returns after the buffered
	// write and Commit blocks until a leader's fsync covers it.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs inside every Append before it returns.
	SyncAlways
	// SyncOff never fsyncs. Acked batches survive a process crash
	// (the OS holds the pages) but not a power failure.
	SyncOff
)

// ParsePolicy maps the -fsync flag values to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return "batch"
}

// File is the slice of *os.File the log needs. Truncate must leave the
// write position at the new end of file.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
	Truncate(size int64) error
	Size() (int64, error)
}

// FS abstracts the filesystem so the crash harness can inject torn
// writes and failed fsyncs deterministically. OSFS is the real one.
type FS interface {
	MkdirAll(dir string) error
	// OpenAppend opens path read/write, creating it if absent, with
	// the write position at the end of the file.
	OpenAppend(path string) (File, error)
	// Create truncates or creates path for writing.
	Create(path string) (File, error)
	Rename(oldPath, newPath string) error
	Remove(path string) error
	// SyncDir fsyncs the directory so renames and creates survive a
	// power failure.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error)             { return o.f.Write(p) }
func (o osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }
func (o osFile) Close() error                            { return o.f.Close() }
func (o osFile) Sync() error                             { return o.f.Sync() }

func (o osFile) Truncate(size int64) error {
	if err := o.f.Truncate(size); err != nil {
		return err
	}
	_, err := o.f.Seek(size, io.SeekStart)
	return err
}

func (o osFile) Size() (int64, error) {
	st, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) SyncDir(dir string) error { return SyncDir(dir) }

// SyncDir fsyncs a directory so a rename into it survives a power
// failure — the second half of the temp-file-then-rename protocol.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// FileName is the log file's name under Options.Dir.
const FileName = "wal.log"

const (
	magic       = "SMWAL1\n\x00"
	recHdrSize  = 8  // crc u32 + len u32
	readingSize = 28 // id u64 + hour u32 + consumption u64 + temperature u64
	// maxPayload bounds a record so a corrupt length field cannot ask
	// for a multi-gigabyte allocation before the CRC is checked.
	maxPayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Dir holds the log file. Created if absent.
	Dir string
	// Policy is the fsync policy. Zero value is SyncBatch.
	Policy SyncPolicy
	// FS is the filesystem; nil means OSFS.
	FS FS
}

// ReplayStats summarizes what Open found in the log.
type ReplayStats struct {
	// Batches and Readings count the intact records recovered.
	Batches  int
	Readings int
	// TruncatedBytes is how much torn or corrupt tail was cut off.
	TruncatedBytes int64
}

// Log is an engine's write-ahead log: one file, written by every
// writer in turn under one mutex.
type Log struct {
	fs     FS
	dir    string
	path   string
	policy SyncPolicy

	mu   sync.Mutex
	cond sync.Cond
	f    File
	size int64

	// Group commit: writeSeq numbers appended batches, syncSeq is the
	// highest batch known durable. A Commit caller whose seq is not
	// yet covered either becomes the leader (fsyncs everything
	// written so far) or waits for the current leader's broadcast. A
	// failed fsync poisons exactly the batches it covered
	// (seq ≤ failEnd): later writers get a fresh fsync attempt.
	writeSeq uint64
	syncSeq  uint64
	syncing  bool
	failErr  error
	failEnd  uint64
	// broken is set when a failed write left a torn record that could
	// not be cut off: replay would stop there and drop every later
	// record, so every later Append and Commit fails with it.
	broken error

	buf []byte // encode scratch, reused across Appends

	replayMu sync.Mutex
	pending  [][]core.Reading // decoded by Open, freed by Replay
	stats    ReplayStats
}

// Open opens (creating if needed) the log file under opts.Dir, verifies
// each record by CRC, truncates the first torn or corrupt record
// together with everything after it, and retains the intact records for
// Replay.
func Open(opts Options) (*Log, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		fs:     fs,
		dir:    opts.Dir,
		path:   filepath.Join(opts.Dir, FileName),
		policy: opts.Policy,
	}
	l.cond.L = &l.mu
	f, err := fs.OpenAppend(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if err := l.load(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	l.f = f
	return l, nil
}

// load scans the freshly opened file, cuts off any torn or corrupt
// tail and sets the write position.
func (l *Log) load(f File) error {
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("wal: size: %w", err)
	}
	keep, batches, err := scan(f, size)
	if err != nil {
		return fmt.Errorf("wal: scan: %w", err)
	}
	l.stats.TruncatedBytes = size - keep
	if keep == 0 {
		// Missing or torn magic: reset the file to a fresh log.
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: reset: %w", err)
		}
		if _, err := f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("wal: magic: %w", err)
		}
		keep = int64(len(magic))
	} else if keep < size {
		if err := f.Truncate(keep); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	for _, b := range batches {
		l.stats.Batches++
		l.stats.Readings += len(b)
	}
	l.pending = batches
	l.size = keep
	return nil
}

// scan walks the record stream and returns the byte offset of the last
// whole, CRC-clean record plus the decoded batches up to it. A file
// without an intact magic header scans to keep=0. Only I/O failures
// return an error — corruption is handled by truncation, not failure.
func scan(f io.ReaderAt, size int64) (keep int64, batches [][]core.Reading, err error) {
	hdr := make([]byte, len(magic))
	if size < int64(len(magic)) {
		return 0, nil, nil
	}
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, nil, err
	}
	if string(hdr) != magic {
		return 0, nil, nil
	}
	off := int64(len(magic))
	var rec [recHdrSize]byte
	var payload []byte
	for {
		if size-off < recHdrSize {
			return off, batches, nil
		}
		if _, err := f.ReadAt(rec[:], off); err != nil {
			return 0, nil, err
		}
		wantCRC := binary.LittleEndian.Uint32(rec[0:4])
		n := int64(binary.LittleEndian.Uint32(rec[4:8]))
		// A payload holds at least its count field; a shorter one is
		// corrupt, and reading it empty at end of file may return EOF.
		if n < 4 || n > maxPayload || size-off-recHdrSize < n {
			return off, batches, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := f.ReadAt(payload, off+recHdrSize); err != nil {
			return 0, nil, err
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return off, batches, nil
		}
		batch, ok := decodePayload(payload)
		if !ok {
			return off, batches, nil
		}
		batches = append(batches, batch)
		off += recHdrSize + n
	}
}

func decodePayload(p []byte) ([]core.Reading, bool) {
	if len(p) < 4 {
		return nil, false
	}
	count := int(binary.LittleEndian.Uint32(p[0:4]))
	if len(p) != 4+count*readingSize {
		return nil, false
	}
	batch := make([]core.Reading, count)
	for i := range batch {
		b := p[4+i*readingSize:]
		batch[i] = core.Reading{
			ID:          timeseries.ID(binary.LittleEndian.Uint64(b[0:8])),
			Hour:        int(binary.LittleEndian.Uint32(b[8:12])),
			Consumption: fromBits(binary.LittleEndian.Uint64(b[12:20])),
			Temperature: fromBits(binary.LittleEndian.Uint64(b[20:28])),
		}
	}
	return batch, true
}

// Replay hands every intact batch recovered by Open to fn in write
// order, then frees them. Replay is one-shot: a second call sees
// nothing.
func (l *Log) Replay(fn func(batch []core.Reading) error) error {
	l.replayMu.Lock()
	pending := l.pending
	l.pending = nil
	l.replayMu.Unlock()
	for _, b := range pending {
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports what Open recovered and truncated.
func (l *Log) Stats() ReplayStats {
	l.replayMu.Lock()
	defer l.replayMu.Unlock()
	return l.stats
}

// Append writes one batch to the log as one record. Under SyncAlways it
// is durable when Append returns; under SyncBatch the caller must
// Commit the returned sequence number before acking the batch.
func (l *Log) Append(batch []core.Reading) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	if len(batch) > 0 {
		l.buf = encodeRecord(l.buf[:0], batch)
		n, err := l.f.Write(l.buf)
		if err != nil {
			// Cut off whatever part of the record landed: replay stops
			// at the first torn record, so leaving it would strand
			// every record appended after it.
			if terr := l.f.Truncate(l.size); terr != nil {
				l.broken = fmt.Errorf("wal: append: %w; torn record left in log: %w", err, terr)
				return 0, l.broken
			}
			return 0, fmt.Errorf("wal: append: %w", err)
		}
		l.size += int64(n)
		l.writeSeq++
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		l.syncSeq = l.writeSeq
	}
	return l.writeSeq, nil
}

func encodeRecord(dst []byte, batch []core.Reading) []byte {
	payloadLen := 4 + len(batch)*readingSize
	need := recHdrSize + payloadLen
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:need]
	payload := dst[recHdrSize:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(len(batch)))
	for i, r := range batch {
		b := payload[4+i*readingSize:]
		binary.LittleEndian.PutUint64(b[0:8], uint64(r.ID))
		binary.LittleEndian.PutUint32(b[8:12], uint32(r.Hour))
		binary.LittleEndian.PutUint64(b[12:20], toBits(r.Consumption))
		binary.LittleEndian.PutUint64(b[20:28], toBits(r.Temperature))
	}
	binary.LittleEndian.PutUint32(dst[0:4], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(payloadLen))
	return dst
}

// Commit makes the batch Append returned seq for durable according to
// the policy. SyncAlways already synced in Append and SyncOff never
// syncs, so both return at once; SyncBatch blocks until a group fsync
// covers seq. A log broken by a torn record fails every Commit.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.policy != SyncBatch {
		return nil
	}
	for {
		if l.syncSeq >= seq {
			return nil
		}
		if l.failErr != nil && seq <= l.failEnd {
			return l.failErr
		}
		if !l.syncing {
			l.syncing = true
			target := l.writeSeq
			l.mu.Unlock()
			err := l.f.Sync()
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.failErr = fmt.Errorf("wal: fsync: %w", err)
				l.failEnd = target
			} else {
				l.syncSeq = target
				l.failErr = nil
			}
			l.cond.Broadcast()
			continue
		}
		l.cond.Wait()
	}
}

// Rewrite atomically replaces the log with the given batches (typically
// the per-household tail remainders after a checkpoint): temp file,
// fsync, rename over, directory fsync. The caller must guarantee no
// concurrent Append/Commit.
func (l *Log) Rewrite(batches [][]core.Reading) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tmp := l.path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	size := int64(len(magic))
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		l.buf = encodeRecord(l.buf[:0], b)
		n, err := f.Write(l.buf)
		size += int64(n)
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: rewrite: %w", err)
		}
	}
	if l.policy != SyncOff {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: rewrite fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: rewrite close: %w", err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: rewrite rename: %w", err)
	}
	if l.policy != SyncOff {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: rewrite dir fsync: %w", err)
		}
	}
	old := l.f
	nf, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("wal: rewrite reopen: %w", err)
	}
	l.f = nf
	l.size = size
	// Everything in the rewritten log is durable; future Commits only
	// wait for batches appended after this point.
	l.syncSeq = l.writeSeq
	l.failErr = nil
	l.broken = nil // the torn record went with the old file
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: rewrite close old: %w", err)
	}
	return nil
}

// SizeBytes is the size of the log file.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close syncs (unless SyncOff) and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var first error
	if l.policy != SyncOff {
		if err := l.f.Sync(); err != nil {
			first = fmt.Errorf("wal: close fsync: %w", err)
		}
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = fmt.Errorf("wal: close: %w", err)
	}
	l.f = nil
	return first
}

// Drop closes the log file WITHOUT a final sync — the simulated process
// death: nothing beyond the last Commit may become durable. Only crash
// tests and the recovery benchmark call it.
func (l *Log) Drop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// Clear removes the log file under dir — the reset an engine performs
// when a fresh bulk Load replaces the stored state and any surviving
// log would replay against the wrong base. A missing file is fine; the
// log must not be open.
func Clear(dir string, fs FS) error {
	if fs == nil {
		fs = OSFS
	}
	if err := fs.Remove(filepath.Join(dir, FileName)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("wal: clear: %w", err)
	}
	return nil
}

// Checkpointer runs an engine's background checkpoints: the engine
// calls Trigger when its live tail crosses its budget, and the
// goroutine Start launches runs the checkpoint. Errors are recorded for
// Err; ingestion keeps running until the next trigger retries.
type Checkpointer struct {
	c     chan struct{}
	errMu sync.Mutex
	err   error
}

// NewCheckpointer returns an idle checkpointer.
func NewCheckpointer() *Checkpointer {
	return &Checkpointer{c: make(chan struct{}, 1)}
}

// Start runs checkpoint on every Trigger until ctx is cancelled. The
// returned channel closes when the goroutine has exited.
func (c *Checkpointer) Start(ctx context.Context, checkpoint func() error) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-c.c:
				if err := checkpoint(); err != nil {
					c.errMu.Lock()
					c.err = err
					c.errMu.Unlock()
				}
			}
		}
	}()
	return done
}

// Err returns the most recent checkpoint failure, nil if none.
func (c *Checkpointer) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// Trigger signals the checkpointer without blocking; a pending signal
// already covers the crossing.
func (c *Checkpointer) Trigger() {
	select {
	case c.c <- struct{}{}:
	default:
	}
}

func toBits(f float64) uint64   { return math.Float64bits(f) }
func fromBits(u uint64) float64 { return math.Float64frombits(u) }
