package fault

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"sync"

	"github.com/smartmeter/smartbench/internal/wal"
)

// ErrCrashed is returned by every disk operation at and after the
// injected crash point. It models the process dying mid-syscall: the
// operation may be partially applied (a short write), and nothing else
// happens until Reboot.
var ErrCrashed = errors.New("fault: injected disk crash")

// DiskConfig selects where and how a Disk fails. The zero value never
// fails — the probe run uses it to count operations.
type DiskConfig struct {
	// Seed drives every deterministic choice: short-write lengths,
	// torn-tail cut points and corruption flips at Reboot.
	Seed uint64
	// CrashAtOp, when positive, makes the Nth counted operation (Write,
	// Sync, Truncate, Create, Rename, Remove, SyncDir — 1-based) fail
	// with ErrCrashed, along with every operation after it. A crashing
	// Write applies a deterministic prefix of its data first (a short
	// write); a crashing Sync persists nothing.
	CrashAtOp int64
	// FailSyncRate injects non-fatal fsync failures: each Sync draws
	// from splitmix64(Seed, op) and fails at this rate without
	// persisting and without crashing the disk. Models EIO from the
	// kernel that the WAL must surface to un-acked committers.
	FailSyncRate float64
}

// Disk is a deterministic in-memory filesystem implementing wal.FS,
// with a two-layer durability model: every file is a byte array plus a
// durable prefix length. Writes extend the volatile array; Sync
// advances the durable mark; Reboot resolves each file to its durable
// prefix plus a deterministically torn (and possibly bit-flipped)
// fragment of the unsynced suffix — exactly the disk states a real
// crash can leave behind. Tests sweep CrashAtOp across every operation
// of a recorded run to visit every crash window.
type Disk struct {
	mu      sync.Mutex
	cfg     DiskConfig
	files   map[string]*diskFile
	ops     int64
	crashed bool
	torn    int
}

type diskFile struct {
	data       []byte
	durableLen int
}

// NewDisk returns an empty deterministic disk.
func NewDisk(cfg DiskConfig) *Disk {
	return &Disk{cfg: cfg, files: make(map[string]*diskFile)}
}

// Decision salts for the disk's deterministic draws, continuing the
// stream-fault salt block above.
const (
	saltShortWrite = 0xfa017c5d00000003
	saltTearPoint  = 0xfa017c5d00000004
	saltBitFlip    = 0xfa017c5d00000005
	saltSyncFail   = 0xfa017c5d00000006
)

// step counts one operation and reports whether it crashes. just is
// true only for the operation that hits CrashAtOp — it may partially
// apply before failing.
func (d *Disk) step() (just bool, err error) {
	if d.crashed {
		return false, ErrCrashed
	}
	d.ops++
	if d.cfg.CrashAtOp > 0 && d.ops >= d.cfg.CrashAtOp {
		d.crashed = true
		return true, ErrCrashed
	}
	return false, nil
}

// Ops returns how many operations have been counted. A probe run with
// a zero config measures the sweep range for CrashAtOp.
func (d *Disk) Ops() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the crash point has been hit.
func (d *Disk) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// TornFiles counts files whose unsynced suffix was partially kept or
// corrupted by Reboot — the torn-tail cases CRC recovery must detect.
func (d *Disk) TornFiles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.torn
}

// Reboot resolves the crash: each file becomes its durable prefix plus
// a deterministic cut of whatever was written but never synced, with
// the last torn byte bit-flipped on half the draws. After Reboot the
// disk serves operations again, as the reopened process would see it.
func (d *Disk) Reboot() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for path, f := range d.files {
		suffix := len(f.data) - f.durableLen
		if suffix > 0 {
			h := d.cfg.Seed ^ uint64(d.cfg.CrashAtOp) ^ pathHash(path)
			k := int(splitmix64(h^saltTearPoint) % uint64(suffix+1))
			keep := f.durableLen + k
			f.data = f.data[:keep]
			if k > 0 && k < suffix {
				d.torn++
				if splitmix64(h^saltBitFlip)&1 == 0 {
					f.data[keep-1] ^= 0x40
				}
			}
		}
		f.durableLen = len(f.data)
	}
	d.crashed = false
	d.cfg.CrashAtOp = 0
}

func pathHash(path string) uint64 {
	h := uint64(0x9ae16a3b2f90404f)
	for i := 0; i < len(path); i++ {
		h = splitmix64(h ^ uint64(path[i]))
	}
	return h
}

// file returns the entry for path, creating it when create is set.
func (d *Disk) file(path string, create bool) (*diskFile, error) {
	f, ok := d.files[path]
	if !ok {
		if !create {
			return nil, fmt.Errorf("fault: disk: %q: %w", path, iofs.ErrNotExist)
		}
		f = &diskFile{}
		d.files[path] = f
	}
	return f, nil
}

// MkdirAll is a no-op: directories are implicit.
func (d *Disk) MkdirAll(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	return nil
}

// OpenAppend opens (creating if needed) a file for appends.
func (d *Disk) OpenAppend(path string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	f, err := d.file(path, true)
	if err != nil {
		return nil, err
	}
	return &diskHandle{d: d, f: f}, nil
}

// Create truncates or creates path. The truncation is volatile like any
// write: the old durable content is gone only because the WAL always
// creates under a temp name and renames.
func (d *Disk) Create(path string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.step(); err != nil {
		return nil, err
	}
	f := &diskFile{}
	d.files[path] = f
	return &diskHandle{d: d, f: f}, nil
}

// Rename atomically moves oldPath over newPath. A crash at this
// operation leaves the rename entirely unapplied — the atomicity the
// checkpoint protocol depends on.
func (d *Disk) Rename(oldPath, newPath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.step(); err != nil {
		return err
	}
	f, err := d.file(oldPath, false)
	if err != nil {
		return err
	}
	delete(d.files, oldPath)
	d.files[newPath] = f
	return nil
}

// Remove deletes path.
func (d *Disk) Remove(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.step(); err != nil {
		return err
	}
	if _, err := d.file(path, false); err != nil {
		return err
	}
	delete(d.files, path)
	return nil
}

// SyncDir counts as an operation but has no modeled effect: renames
// here are already atomic-durable, so the directory fsync only matters
// as a crash point.
func (d *Disk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, err := d.step()
	return err
}

// diskHandle is one open file. All methods take the disk lock, so
// concurrent writers interleave like they would on a kernel.
type diskHandle struct {
	d *Disk
	f *diskFile
}

func (h *diskHandle) Write(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	just, err := h.d.step()
	if err != nil {
		if just && len(p) > 0 {
			// Short write: a deterministic prefix lands before the crash.
			n := int(splitmix64(h.d.cfg.Seed^uint64(h.d.ops)^saltShortWrite) % uint64(len(p)+1))
			h.f.data = append(h.f.data, p[:n]...)
		}
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *diskHandle) ReadAt(p []byte, off int64) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrCrashed
	}
	if off < 0 || off > int64(len(h.f.data)) {
		return 0, fmt.Errorf("fault: disk: read at %d beyond size %d", off, len(h.f.data))
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("fault: disk: short read")
	}
	return n, nil
}

func (h *diskHandle) Sync() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if _, err := h.d.step(); err != nil {
		return err
	}
	if h.d.cfg.FailSyncRate > 0 &&
		unit(splitmix64(h.d.cfg.Seed^uint64(h.d.ops)^saltSyncFail)) < h.d.cfg.FailSyncRate {
		return fmt.Errorf("fault: disk: injected fsync failure at op %d", h.d.ops)
	}
	h.f.durableLen = len(h.f.data)
	return nil
}

func (h *diskHandle) Truncate(size int64) error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if _, err := h.d.step(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(h.f.data)) {
		return fmt.Errorf("fault: disk: truncate to %d beyond size %d", size, len(h.f.data))
	}
	h.f.data = h.f.data[:size]
	if h.f.durableLen > int(size) {
		h.f.durableLen = int(size)
	}
	return nil
}

func (h *diskHandle) Size() (int64, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrCrashed
	}
	return int64(len(h.f.data)), nil
}

func (h *diskHandle) Close() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return ErrCrashed
	}
	return nil
}
