// Package rowstore implements the benchmark's PostgreSQL/MADLib
// analogue: a disk-based row-store with slotted heap pages, an LRU
// buffer pool, a B+tree index on the household ID, and in-database
// analytics executed against the stored tuples.
//
// It reproduces the row-store traits the paper measures:
//
//   - bulk CSV loading is the slowest of the single-node systems
//     (Figure 4): every reading becomes a slotted tuple behind a buffer
//     pool, and the index is built per row;
//   - extracting one consumer's series costs an index scan plus
//     tuple-at-a-time decoding (the MADLib overhead visible in Figure 7);
//   - the alternative array layout — one row per consumer with all
//     readings in an array column (Figure 9's Table 2) — removes most of
//     that overhead, which §5.3.3 measures as a 1.4-1.7x speedup.
package rowstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// PageSize is the fixed page size (8 KiB, PostgreSQL's default).
const PageSize = 8192

// PageID identifies a page within a paged file.
type PageID uint32

// InvalidPage is the sentinel for "no page".
const InvalidPage = PageID(0xFFFFFFFF)

// pagedFile is a file composed of fixed-size pages.
type pagedFile struct {
	f      *os.File
	nPages PageID
}

func openPagedFile(path string) (*pagedFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("rowstore: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("rowstore: stat %s: %w", path, err)
	}
	if fi.Size()%PageSize != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("rowstore: %s size %d is not page aligned", path, fi.Size())
	}
	return &pagedFile{f: f, nPages: PageID(fi.Size() / PageSize)}, nil
}

// allocate appends a zeroed page and returns its ID.
func (pf *pagedFile) allocate() (PageID, error) {
	id := pf.nPages
	var zero [PageSize]byte
	if _, err := pf.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("rowstore: allocate page %d: %w", id, err)
	}
	pf.nPages++
	return id, nil
}

func (pf *pagedFile) read(id PageID, buf []byte) error {
	if id >= pf.nPages {
		return fmt.Errorf("rowstore: read past end: page %d of %d", id, pf.nPages)
	}
	if _, err := pf.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("rowstore: read page %d: %w", id, err)
	}
	return nil
}

func (pf *pagedFile) write(id PageID, buf []byte) error {
	if id >= pf.nPages {
		return fmt.Errorf("rowstore: write past end: page %d of %d", id, pf.nPages)
	}
	if _, err := pf.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("rowstore: write page %d: %w", id, err)
	}
	return nil
}

func (pf *pagedFile) close() error { return pf.f.Close() }

// sync fsyncs the underlying file — the durability point after a bulk
// load or checkpoint flush.
func (pf *pagedFile) sync() error {
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("rowstore: sync table file: %w", err)
	}
	return nil
}

// sizeBytes returns the current file size.
func (pf *pagedFile) sizeBytes() int64 { return int64(pf.nPages) * PageSize }

// frame is one buffer-pool slot.
type frame struct {
	id    PageID
	data  [PageSize]byte
	dirty bool
	pins  int
	// LRU chain.
	prev, next *frame
}

// bufferPool caches pages of one pagedFile with LRU replacement.
// It is not safe for concurrent use; the engine serializes access.
type bufferPool struct {
	pf     *pagedFile
	frames map[PageID]*frame
	cap    int
	// noSteal forbids evicting dirty frames (the pool grows past cap
	// instead). With the write-ahead log armed, the table file may only
	// change at a checkpoint: an evicted dirty page would overwrite
	// checkpointed state in place, and a crash mid-write would leave a
	// torn page the log cannot repair.
	noSteal bool
	// lruHead is the most recently used frame; lruTail the least.
	lruHead, lruTail *frame
	// Misses and Hits count page lookups for diagnostics.
	Misses, Hits int64
}

// errPoolFull is returned when every frame is pinned.
var errPoolFull = errors.New("rowstore: buffer pool exhausted (all pages pinned)")

func newBufferPool(pf *pagedFile, capacity int) *bufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &bufferPool{pf: pf, frames: make(map[PageID]*frame, capacity), cap: capacity}
}

func (bp *bufferPool) lruRemove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else if bp.lruHead == fr {
		bp.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else if bp.lruTail == fr {
		bp.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (bp *bufferPool) lruPushFront(fr *frame) {
	fr.prev, fr.next = nil, bp.lruHead
	if bp.lruHead != nil {
		bp.lruHead.prev = fr
	}
	bp.lruHead = fr
	if bp.lruTail == nil {
		bp.lruTail = fr
	}
}

// fetch pins a page and returns its frame. The caller must unpin it.
func (bp *bufferPool) fetch(id PageID) (*frame, error) {
	if fr, ok := bp.frames[id]; ok {
		bp.Hits++
		fr.pins++
		bp.lruRemove(fr)
		bp.lruPushFront(fr)
		return fr, nil
	}
	bp.Misses++
	fr, err := bp.victim()
	if err != nil {
		return nil, err
	}
	if err := bp.pf.read(id, fr.data[:]); err != nil {
		// Return the frame to the pool unused.
		bp.lruPushFront(fr)
		bp.frames[fr.id] = fr
		return nil, err
	}
	fr.id = id
	fr.dirty = false
	fr.pins = 1
	bp.frames[id] = fr
	bp.lruPushFront(fr)
	return fr, nil
}

// allocate creates a new page and returns its pinned frame. A no-steal
// pool only reserves the page ID: the page is born dirty, so it stays
// in the pool until the next checkpoint writes it, and the table file
// does not grow before then.
func (bp *bufferPool) allocate() (*frame, error) {
	id := bp.pf.nPages
	if bp.noSteal {
		bp.pf.nPages++
	} else {
		var err error
		if id, err = bp.pf.allocate(); err != nil {
			return nil, err
		}
	}
	fr, err := bp.victim()
	if err != nil {
		return nil, err
	}
	for i := range fr.data {
		fr.data[i] = 0
	}
	fr.id = id
	fr.dirty = true
	fr.pins = 1
	bp.frames[id] = fr
	bp.lruPushFront(fr)
	return fr, nil
}

// victim returns an empty frame, evicting the least recently used
// unpinned page if the pool is at capacity. The returned frame is
// detached from the map and LRU list.
func (bp *bufferPool) victim() (*frame, error) {
	if len(bp.frames) < bp.cap {
		return &frame{}, nil
	}
	for fr := bp.lruTail; fr != nil; fr = fr.prev {
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if bp.noSteal {
				continue
			}
			if err := bp.pf.write(fr.id, fr.data[:]); err != nil {
				return nil, err
			}
		}
		bp.lruRemove(fr)
		delete(bp.frames, fr.id)
		return fr, nil
	}
	if bp.noSteal {
		// Every unpinned frame is dirty: grow past cap and let the next
		// checkpoint (at the latest, Append's fold at twice the cap)
		// clean the pool back down.
		return &frame{}, nil
	}
	return nil, errPoolFull
}

// trim evicts clean unpinned frames, least recently used first, until
// the pool is back at its capacity: after a checkpoint has cleaned a
// no-steal pool that grew past it.
func (bp *bufferPool) trim() {
	for fr := bp.lruTail; fr != nil && len(bp.frames) > bp.cap; {
		prev := fr.prev
		if fr.pins == 0 && !fr.dirty {
			bp.lruRemove(fr)
			delete(bp.frames, fr.id)
		}
		fr = prev
	}
}

// overfull reports whether a no-steal pool has grown to twice its
// capacity: the point where the engine folds its dirty pages into the
// table file rather than keep growing.
func (bp *bufferPool) overfull() bool { return len(bp.frames) >= 2*bp.cap }

func (bp *bufferPool) unpin(fr *frame, dirty bool) {
	if dirty {
		fr.dirty = true
	}
	if fr.pins > 0 {
		fr.pins--
	}
}

// flush writes back every dirty page.
func (bp *bufferPool) flush() error {
	for _, fr := range bp.frames {
		if fr.dirty {
			if err := bp.pf.write(fr.id, fr.data[:]); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// reset drops all cached frames (after flushing), returning the pool to
// a cold state.
func (bp *bufferPool) reset() error {
	if err := bp.flush(); err != nil {
		return err
	}
	bp.frames = make(map[PageID]*frame, bp.cap)
	bp.lruHead, bp.lruTail = nil, nil
	return nil
}

// u16 / u32 / u64 helpers for page encoding.
func putU16(b []byte, off int, v uint16) { binary.LittleEndian.PutUint16(b[off:], v) }
func getU16(b []byte, off int) uint16    { return binary.LittleEndian.Uint16(b[off:]) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off:]) }
