package colstore

import (
	"fmt"
	"sync"
)

// frameKey identifies one decoded block: consumer index x block index.
type frameKey struct {
	c, b int32
}

// blockFrame is one decoded block resident in the pager cache. pins is
// the refcount latch: a pinned frame is never evicted, and callers must
// pair every fetch with exactly one unpin (the same latch discipline
// rowstore's buffer pool uses, enforced by smlint's refbalance pair).
type blockFrame struct {
	key        frameKey
	start      int
	vals       []float64
	pins       int
	prev, next *blockFrame // LRU list, most recent at head
}

// pager is the fixed byte-budget cache of decoded blocks shared by all
// cursors of a paged engine. It is safe for concurrent use: partition
// cursors decode in parallel under the exec pipeline.
type pager struct {
	st     *segStore
	budget int64

	mu         sync.Mutex
	frames     map[frameKey]*blockFrame
	head, tail *blockFrame
	resident   int64
	hits       int64
	misses     int64
}

func newPager(st *segStore, budget int64) *pager {
	return &pager{st: st, budget: budget, frames: make(map[frameKey]*blockFrame)}
}

// fetch returns a pinned frame holding decoded block b of consumer c,
// decoding it from disk on a miss. The caller must copy what it needs
// and then unpin the frame; frame.vals is invalid after unpin. scratch
// is the caller's read buffer, returned possibly grown so each cursor
// amortizes its own I/O allocation.
func (p *pager) fetch(c, b int, scratch []byte) (*blockFrame, []byte, error) {
	key := frameKey{int32(c), int32(b)}
	p.mu.Lock()
	if f, ok := p.frames[key]; ok {
		f.pins++
		p.hits++
		p.moveFront(f)
		p.mu.Unlock()
		return f, scratch, nil
	}
	p.misses++
	p.mu.Unlock()

	// Decode outside the lock: concurrent partition cursors miss on
	// disjoint blocks, so serializing I/O+decode here would forfeit the
	// exec pipeline's overlap.
	h := p.st.hdr(c, b)
	vals := make([]float64, h.count)
	scratch, err := p.st.readBlockVals(c, b, scratch, vals)
	if err != nil {
		return nil, scratch, err
	}

	p.mu.Lock()
	if f, ok := p.frames[key]; ok {
		// Another cursor decoded the same block while we were off the
		// lock (rare: partitions are disjoint). Use the cached frame and
		// drop ours.
		f.pins++
		p.moveFront(f)
		p.mu.Unlock()
		return f, scratch, nil
	}
	f := &blockFrame{key: key, start: int(h.start), vals: vals, pins: 1}
	p.frames[key] = f
	p.pushFront(f)
	p.resident += int64(8 * len(vals))
	p.evictLocked()
	p.mu.Unlock()
	return f, scratch, nil
}

// unpin releases one fetch reference.
func (p *pager) unpin(f *blockFrame) {
	p.mu.Lock()
	f.pins--
	if f.pins < 0 {
		p.mu.Unlock()
		panic(fmt.Sprintf("colstore: pager unpin below zero for block %v", f.key))
	}
	p.mu.Unlock()
}

// evictLocked walks the LRU tail, dropping unpinned frames until the
// cache fits the budget. If every frame is pinned the budget overshoots
// softly — pinned frames belong to in-flight Next calls, which unpin
// within one row's work.
func (p *pager) evictLocked() {
	f := p.tail
	for p.resident > p.budget && f != nil {
		prev := f.prev
		if f.pins == 0 {
			p.unlink(f)
			delete(p.frames, f.key)
			p.resident -= int64(8 * len(f.vals))
		}
		f = prev
	}
}

// Stats returns cache hit/miss counters and the resident decoded bytes.
func (p *pager) Stats() (hits, misses, resident int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses, p.resident
}

func (p *pager) pushFront(f *blockFrame) {
	f.prev = nil
	f.next = p.head
	if p.head != nil {
		p.head.prev = f
	}
	p.head = f
	if p.tail == nil {
		p.tail = f
	}
}

func (p *pager) unlink(f *blockFrame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (p *pager) moveFront(f *blockFrame) {
	if p.head == f {
		return
	}
	p.unlink(f)
	p.pushFront(f)
}
