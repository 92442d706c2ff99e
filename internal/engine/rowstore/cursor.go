package rowstore

import (
	"context"
	"io"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// scanCursor extracts one consumer per Next with an index scan through
// the buffer pool — the engine's native cold path. It covers a
// contiguous run of the sorted household list: all of it for
// NewCursor, one partition for NewCursors. Tuples are bulk-loaded in
// ascending household order, so a contiguous ID range is a contiguous
// heap-page range, and partition cursors mostly touch disjoint pages.
// The buffer pool is not thread-safe (one database connection in the
// paper), so every tuple read goes through readSeriesShared's
// engine-level lock; with a single cursor the lock is uncontended and
// extraction is effectively serial, while partition cursors interleave
// their index scans through the same pool the way concurrent
// connections share shared_buffers.
//
// ids and n are the household list and series length published when
// the cursor opened; the cursor reads exactly that prefix to the end.
type scanCursor struct {
	e      *Engine
	ids    []timeseries.ID
	n      int
	ctx    context.Context
	i      int
	closed bool
}

func (c *scanCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *scanCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed || c.i >= len(c.ids) {
		return nil, io.EOF
	}
	s, err := c.e.readSeriesShared(c.ids[c.i], c.n)
	if err != nil {
		return nil, err
	}
	c.i++
	return s, nil
}

func (c *scanCursor) Reset() error {
	c.i = 0
	c.closed = false
	return nil
}

func (c *scanCursor) Close() error {
	c.closed = true
	return nil
}

// SizeHint is exact: the B+tree knows every household.
func (c *scanCursor) SizeHint() (int, bool) { return len(c.ids), true }
