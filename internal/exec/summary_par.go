package exec

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Compressed-domain PAR fast path.
//
// PAR regresses each hour of the day on its own lagged values, so the
// kernel needs the exact series — per-hour sums cannot substitute for
// it (summing a lane per block and adding lanes across blocks changes
// float association, and the AR lags need individual days anyway).
// What the block headers CAN do is reconstruct many blocks bit-exactly
// without touching the compressed payload:
//
//   - BlockConstant: every row carries the header's Min bit pattern
//     (Summarize's min fold is first-attainer, so a bit-constant block
//     reports the constant itself, including -0.0).
//   - Count <= 24 with lanes: each hour of day occurs at most once in
//     the block, so the first-assignment lane sums ARE the row values.
//   - BlockHourPeriodic: the encoder stored the 24-value tile verbatim
//     in the lane section; tiling it reproduces the block.
//
// Blocks with NaNs (no lanes) or aperiodic multi-day content decode
// through DecodeBlock as usual. Either way the assembled series feeds
// the unchanged runStreaming/safePAR pipeline, so results AND errors —
// length mismatches, short series, singular fits — are bit-identical
// to the generic cursor path, and compute still fans out over workers.
//
// The gate mirrors the histogram fast path: FailFast only (fault
// wrappers don't forward SummarySource; Quarantine/Repair must observe
// extraction faults through the normal cursors).

// summaryPARApplies reports whether the PAR fast path is eligible.
func summaryPARApplies(src Source, spec core.Spec) (core.SummarySource, bool) {
	if spec.Task != core.TaskPAR || spec.FailPolicy != core.FailFast {
		return nil, false
	}
	ss, ok := src.(core.SummarySource)
	return ss, ok
}

// runPARSummaries drives the ordinary streaming pipeline from a
// summary-assembly cursor instead of the engine's row cursors.
func runPARSummaries(ctx context.Context, ss core.SummarySource, temp *timeseries.Temperature, spec core.Spec, workers int, out *core.Results, cn *contain) error {
	ph := out.Phases
	start := time.Now()
	sc, err := ss.NewSummaryCursor()
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return err
	}
	cur := &summaryAssemblyCursor{sc: sc, ph: ph}
	return runStreaming(ctx, []core.Cursor{cur}, temp, spec, workers, out, cn)
}

// summaryAssemblyCursor adapts a SummaryCursor to core.Cursor by
// reconstructing each consumer's full series from block summaries,
// decoding only the blocks the headers cannot reproduce. Every Next
// returns a fresh row buffer: the streaming pipeline keeps a block of
// series alive until a worker has computed it. Next runs on the pipeline's decode
// goroutine, the only writer of the block counters in ph; RunContext
// reads them after the pipeline joins.
type summaryAssemblyCursor struct {
	sc     core.SummaryCursor
	ph     *core.Phases
	ctx    context.Context
	lanes  core.HourLanes
	closed bool
}

func (c *summaryAssemblyCursor) BindContext(ctx context.Context) { c.ctx = ctx }

func (c *summaryAssemblyCursor) Next() (*timeseries.Series, error) {
	if err := core.CtxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, io.EOF
	}
	id, blocks, err := c.sc.NextSummary()
	if err != nil {
		return nil, err // io.EOF included
	}
	row := make([]float64, seriesLen(blocks))
	for b, bs := range blocks {
		if bs.Count == 0 {
			continue
		}
		dst := row[bs.Start : bs.Start+bs.Count]
		ok, err := c.assemble(b, bs, dst)
		if err != nil {
			return nil, err
		}
		if ok {
			c.ph.SummaryBlocks++
			continue
		}
		if err := c.sc.DecodeBlock(b, dst); err != nil {
			return nil, err
		}
		c.ph.DecodedBlocks++
	}
	return &timeseries.Series{ID: id, Readings: row}, nil
}

// assemble reconstructs one block from its header and lane section
// without decoding the value payload, reporting false when the block's
// flags cannot pin every row bit-exactly.
func (c *summaryAssemblyCursor) assemble(b int, bs core.BlockStats, dst []float64) (bool, error) {
	f := bs.Flags
	if f&core.BlockConstant != 0 {
		for i := range dst {
			dst[i] = bs.Min
		}
		return true, nil
	}
	if f&core.BlockHourPeriodic != 0 {
		ok, err := c.sc.HourLanes(b, &c.lanes)
		if err != nil || !ok {
			return false, err
		}
		for i := range dst {
			dst[i] = c.lanes.Pattern[(bs.Start+i)%24]
		}
		return true, nil
	}
	if f&core.BlockHourLanes != 0 && bs.Count <= 24 {
		ok, err := c.sc.HourLanes(b, &c.lanes)
		if err != nil || !ok {
			return false, err
		}
		// First-assignment semantics: with at most one row per hour,
		// Sums[h] holds that row's exact bits (-0.0 survives).
		for i := range dst {
			dst[i] = c.lanes.Sums[(bs.Start+i)%24]
		}
		return true, nil
	}
	return false, nil
}

func (c *summaryAssemblyCursor) Reset() error {
	return fmt.Errorf("exec: summary assembly cursor cannot rewind")
}

func (c *summaryAssemblyCursor) Close() error {
	c.closed = true
	return c.sc.Close()
}
