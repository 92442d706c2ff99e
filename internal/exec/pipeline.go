package exec

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// This file is the one per-consumer pipeline every streaming task
// (histogram, 3-line, PAR) runs through. RunContext hands it the
// cursors to drain: an engine's disjoint partition cursors
// (core.PartitionedSource) when more than one worker can use them,
// otherwise a single cursor — the engine's own or the summary-assembly
// cursor of the PAR fast path. One decode goroutine per cursor drains it
// into a bounded channel of series blocks; compute workers consume
// blocks as they land, so decode and kernel time overlap instead of
// alternating, even with one cursor. A reorder stage keyed by household
// ID restores cursor order, keeping every engine bit-identical to
// core.RunReference.
//
// Memory stays flat: each decode goroutine fills one block, the channel
// holds at most two more per cursor, and each worker computes one, so a
// fully backed-up pipeline pins O((3·cursors + workers) × maxBlock)
// series.
//
// A block is the unit one worker computes, so its size decides how many
// workers a cursor can keep busy: blockFor cuts each cursor's remaining
// series over the workers it feeds (guided self-scheduling), so a
// single cursor in front of many workers hands out small blocks rather
// than its whole output in one or two.
//
// Phase times are per-goroutine busy-time accumulators: each decode
// goroutine owns one slot of the extract accumulators, each worker one
// slot of the compute accumulators, and the sums are gathered only after
// the WaitGroups join. Under overlap the summed busy time legitimately
// exceeds the Run's elapsed wall clock — that surplus is the measured
// overlap. Anything a cursor's Next records on its own (the summary
// cursor's block counters) is likewise written only by its decode
// goroutine and read only after the joins.
//
// Failure containment composes with the overlap: each decode goroutine
// runs the retry/quarantine/repair logic of fill (the shared contain
// collector is mutex-guarded), a panic in a decode goroutine or compute
// worker is recovered into the shared error slot instead of killing the
// process, and cancelling the run context closes the stop channel so
// every goroutine parks out promptly.

// extractedBlock is one extracted block in flight from a cursor's
// decode goroutine to the compute workers.
type extractedBlock struct {
	part, seq int
	series    []*timeseries.Series
}

// computedBlock is one block's kernel output, tagged with its origin for
// the deterministic reorder in emit. Quarantined consumers leave nil
// slots.
type computedBlock struct {
	part, seq int
	hists     []*histogram.Result
	lines     []*threeline.Result
	profs     []*par.Result
}

// runStreaming drives the pipeline over curs. It binds every cursor to
// ctx, takes ownership of them and closes them all, and returns only
// after every goroutine it started has exited.
func runStreaming(ctx context.Context, curs []core.Cursor, temp *timeseries.Temperature, spec core.Spec, workers int, out *core.Results, cn *contain) error {
	for _, cur := range curs {
		core.BindContext(cur, ctx)
	}
	ph := out.Phases
	nparts := len(curs)
	// Workers each cursor feeds when the pool is shared evenly.
	share := (workers + nparts - 1) / nparts

	// Double-buffered and backpressured: a decode goroutine that gets two
	// blocks ahead of compute parks on the send instead of decoding on.
	blocks := make(chan extractedBlock, 2*nparts)
	stop := make(chan struct{})
	var (
		failOnce sync.Once
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failOnce.Do(func() { close(stop) })
	}
	// Cancellation rides the same shutdown path as an error: the watcher
	// goroutine turns ctx.Done into a stop, and is itself released via
	// watchDone when the pipeline drains normally.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-stop:
		case <-watchDone:
		}
	}()

	// Per-goroutine accumulators: slot p belongs to decode goroutine p,
	// slot w to compute worker w. No slot is shared, so the writes need
	// no locks; the sums below happen after the joins.
	extractBusy := make([]time.Duration, nparts)
	extractRows := make([]int64, nparts)
	extractBytes := make([]int64, nparts)

	var extractWG sync.WaitGroup
	for p, cur := range curs {
		extractWG.Add(1)
		go func(p int, cur core.Cursor) {
			defer extractWG.Done()
			defer func() { _ = cur.Close() }()
			// A panic while decoding (a corrupt segment image, a buggy
			// parser) must release the pipeline, not deadlock it: convert
			// it to the run's first error so compute drains and joins.
			defer func() {
				if v := recover(); v != nil {
					fail(core.NewPanicError(v))
				}
			}()
			seq := 0
			for {
				block := blockFor(cur, int(extractRows[p]), share)
				// Fresh buffer per block: the previous one is owned by
				// whichever worker picked it up.
				buf := make([]*timeseries.Series, 0, block)
				t0 := time.Now()
				drained, err := fill(ctx, cur, &buf, block, cn)
				extractBusy[p] += time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				extractRows[p] += int64(len(buf))
				extractBytes[p] += seriesBytes(buf)
				if len(buf) > 0 {
					select {
					case blocks <- extractedBlock{part: p, seq: seq, series: buf}:
						seq++
					case <-stop:
						return
					}
				}
				if drained {
					return
				}
			}
		}(p, cur)
	}
	go func() {
		extractWG.Wait()
		close(blocks)
	}()

	computeBusy := make([]time.Duration, workers)
	computeRows := make([]int64, workers)
	tims := make([]threeline.Timing, workers)
	var (
		computed   []computedBlock
		computedMu sync.Mutex
		computeWG  sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		computeWG.Add(1)
		go func(w int) {
			defer computeWG.Done()
			// Backstop for panics outside the per-kernel guards: keep
			// draining so parked decode goroutines always get their send
			// or the stop.
			defer func() {
				if v := recover(); v != nil {
					fail(core.NewPanicError(v))
					for range blocks { //nolint:revive // draining
					}
				}
			}()
			for blk := range blocks {
				select {
				case <-stop:
					// Keep draining without computing so parked decode
					// goroutines always get their send or the stop.
					continue
				default:
				}
				t0 := time.Now()
				cb, err := computeKernels(blk, temp, spec, &tims[w], cn)
				computeBusy[w] += time.Since(t0)
				if err != nil {
					fail(err)
					continue
				}
				computeRows[w] += int64(len(blk.series))
				computedMu.Lock()
				computed = append(computed, cb)
				computedMu.Unlock()
			}
		}(w)
	}
	computeWG.Wait()
	close(watchDone)
	watchWG.Wait()
	// All decode goroutines finished before blocks closed, and every
	// worker finished before Wait returned, so firstErr and the
	// accumulators are safely visible here.
	if firstErr != nil {
		return firstErr
	}

	for p := 0; p < nparts; p++ {
		ph.Extract.Wall += extractBusy[p]
		ph.Extract.Rows += extractRows[p]
		ph.Extract.Bytes += extractBytes[p]
	}
	for w := 0; w < workers; w++ {
		ph.Compute.Wall += computeBusy[w]
		ph.Compute.Rows += computeRows[w]
		ph.T1Quantiles += tims[w].T1Quantiles
		ph.T2Regression += tims[w].T2Regression
		ph.T3Adjust += tims[w].T3Adjust
	}

	start := time.Now()
	sort.Slice(computed, func(i, j int) bool {
		if computed[i].part != computed[j].part {
			return computed[i].part < computed[j].part
		}
		return computed[i].seq < computed[j].seq
	})
	for _, cb := range computed {
		for _, r := range cb.hists {
			if r != nil {
				out.Histograms = append(out.Histograms, r)
			}
		}
		for _, r := range cb.lines {
			if r != nil {
				out.ThreeLines = append(out.ThreeLines, r)
			}
		}
		for _, r := range cb.profs {
			if r != nil {
				out.Profiles = append(out.Profiles, r)
			}
		}
	}
	// Cursor-major concatenation is already ascending for a single cursor
	// and for engines with ID-contiguous shards (file, row, column
	// stores); the cluster engines hand out hash partitions whose ID
	// ranges interleave, so the reorder keyed by household ID restores
	// the reference order for everyone. IsSorted keeps the common case a
	// single cheap pass.
	sortResultsByID(out)
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows += int64(out.Count())
	return nil
}

// computeKernels runs the per-consumer kernel over one block on the
// calling worker goroutine; it is the pipeline's one task dispatch.
// Parallelism comes from multiple workers holding different blocks, not
// from fan-out within a block. Kernel errors and panics follow the fail
// policy: quarantined consumers leave nil slots in the computed block.
func computeKernels(blk extractedBlock, temp *timeseries.Temperature, spec core.Spec, tim *threeline.Timing, cn *contain) (computedBlock, error) {
	cb := computedBlock{part: blk.part, seq: blk.seq}
	switch spec.Task {
	case core.TaskHistogram:
		cb.hists = make([]*histogram.Result, len(blk.series))
		for i, s := range blk.series {
			r, err := safeBuckets(s, spec.Buckets)
			if err != nil {
				if err := cn.computeErr(s.ID, err); err != nil {
					return cb, err
				}
				continue
			}
			cb.hists[i] = r
		}
	case core.TaskThreeLine:
		cb.lines = make([]*threeline.Result, len(blk.series))
		for i, s := range blk.series {
			r, tm, err := safeThreeLine(s, temp)
			if err != nil {
				if err := cn.computeErr(s.ID, err); err != nil {
					return cb, err
				}
				continue
			}
			tim.T1Quantiles += tm.T1Quantiles
			tim.T2Regression += tm.T2Regression
			tim.T3Adjust += tm.T3Adjust
			cb.lines[i] = r
		}
	case core.TaskPAR:
		cb.profs = make([]*par.Result, len(blk.series))
		for i, s := range blk.series {
			r, err := safePAR(s, temp, spec.Order)
			if err != nil {
				if err := cn.computeErr(s.ID, err); err != nil {
					return cb, err
				}
				continue
			}
			cb.profs[i] = r
		}
	}
	return cb, nil
}

// maxBlock caps the series in one block: enough to amortize the
// hand-off to a worker, few enough that a streaming cursor (the
// partitioned file engine, the row store) holds only a bounded number
// of decoded series at a time.
const maxBlock = 16

// blockFor sizes a cursor's next block: the series it has left (its
// size hint less the taken ones) split over the workers it feeds,
// capped at maxBlock. A cursor that cannot tell its size gets maxBlock.
func blockFor(cur core.Cursor, taken, workers int) int {
	if h, ok := cur.(core.SizeHinter); ok {
		if n, hOK := h.SizeHint(); hOK {
			return min(maxBlock, max(1, (n-taken+workers-1)/workers))
		}
	}
	return maxBlock
}

// sortResultsByID restores ascending household-ID order — the order the
// Cursor contract fixes within each cursor and core.RunReference
// produces.
func sortResultsByID(out *core.Results) {
	switch out.Task {
	case core.TaskHistogram:
		rs := out.Histograms
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	case core.TaskThreeLine:
		rs := out.ThreeLines
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	case core.TaskPAR:
		rs := out.Profiles
		less := func(i, j int) bool { return rs[i].ID < rs[j].ID }
		if !sort.SliceIsSorted(rs, less) {
			sort.Slice(rs, less)
		}
	}
}
