// Package exec is the shared execution layer under all five engines:
// one extract → compute → emit pipeline that runs any benchmark task
// from any core.Cursor, with per-stage wall-clock and volume counters
// surfaced on core.Results.Phases.
//
// The split of responsibilities mirrors the paper's cost anatomy
// (Figure 6): the *engine* owns extraction — its native decode path,
// exposed as a cursor — while the pipeline owns task dispatch, worker
// fan-out (internal/sched), and deterministic result assembly. Engines
// therefore shrink to Load + NewCursor + capabilities; none of them
// re-implements task switching.
//
// Per-consumer tasks stream through one pipeline (pipeline.go): a
// decode goroutine per cursor pulls blocks of series off it (extract),
// compute workers run the task kernel over whole blocks as they land
// (compute), and a reorder keyed by household ID assembles the results
// (emit). The pipeline drains the engine's disjoint partition cursors
// when it implements core.PartitionedSource and more than one worker is
// in play, and its single cursor otherwise; the serial case is simply
// the one-cursor case. Phase times are per-goroutine busy sums. Blocks
// keep a partitioned file engine's memory flat (Figure 8) while still
// feeding enough work per scheduling round. The whole-dataset
// similarity task instead materializes the cursor once and runs the
// blocked kernel; a warm engine's DatasetCursor short-circuits that
// materialization so the dataset's cached flat-matrix packing survives.
//
// # Failure containment
//
// Every path runs under a context.Context (RunContext): cancelling it
// stops extraction promptly — the context is bound to every cursor that
// supports it (core.ContextCursor) and checked between Next calls — and
// the pipeline joins all of its goroutines and closes every cursor
// before returning the context's error.
//
// Spec.FailPolicy scopes failures to the consumer they belong to
// instead of the run (see core.FailPolicy). Under Quarantine or Repair:
// transient cursor errors (core.ConsumerError with Transient set) are
// retried with capped exponential backoff; permanent per-consumer
// errors, exhausted retries, kernel errors and recovered kernel panics
// land on Results.Failed; a series with missing (NaN) readings is
// quarantined, or — under Repair — routed through the hybrid imputer
// (internal/impute) and demoted to quarantine only when every reading
// is missing. Unaffected consumers produce bit-identical results to a
// run over a dataset without the failed series.
package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/impute"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Source is what the pipeline needs from an engine: a cursor over the
// loaded series and the shared temperature year. core.Engine satisfies
// it.
type Source interface {
	NewCursor() (core.Cursor, error)
	Temperature() (*timeseries.Temperature, error)
}

// ParallelHinter is optionally implemented by sources whose natural
// intra-task parallelism exceeds a single thread even when the spec does
// not ask for workers — the cluster engines report their total task
// slots, so node-count sweeps keep scaling compute. The hint applies
// only when Spec.Workers is unset; an explicit worker count always wins.
type ParallelHinter interface {
	ParallelHint() int
}

// NewDatasetSource adapts an in-memory dataset to Source: the minimal
// engine, with one cursor over the dataset. Tests and benchmarks use it
// to run the pipeline without storage.
func NewDatasetSource(ds *timeseries.Dataset) Source { return datasetSource{ds: ds} }

type datasetSource struct{ ds *timeseries.Dataset }

func (s datasetSource) NewCursor() (core.Cursor, error) { return core.NewDatasetCursor(s.ds), nil }

func (s datasetSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

// Extraction retry schedule for transient per-consumer errors under
// Quarantine/Repair: ExtractAttempts total tries per consumer, backing
// off exponentially from retryBase and capping at retryCap so a run
// over a flaky source makes progress without hammering the storage.
// ExtractAttempts is exported so fault-injection tests can choose
// whether an injected transient error recovers or exhausts the budget.
const (
	ExtractAttempts = 4
	retryBase       = 200 * time.Microsecond
	retryCap        = 2 * time.Millisecond
)

// retryBackoff returns the sleep before retry attempt (1-based).
func retryBackoff(attempt int) time.Duration {
	d := retryBase << (attempt - 1)
	if d > retryCap {
		d = retryCap
	}
	return d
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// contain carries one run's failure-containment state: the policy and
// the quarantined consumers. add is safe for concurrent use (the
// pipeline's decode goroutines and compute workers share one
// collector).
type contain struct {
	policy core.FailPolicy

	mu     sync.Mutex
	failed []core.ConsumerFailure
}

func (c *contain) add(id timeseries.ID, phase string, err error) {
	c.mu.Lock()
	c.failed = append(c.failed, core.ConsumerFailure{ID: id, Phase: phase, Err: err})
	c.mu.Unlock()
}

// finish moves the collected failures onto the results in ascending
// household-ID order.
func (c *contain) finish(out *core.Results) {
	c.mu.Lock()
	failed := c.failed
	c.failed = nil
	c.mu.Unlock()
	sort.Slice(failed, func(i, j int) bool { return failed[i].ID < failed[j].ID })
	out.Failed = failed
}

// next pulls one series off the cursor under the fail policy.
// Outcomes: (s, nil) on success; (nil, io.EOF) when drained; (nil, nil)
// when a consumer was quarantined (failure recorded); (nil, err) when
// the run must abort.
func (c *contain) next(ctx context.Context, cur core.Cursor) (*timeseries.Series, error) {
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := cur.Next()
		if err == nil {
			return s, nil
		}
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if ctx.Err() != nil {
			// A bound cursor surfaces cancellation as its own error;
			// report the cancellation, not a consumer failure.
			return nil, ctx.Err()
		}
		if c.policy == core.FailFast {
			return nil, err
		}
		ce, ok := core.AsConsumerError(err)
		if !ok {
			// Not scoped to one consumer: the storage layer itself is
			// broken. Fatal under every policy.
			return nil, err
		}
		if ce.Transient {
			if attempt < ExtractAttempts {
				if err := sleepCtx(ctx, retryBackoff(attempt)); err != nil {
					return nil, err
				}
				continue
			}
			// Retries exhausted. The cursor is still positioned on the
			// failing consumer (the transient contract), so it must be
			// able to skip past it for the run to make progress.
			sk, ok := cur.(core.Skipper)
			if !ok {
				return nil, fmt.Errorf("exec: consumer %d still failing after %d attempts and cursor %T cannot skip: %w",
					ce.ID, ExtractAttempts, cur, ce.Err)
			}
			if err := sk.Skip(); err != nil {
				return nil, err
			}
			c.add(ce.ID, core.PhaseExtract, fmt.Errorf("transient error persisted after %d attempts: %w", ExtractAttempts, ce.Err))
			return nil, nil
		}
		// Permanent: the cursor has advanced past the consumer.
		c.add(ce.ID, core.PhaseExtract, err)
		return nil, nil
	}
}

// countMissing returns the number of NaN readings.
func countMissing(readings []float64) int {
	n := 0
	for _, v := range readings {
		if math.IsNaN(v) {
			n++
		}
	}
	return n
}

// screen inspects an extracted series for missing readings under
// Quarantine/Repair. It returns the series to compute (possibly a
// repaired copy — engine-owned buffers are never mutated), or nil when
// the consumer was quarantined. FailFast skips the scan entirely, so
// the default path pays nothing.
func (c *contain) screen(s *timeseries.Series) *timeseries.Series {
	if c.policy == core.FailFast {
		return s
	}
	miss := countMissing(s.Readings)
	if miss == 0 {
		return s
	}
	if c.policy == core.Quarantine {
		c.add(s.ID, core.PhaseExtract, fmt.Errorf("%w (%d of %d)", core.ErrMissingData, miss, len(s.Readings)))
		return nil
	}
	// Repair: impute a copy with the hybrid strategy. A series the
	// imputer cannot save (every reading missing) demotes to
	// quarantine.
	cp := s.Clone()
	if err := impute.CleanSeries(cp, 0); err != nil {
		c.add(s.ID, core.PhaseRepair, err)
		return nil
	}
	return cp
}

// computeErr decides whether a per-consumer compute error (kernel error
// or recovered panic) is quarantined (returns nil) or fatal.
func (c *contain) computeErr(id timeseries.ID, err error) error {
	if c.policy == core.FailFast {
		return err
	}
	c.add(id, core.PhaseCompute, err)
	return nil
}

// Run executes one task from the source's cursor through the
// instrumented three-stage pipeline with a background context. See
// RunContext.
func Run(src Source, spec core.Spec) (*core.Results, error) {
	return RunContext(context.Background(), src, spec)
}

// RunContext executes one task from the source's cursors through the
// instrumented three-stage pipeline. Result order is ascending
// household ID — the order the Cursor contract fixes and the order
// core.RunReference produces — so engines stay bit-identical to the
// oracle with one cursor or many. Cancelling ctx stops the run promptly
// with every pipeline goroutine joined and every cursor closed.
func RunContext(ctx context.Context, src Source, spec core.Spec) (*core.Results, error) {
	requested := spec.Workers
	spec = spec.WithDefaults()
	switch spec.Task {
	case core.TaskHistogram, core.TaskThreeLine, core.TaskPAR, core.TaskSimilarity:
	default:
		return nil, fmt.Errorf("exec: unknown task %v", spec.Task)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := spec.Workers
	if requested <= 0 {
		if h, ok := src.(ParallelHinter); ok {
			if n := h.ParallelHint(); n > workers {
				workers = n
			}
		}
	}

	ph := &core.Phases{}
	// Temperature comes first on every path so engine-side caching it
	// triggers (e.g. the row store memoizing the shared series) is
	// sequenced before any cursor goroutine starts.
	start := time.Now()
	temp, err := src.Temperature()
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return nil, err
	}

	out := &core.Results{Task: spec.Task, Phases: ph}
	cn := &contain{policy: spec.FailPolicy}

	// Compressed-domain fast path: the histogram task over a source that
	// publishes per-block summaries skips decoding blocks whose min and
	// max share a bucket. Results are bit-identical to the cursor
	// pipeline (see summary.go for the argument); fault-injecting
	// wrappers don't forward SummarySource, so chaos runs keep
	// exercising the generic path.
	if ss, ok := summaryHistogramApplies(src, spec); ok {
		if err := runHistogramSummaries(ctx, ss, spec, out); err != nil {
			return nil, err
		}
		cn.finish(out)
		return out, nil
	}

	// Compressed-domain PAR fast path: assemble series from block
	// headers (constant fills, single-day lane sums, periodic tiles),
	// decoding only the blocks the headers cannot reconstruct, and run
	// the unchanged PAR kernel over them (see summary_par.go).
	if ss, ok := summaryPARApplies(src, spec); ok {
		if err := runPARSummaries(ctx, ss, temp, spec, workers, out, cn); err != nil {
			return nil, err
		}
		cn.finish(out)
		return out, nil
	}

	if spec.Task == core.TaskSimilarity {
		start = time.Now()
		cur, err := src.NewCursor()
		ph.Extract.Wall += time.Since(start)
		if err != nil {
			return nil, err
		}
		core.BindContext(cur, ctx)
		defer func() { _ = cur.Close() }()
		if err := runSimilarity(ctx, cur, temp, spec, workers, out, cn); err != nil {
			return nil, err
		}
		cn.finish(out)
		return out, nil
	}

	start = time.Now()
	curs, err := streamCursors(src, workers)
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := runStreaming(ctx, curs, temp, spec, workers, out, cn); err != nil {
		return nil, err
	}
	cn.finish(out)
	return out, nil
}

// streamCursors chooses the cursors a streaming task drains: the
// engine's disjoint partitions when it exposes at least one and more
// than one worker can use them, otherwise its single cursor.
func streamCursors(src Source, workers int) ([]core.Cursor, error) {
	if ps, ok := src.(core.PartitionedSource); ok && workers > 1 {
		curs, err := ps.NewCursors(workers)
		if err != nil || len(curs) > 0 {
			return curs, err
		}
	}
	cur, err := src.NewCursor()
	if err != nil {
		return nil, err
	}
	return []core.Cursor{cur}, nil
}

// runSimilarity materializes the cursor (extract) and runs the blocked
// all-pairs kernel (compute); emit is the assignment of the merged
// top-k lists.
func runSimilarity(ctx context.Context, cur core.Cursor, temp *timeseries.Temperature, spec core.Spec, workers int, out *core.Results, cn *contain) error {
	ph := out.Phases
	start := time.Now()
	ds, err := materialize(ctx, cur, temp, cn)
	ph.Extract.Wall += time.Since(start)
	if err != nil {
		return err
	}
	ph.Extract.Rows += int64(len(ds.Series))
	ph.Extract.Bytes += seriesBytes(ds.Series)

	start = time.Now()
	rs, err := safeSimilarity(ds, spec.K, workers)
	ph.Compute.Wall += time.Since(start)
	ph.Compute.Rows += int64(len(ds.Series))
	if err != nil {
		return err
	}

	start = time.Now()
	out.Similar = rs
	ph.Emit.Wall += time.Since(start)
	ph.Emit.Rows += int64(len(rs))
	return nil
}

// safeSimilarity runs the all-pairs kernel with a panic backstop: the
// whole-dataset task has no per-consumer attribution, so a recovered
// panic aborts the run with a debuggable error instead of killing the
// process.
func safeSimilarity(ds *timeseries.Dataset, k, workers int) (rs []*similarity.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("exec: similarity kernel: %w", core.NewPanicError(v))
		}
	}()
	return similarity.ComputeParallel(ds, k, workers)
}

// materialize drains the cursor into a dataset under the fail policy. A
// DatasetCursor (warm engine) short-circuits: its backing dataset is
// screened in place and used as-is when clean, keeping any cached
// flat-matrix packing.
func materialize(ctx context.Context, cur core.Cursor, temp *timeseries.Temperature, cn *contain) (*timeseries.Dataset, error) {
	if dc, ok := cur.(core.DatasetCursor); ok {
		return screenDataset(ctx, dc.Dataset(), cn)
	}
	var series []*timeseries.Series
	if h, ok := cur.(core.SizeHinter); ok {
		if n, hOK := h.SizeHint(); hOK {
			series = make([]*timeseries.Series, 0, n)
		}
	}
	for {
		s, err := cn.next(ctx, cur)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if s == nil {
			continue // quarantined
		}
		if s = cn.screen(s); s == nil {
			continue
		}
		series = append(series, s)
	}
	return &timeseries.Dataset{Series: series, Temperature: temp}, nil
}

// screenDataset applies the fail policy to an already materialized
// dataset. The clean common case returns the dataset untouched (cached
// flat-matrix packing survives); a dataset with dirty series gets a
// fresh Series slice holding repaired copies or omitting quarantined
// consumers.
func screenDataset(ctx context.Context, ds *timeseries.Dataset, cn *contain) (*timeseries.Dataset, error) {
	if cn.policy == core.FailFast {
		return ds, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dirty := false
	for _, s := range ds.Series {
		if countMissing(s.Readings) > 0 {
			dirty = true
			break
		}
	}
	if !dirty {
		return ds, nil
	}
	series := make([]*timeseries.Series, 0, len(ds.Series))
	for _, s := range ds.Series {
		if s = cn.screen(s); s != nil {
			series = append(series, s)
		}
	}
	return &timeseries.Dataset{Series: series, Temperature: ds.Temperature}, nil
}

// fill pulls up to block computable series off the cursor, retrying and
// quarantining per the fail policy; drained reports that the cursor hit
// io.EOF.
func fill(ctx context.Context, cur core.Cursor, buf *[]*timeseries.Series, block int, cn *contain) (drained bool, err error) {
	for len(*buf) < block {
		s, err := cn.next(ctx, cur)
		if errors.Is(err, io.EOF) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if s == nil {
			continue // quarantined
		}
		if s = cn.screen(s); s == nil {
			continue
		}
		*buf = append(*buf, s)
	}
	return false, nil
}

// Per-kernel panic guards: a panic inside one consumer's kernel (the
// similarity tile-index and stats matrix invariants panic on malformed
// shapes) becomes a per-consumer error carrying the stack, so the fail
// policy can quarantine the consumer instead of losing the run.

func safeBuckets(s *timeseries.Series, buckets int) (r *histogram.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &core.ConsumerError{ID: s.ID, Err: core.NewPanicError(v)}
		}
	}()
	return histogram.ComputeBuckets(s, buckets)
}

func safeThreeLine(s *timeseries.Series, temp *timeseries.Temperature) (r *threeline.Result, tm threeline.Timing, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &core.ConsumerError{ID: s.ID, Err: core.NewPanicError(v)}
		}
	}()
	return threeline.ComputeTimed(s, temp, threeline.DefaultConfig())
}

func safePAR(s *timeseries.Series, temp *timeseries.Temperature, order int) (r *par.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &core.ConsumerError{ID: s.ID, Err: core.NewPanicError(v)}
		}
	}()
	return par.ComputeOrder(s, temp, order)
}

// seriesBytes approximates the decoded payload of a series slice (8
// bytes per reading).
func seriesBytes(series []*timeseries.Series) int64 {
	var b int64
	for _, s := range series {
		b += int64(8 * len(s.Readings))
	}
	return b
}
