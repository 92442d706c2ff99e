package benchmark

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// ingestWriters is the concurrent sharded writer count for the live
// ingestion experiment; households map onto writers with core.ShardFor.
const ingestWriters = 4

// ingestDays is how many days each household receives through the live
// append path on top of the loaded base.
const ingestDays = 3

// ingestWALModes is the durability sweep: every engine ingests once per
// mode so the write-ahead log's cost is recorded side by side with the
// undurable baseline. off = no log (a crash loses the unfolded tail),
// batch = CRC-framed log fsynced at group commit (acked batches survive
// any crash), always = fsync on every append.
var ingestWALModes = []struct {
	name   string
	on     bool
	policy wal.SyncPolicy
}{
	{"off", false, wal.SyncBatch},
	{"batch", true, wal.SyncBatch},
	{"always", true, wal.SyncAlways},
}

// liveEngine is an engine reachable through both the bulk-load and the
// live-append contracts.
type liveEngine interface {
	core.Engine
	core.Appender
}

// Ingest measures the append-driven engines under live ingestion: a
// base period is bulk-loaded, then ingestWriters sharded writers append
// hour batches concurrently — once per write-ahead-log mode. Reported
// per engine and mode: sustained append throughput in records/s, and
// the freshness lag — how stale an answer must be, measured as the time
// from the last append landing to a histogram over a read-isolated
// snapshot of everything ingested.
func Ingest(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "ingest", false, false)
	if err != nil {
		return nil, err
	}
	// The live tail continues the stored period, generated with the
	// same seed pipeline (cf. the updates experiment's delta).
	live, err := seed.Generate(seed.Config{
		Consumers: n, Days: ingestDays, Seed: opts.Seed + 2000,
	})
	if err != nil {
		return nil, err
	}
	baseHours := opts.Scale.Days * timeseries.HoursPerDay
	liveHours := ingestDays * timeseries.HoursPerDay
	records := int64(liveHours) * int64(n)

	rep := &Report{
		ID: "ingest",
		Title: fmt.Sprintf("Live ingestion: %d consumers x %d hours, %d sharded writers, wal off/batch/always",
			n, liveHours, ingestWriters),
		Columns: []string{"engine", "wal", "records/s", "append time", "freshness lag", "epochs"},
		Notes: []string{
			"append-driven engine contract: hour batches land through Append while snapshots stay read-isolated",
			"wal=off keeps the tail in memory only; batch fsyncs the CRC-framed log at group commit before acking; always fsyncs every append",
			"records/s = live readings appended / wall time across all writers",
			"freshness lag = last append -> histogram answer over a snapshot (base + live), Workers=" + fmt.Sprint(ingestWriters),
		},
	}
	if opts.TailBudget > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("background checkpointer armed at a %d-reading tail budget for wal-on runs", opts.TailBudget))
	}

	for _, mode := range ingestWALModes {
		for _, e := range []struct {
			name string
			eng  liveEngine
		}{
			{"colstore (System C)", newIngestColstore(opts, mode.on, mode.policy, "ingest-col-"+mode.name)},
			{"rowstore (MADLib)", newIngestRowstore(opts, mode.on, mode.policy, "ingest-row-"+mode.name)},
		} {
			if _, err := e.eng.Load(srcs.unpartRPL); err != nil {
				return nil, err
			}
			ctx, cancel := context.WithCancel(context.Background())
			var ckptDone <-chan struct{}
			if mode.on && opts.TailBudget > 0 {
				ckptDone = startCheckpointer(ctx, e.eng)
			}
			d, err := Timed(func() error {
				return ingestConcurrently(e.eng, live, baseHours)
			})
			if err != nil {
				cancel()
				return nil, fmt.Errorf("ingest %s wal=%s: %w", e.name, mode.name, err)
			}
			lagStart := time.Now()
			res, epoch, err := exec.RunSnapshot(context.Background(), e.eng,
				core.Spec{Task: core.TaskHistogram, Workers: ingestWriters})
			if err != nil {
				cancel()
				return nil, fmt.Errorf("ingest %s wal=%s: %w", e.name, mode.name, err)
			}
			lag := time.Since(lagStart)
			cancel()
			if ckptDone != nil {
				<-ckptDone
			}
			// The snapshot must already hold every appended reading.
			wantTotal := int64(baseHours + liveHours)
			for _, h := range res.Histograms {
				if h.Histogram.Total() != wantTotal {
					return nil, fmt.Errorf("ingest %s wal=%s: consumer %d has %d readings, want %d",
						e.name, mode.name, h.ID, h.Histogram.Total(), wantTotal)
				}
			}
			rep.AddRow(e.name, mode.name,
				fmt.Sprintf("%.0f", float64(records)/d.Seconds()),
				fmtDur(d), fmtDur(lag), fmt.Sprint(epoch))
			if err := releaseLiveEngine(e.eng); err != nil {
				return nil, fmt.Errorf("ingest %s wal=%s: %w", e.name, mode.name, err)
			}
		}
	}
	return rep, nil
}

// newIngestColstore builds a column store for one wal mode under the
// options' work dir.
func newIngestColstore(opts Options, on bool, policy wal.SyncPolicy, sub string) liveEngine {
	var eo []colstore.Option
	if on {
		eo = append(eo, colstore.WithWAL(policy))
		if opts.TailBudget > 0 {
			eo = append(eo, colstore.WithTailBudget(int64(opts.TailBudget)))
		}
	}
	return colstore.New(filepath.Join(opts.WorkDir, sub), eo...)
}

// newIngestRowstore builds a row store for one wal mode under the
// options' work dir.
func newIngestRowstore(opts Options, on bool, policy wal.SyncPolicy, sub string) liveEngine {
	var eo []rowstore.Option
	if on {
		eo = append(eo, rowstore.WithWAL(policy))
		if opts.TailBudget > 0 {
			eo = append(eo, rowstore.WithTailBudget(int64(opts.TailBudget)))
		}
	}
	return rowstore.New(filepath.Join(opts.WorkDir, sub), eo...)
}

// startCheckpointer arms background checkpointing on engines that
// support it.
func startCheckpointer(ctx context.Context, eng liveEngine) <-chan struct{} {
	type checkpointer interface {
		StartCheckpointer(ctx context.Context) <-chan struct{}
	}
	if c, ok := eng.(checkpointer); ok {
		return c.StartCheckpointer(ctx)
	}
	return nil
}

// releaseLiveEngine shuts an ingest engine down between modes so wal
// files and page pools don't pile up across the sweep.
func releaseLiveEngine(eng liveEngine) error {
	type closer interface{ Close() error }
	if c, ok := eng.(closer); ok {
		return c.Close()
	}
	return eng.Release()
}

// ingestConcurrently drives ingestWriters goroutines, each appending
// per-hour batches for its shard of the households, offset hours after
// the loaded base.
func ingestConcurrently(app core.Appender, live *timeseries.Dataset, offset int) error {
	var wg sync.WaitGroup
	errs := make(chan error, ingestWriters)
	hours := len(live.Temperature.Values)
	for w := 0; w < ingestWriters; w++ {
		var own []*timeseries.Series
		for _, s := range live.Series {
			if core.ShardFor(s.ID, ingestWriters) == w {
				own = append(own, s)
			}
		}
		wg.Add(1)
		go func(own []*timeseries.Series) {
			defer wg.Done()
			batch := make([]core.Reading, len(own))
			for h := 0; h < hours; h++ {
				for i, s := range own {
					batch[i] = core.Reading{
						ID:          s.ID,
						Hour:        offset + h,
						Consumption: s.Readings[h],
						Temperature: live.Temperature.Values[h],
					}
				}
				if err := app.Append(batch); err != nil {
					errs <- err
					return
				}
			}
		}(own)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
