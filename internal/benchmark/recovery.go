package benchmark

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

// Recovery measures crash recovery under the write-ahead log: each
// append-driven engine bulk-loads a base, ingests a live tail with the
// log armed, then dies mid-flight (every file handle dropped, no
// flush). The reported recovery time is crash-to-first-answer: reopen
// the directory, replay the log through the idempotent append path and
// run a histogram over a snapshot — which the experiment verifies holds
// every acked reading. The wal policy comes from Options.WAL ("batch"
// when unset; "off" is rejected because there is nothing to recover).
func Recovery(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if opts.WAL == "off" {
		return nil, fmt.Errorf("benchmark: recovery needs a write-ahead log; -wal off has nothing to replay")
	}
	policy := wal.SyncBatch
	if opts.WAL == "always" {
		policy = wal.SyncAlways
	}
	n := opts.Scale.BaseConsumers
	srcs, err := opts.makeSources(n, "recovery", false, false)
	if err != nil {
		return nil, err
	}
	live, err := seed.Generate(seed.Config{
		Consumers: n, Days: ingestDays, Seed: opts.Seed + 3000,
	})
	if err != nil {
		return nil, err
	}
	baseHours := opts.Scale.Days * timeseries.HoursPerDay
	liveHours := ingestDays * timeseries.HoursPerDay
	records := int64(liveHours) * int64(n)

	rep := &Report{
		ID: "recovery",
		Title: fmt.Sprintf("Crash recovery: %d consumers, %d live hours in the wal=%s log",
			n, liveHours, walModeName(policy)),
		Columns: []string{"engine", "wal size", "replayed", "recovery time", "replay records/s"},
		Notes: []string{
			"crash model: every handle dropped with no flush after the live tail was acked",
			"recovery time = reopen + log replay + first histogram answer over a verified snapshot",
			"the snapshot after recovery must hold every acked reading (base + live) — checked per household",
		},
	}

	type crashEngine interface {
		liveEngine
		Crash()
	}
	for _, name := range []string{"colstore (System C)", "rowstore (MADLib)"} {
		dir := filepath.Join(opts.WorkDir, "recovery-"+name[:3])
		var eng crashEngine
		if name[:3] == "col" {
			eng = colstore.New(dir, colstore.WithWAL(policy))
		} else {
			eng = rowstore.New(dir, rowstore.WithWAL(policy))
		}
		if _, err := eng.Load(srcs.unpartRPL); err != nil {
			return nil, err
		}
		if err := ingestConcurrently(eng, live, baseHours); err != nil {
			return nil, fmt.Errorf("recovery %s: %w", name, err)
		}
		walBytes, err := dirSize(filepath.Join(dir, "wal"))
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", name, err)
		}
		eng.Crash()

		var res *core.Results
		d, err := Timed(func() error {
			var re liveEngine
			if name[:3] == "col" {
				ce := colstore.New(dir, colstore.WithWAL(policy))
				if _, err := ce.OpenExisting(); err != nil {
					_ = ce.Release()
					return err
				}
				re = ce
			} else {
				rse := rowstore.New(dir, rowstore.WithWAL(policy))
				if err := rse.Open(); err != nil {
					_ = rse.Close()
					return err
				}
				re = rse
			}
			var rerr error
			res, _, rerr = exec.RunSnapshot(context.Background(), re,
				core.Spec{Task: core.TaskHistogram, Workers: ingestWriters})
			if rerr != nil {
				return rerr
			}
			return releaseLiveEngine(re)
		})
		if err != nil {
			return nil, fmt.Errorf("recovery %s: %w", name, err)
		}
		wantTotal := int64(baseHours + liveHours)
		if len(res.Histograms) != n {
			return nil, fmt.Errorf("recovery %s: snapshot saw %d consumers, want %d", name, len(res.Histograms), n)
		}
		for _, h := range res.Histograms {
			if h.Histogram.Total() != wantTotal {
				return nil, fmt.Errorf("recovery %s: consumer %d recovered %d readings, want %d",
					name, h.ID, h.Histogram.Total(), wantTotal)
			}
		}
		rep.AddRow(name,
			fmt.Sprintf("%.1f KiB", float64(walBytes)/1024),
			fmt.Sprint(records),
			fmtDur(d),
			fmt.Sprintf("%.0f", float64(records)/d.Seconds()))
	}
	return rep, nil
}

// walModeName renders a policy the way the -wal flag spells it.
func walModeName(p wal.SyncPolicy) string {
	if p == wal.SyncAlways {
		return "always"
	}
	return "batch"
}

// dirSize sums the file sizes under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
