package main

import (
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
)

// rowstore-cold: 1000 seed households x 365 days written as one
// reading-per-line CSV and loaded into the row store (row per reading)
// with its default 24 MiB buffer pool, far below the heap. One client
// calls Release, then runs histogram -> 3-line -> similarity at two
// workers: CSV parsing and page building (set-up), tuple extraction
// under the buffer-pool latch and the O(n²) similarity kernel do the
// work; colstore, its codecs and the WAL do none.
const rowConsumers = 1000

// rowSetupRepeats is below setupRepeats because one Load takes seconds.
const rowSetupRepeats = 3

var rowOps = []analyticOp{
	{"op1_s", "histogram", core.TaskHistogram},
	{"op2_s", "threeline", core.TaskThreeLine},
	{"op3_s", "similarity", core.TaskSimilarity},
}

func runRowCold(r *run) error {
	ds, err := seed.Generate(seed.Config{Consumers: rowConsumers, Days: days, Seed: r.seed})
	if err != nil {
		return err
	}
	src, err := meterdata.WriteUnpartitioned(filepath.Join(r.dir, "csv"), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		return err
	}
	ds = nil // the engine's copy is what the tasks and the check read
	eng := rowstore.New(filepath.Join(r.dir, "rowstore"), rowstore.WithLayout(rowstore.LayoutRows))
	defer eng.Close()

	var st *core.LoadStats
	var walls []float64
	var rows []map[string]float64
	for i := 0; i < rowSetupRepeats; i++ {
		r.attempted++
		root := r.tr.root("setup_s")
		d, err := r.tr.timed(root, "rowstore.Engine.Load", func() error {
			var err error
			st, err = eng.Load(src)
			return err
		})
		r.tr.end(root)
		if err != nil {
			return err
		}
		r.add("setup_s", d.Seconds())
		walls = append(walls, d.Seconds())
		rows = append(rows, map[string]float64{"rowstore load": d.Seconds()})
	}
	r.layer["rowstore.load_s"] = median(walls)
	r.add("stored_per_raw", ratio(float64(eng.StorageBytes()), 8*float64(st.Readings)))
	r.breakdowns = append(r.breakdowns, setupBreakdown(walls, rows))
	// Write back the heap file Load left dirty in the page cache now,
	// not in the background while the loop is timed.
	syscall.Sync()
	if r.tr != nil {
		if err := r.parsePass(src); err != nil {
			return err
		}
	}

	stats := r.analyticsLoop("rowstore", eng, rowOps, func(parent spanRef) (time.Duration, error) {
		return r.tr.timed(parent, "rowstore.Engine.Release", eng.Release)
	}, eng.PoolStats, float64(st.Readings))

	if err := eng.Release(); err != nil {
		return err
	}
	cur, err := eng.NewCursor()
	if err != nil {
		return err
	}
	temp, err := eng.Temperature()
	if err != nil {
		_ = cur.Close()
		return err
	}
	stored, err := readAll(cur, temp)
	if err != nil {
		return err
	}
	r.verify(stored, rowOps, stats)
	return nil
}

// parsePass times meterdata's CSV scanner alone over the workload's
// CSV: the parsing share of the row store's Load.
func (r *run) parsePass(src *meterdata.Source) error {
	f, err := os.Open(src.Paths()[0])
	if err != nil {
		return err
	}
	defer f.Close()
	root := r.tr.root("meterdata.parse")
	defer r.tr.end(root)
	var n int64
	d, err := r.tr.timed(root, "meterdata.ScanReadings", func() error {
		return meterdata.ScanReadings(f, func(meterdata.Reading) error { n++; return nil })
	})
	if err != nil {
		return err
	}
	r.layer["meterdata.parse_readings_per_s"] = float64(n) / d.Seconds()
	return nil
}
