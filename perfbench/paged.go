package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// paged-analytics: 2000 generated consumers x 365 days, 10% flat loads,
// Wh-quantized into a colstore segment and opened under a block cache of
// a quarter of the raw size, so the data does not fit the cache. One
// client cycles histogram -> 3-line -> PAR at two workers: the pager,
// block decode, the task kernels and the compressed-domain fast paths
// do the work; the WAL and CSV parsing do none.
const (
	pagedConsumers     = 2000
	pagedSeedConsumers = 20
	pagedFlatRate      = 0.1
	days               = 365
)

var pagedOps = []analyticOp{
	{"op1_s", "histogram", core.TaskHistogram},
	{"op2_s", "threeline", core.TaskThreeLine},
	{"op3_s", "par", core.TaskPAR},
}

func runPaged(r *run) error {
	var eng *colstore.Engine
	var st *core.LoadStats
	var budget int64
	var gen, enc, open []float64
	var setupRows []map[string]float64
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("paged-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if eng != nil {
			if err := eng.Release(); err != nil {
				return err
			}
			if err := os.RemoveAll(filepath.Join(r.dir, fmt.Sprintf("paged-%d", i-1))); err != nil {
				return err
			}
		}
		r.attempted++
		s, err := pagedSetup(r, dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		eng, st, budget = s.eng, s.stats, s.budget
		r.add("setup_s", s.wall.Seconds())
		gen = append(gen, s.rows["generator"])
		enc = append(enc, s.rows["colstore encode"])
		open = append(open, s.rows["colstore open"])
		setupRows = append(setupRows, s.rows)
	}
	r.layer["generator.gen_s"] = median(gen)
	r.layer["colstore.encode_s"] = median(enc)
	r.layer["colstore.open_s"] = median(open)
	r.add("stored_per_raw", ratio(float64(st.StorageBytes), float64(st.RawBytes)))
	r.note("raw %.1f MB, stored %.1f MB, block cache %.1f MB", mb(st.RawBytes), mb(st.StorageBytes), mb(budget))
	r.breakdowns = append(r.breakdowns, setupBreakdown(r.samples["setup_s"], setupRows))

	stats := r.analyticsLoop("colstore", eng, pagedOps, nil, func() (int64, int64) {
		h, m, _ := eng.PagerStats()
		return h, m
	}, float64(st.Readings))

	// Check every answer against the reference over the stored
	// (quantized) readings, read back through a cursor.
	cur, err := eng.NewCursor()
	if err != nil {
		return err
	}
	temp, err := eng.Temperature()
	if err != nil {
		_ = cur.Close()
		return err
	}
	ds, err := readAll(cur, temp)
	if err != nil {
		return err
	}
	if err := eng.Release(); err != nil {
		return err
	}
	r.verify(ds, pagedOps, stats)
	return nil
}

// setupResult is one set-up of a colstore workload.
type setupResult struct {
	eng    *colstore.Engine
	stats  *core.LoadStats // paged-analytics
	budget int64           // paged-analytics block cache
	fs     *countingFS     // durable-ingest, traced run
	wall   time.Duration
	rows   map[string]float64 // layer -> seconds
}

// pagedSetup generates, encodes and opens the paged-analytics data in
// dir. Its wall time is the set-up time; rows holds the time spent in
// each layer's calls.
func pagedSetup(r *run, dir string) (*setupResult, error) {
	res := &setupResult{rows: map[string]float64{}}
	root := r.tr.root("setup_s")
	defer r.tr.end(root)
	start := time.Now()
	var seedDS *timeseries.Dataset
	d, err := r.tr.timed(root, "seed.Generate", func() error {
		var err error
		seedDS, err = seed.Generate(seed.Config{Consumers: pagedSeedConsumers, Days: days, Seed: r.seed})
		return err
	})
	res.rows["seed"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	var g *generator.Generator
	d, err = r.tr.timed(root, "generator.New", func() error {
		var err error
		g, err = generator.New(seedDS, generator.Config{Seed: r.seed, FlatRate: pagedFlatRate})
		return err
	})
	res.rows["generator"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	temp := seedDS.Temperature
	path := filepath.Join(dir, colstore.SegmentFileName)
	var w *colstore.SegmentWriter
	d, err = r.tr.timed(root, "colstore.NewSegmentWriter", func() error {
		var err error
		w, err = colstore.NewSegmentWriter(path, temp.Values, colstore.WithQuantize(3), colstore.WithEncoders(clients))
		return err
	})
	res.rows["colstore encode"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	buf := make([]float64, len(temp.Values))
	for i := 0; i < pagedConsumers; i++ {
		d, err := r.tr.timed(root, "generator.SeriesInto", func() error { return g.SeriesInto(buf, temp) })
		res.rows["generator"] += d.Seconds()
		if err != nil {
			_ = w.Close()
			return nil, err
		}
		id := timeseries.ID(i + 1)
		d, err = r.tr.timed(root, "colstore.SegmentWriter.Append", func() error { return w.Append(id, buf) })
		res.rows["colstore encode"] += d.Seconds()
		if err != nil {
			_ = w.Close()
			return nil, err
		}
	}
	d, err = r.tr.timed(root, "colstore.SegmentWriter.Close", w.Close)
	res.rows["colstore encode"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	raw := w.RawBytes()
	res.budget = raw / 4
	res.eng = colstore.New(dir, colstore.WithMemBudget(res.budget))
	d, err = r.tr.timed(root, "colstore.Engine.OpenExisting", func() error {
		var err error
		res.stats, err = res.eng.OpenExisting()
		return err
	})
	res.rows["colstore open"] += d.Seconds()
	if err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	return res, nil
}

// setupBreakdown splits the median set-up into its layers' calls;
// walls[i] is the wall time of the set-up whose calls took rows[i].
func setupBreakdown(walls []float64, rows []map[string]float64) breakdown {
	mi := 0
	for i, w := range walls {
		below := 0
		for _, v := range walls {
			if v < w {
				below++
			}
		}
		if below == len(walls)/2 {
			mi = i
		}
	}
	var bd []bdRow
	for _, name := range []string{"seed", "generator", "colstore encode", "colstore open", "rowstore load"} {
		if v, ok := rows[mi][name]; ok {
			bd = append(bd, bdRow{name, v})
		}
	}
	return newBreakdown("setup_s", "median set-up", walls[mi], bd)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
