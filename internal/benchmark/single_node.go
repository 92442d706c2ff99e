package benchmark

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/mapreduce"
	"github.com/smartmeter/smartbench/internal/engine/rdd"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/stats"
)

// Table1 regenerates the paper's Table 1: which statistical functions
// each platform ships natively.
func Table1(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	cluster, err := newCluster(4)
	if err != nil {
		return nil, err
	}
	fsys, err := dfs.New(cluster)
	if err != nil {
		return nil, err
	}
	fileE, rowE, colE := singleNodeEngines(&opts, "table1")
	defer rowE.Close()
	engines := []core.Engine{fileE, rowE, colE, rdd.New(fsys), mapreduce.New(fsys)}
	rep := &Report{
		ID:      "table1",
		Title:   "Statistical functions built into the five tested platforms",
		Columns: []string{"Function", "Matlab", "MADLib", "System C", "Spark", "Hive"},
	}
	rows := []struct {
		name string
		get  func(core.Capabilities) core.FunctionSupport
	}{
		{"Histogram", func(c core.Capabilities) core.FunctionSupport { return c.Histogram }},
		{"Quantiles", func(c core.Capabilities) core.FunctionSupport { return c.Quantiles }},
		{"Regression/PAR", func(c core.Capabilities) core.FunctionSupport { return c.Regression }},
		{"Cosine similarity", func(c core.Capabilities) core.FunctionSupport { return c.CosineSimilarity }},
	}
	for _, r := range rows {
		cells := []string{r.name}
		for _, e := range engines {
			cells = append(cells, r.get(e.Capabilities()).String())
		}
		rep.AddRow(cells...)
	}
	return rep, nil
}

// singleNodeEngines returns the three single-server engines keyed by
// their report label (paper §5.3 compares Matlab, MADLib and System C).
func singleNodeEngines(opts *Options, tag string) (fileE *filestore.Engine, rowE *rowstore.Engine, colE *colstore.Engine) {
	fileE = filestore.New(filestore.WithSplitDir(filepath.Join(opts.WorkDir, tag+"-split")))
	rowE = rowstore.New(filepath.Join(opts.WorkDir, tag+"-rowstore"))
	colE = colstore.New(filepath.Join(opts.WorkDir, tag+"-colstore"),
		colstore.WithMemBudget(opts.MemBudget))
	return fileE, rowE, colE
}

// Fig4 regenerates Figure 4: data loading times, partitioned vs
// unpartitioned source, for the three single-server platforms.
func Fig4(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig4", false, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig4",
		Title:   fmt.Sprintf("Data loading times (%d consumers x %d days)", opts.Scale.BaseConsumers, opts.Scale.Days),
		Columns: []string{"engine", "unpartitioned", "partitioned"},
		Notes: []string{
			"expected shape: rowstore slowest; colstore fast; filestore's 'load' is just the file split",
		},
	}
	fileE, rowE, colE := singleNodeEngines(&opts, "fig4")
	defer rowE.Close()
	for _, e := range []struct {
		name string
		eng  core.Engine
	}{
		{"filestore (Matlab)", fileE},
		{"rowstore (MADLib)", rowE},
		{"colstore (System C)", colE},
	} {
		dUnpart, err := Timed(func() error { _, err := e.eng.Load(srcs.unpartRPL); return err })
		if err != nil {
			return nil, fmt.Errorf("fig4 %s unpart: %w", e.name, err)
		}
		dPart, err := Timed(func() error { _, err := e.eng.Load(srcs.part); return err })
		if err != nil {
			return nil, fmt.Errorf("fig4 %s part: %w", e.name, err)
		}
		rep.AddRow(e.name, fmtDur(dUnpart), fmtDur(dPart))
	}
	return rep, nil
}

// Fig5 regenerates Figure 5: the impact of file partitioning on the
// file-based engine's 3-line run time across data sizes.
func Fig5(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig5",
		Title:   "Impact of data partitioning on analytics (3-line, filestore)",
		Columns: []string{"consumers", "unpartitioned", "partitioned"},
		Notes:   []string{"expected shape: partitioned clearly faster, gap grows with size"},
	}
	for _, n := range opts.Scale.Consumers {
		srcs, err := opts.makeSources(n, "fig5", false, true)
		if err != nil {
			return nil, err
		}
		e := filestore.New()
		if _, err := e.LoadDirect(srcs.unpartRPL); err != nil {
			return nil, err
		}
		dUnpart, err := Timed(func() error {
			_, err := opts.run(e, core.Spec{Task: core.TaskThreeLine})
			return err
		})
		if err != nil {
			return nil, err
		}
		if _, err := e.LoadDirect(srcs.part); err != nil {
			return nil, err
		}
		dPart, err := Timed(func() error {
			_, err := opts.run(e, core.Spec{Task: core.TaskThreeLine})
			return err
		})
		if err != nil {
			return nil, err
		}
		rep.AddRow(fmt.Sprint(n), fmtDur(dUnpart), fmtDur(dPart))
	}
	return rep, nil
}

// Fig6 regenerates Figure 6: cold-start vs warm-start running time of
// the 3-line algorithm on the three single-server platforms, with the
// warm time broken into the paper's T1 (quantiles), T2 (regression) and
// T3 (adjustment) phases.
func Fig6(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig6", false, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig6",
		Title:   "Cold-start vs warm-start (3-line)",
		Columns: []string{"engine", "cold", "warm", "T1 quantiles", "T2 regression", "T3 adjust"},
		Notes:   []string{"expected shape: cold > warm everywhere; colstore smallest gap; T2 dominates"},
	}
	fileE, rowE, colE := singleNodeEngines(&opts, "fig6")
	defer rowE.Close()

	type warmable interface {
		core.Engine
		Warm() error
	}
	for _, e := range []struct {
		name string
		eng  warmable
		src  *meterdata.Source
	}{
		{"filestore (Matlab)", fileE, srcs.part},
		{"rowstore (MADLib)", rowE, srcs.unpartRPL},
		{"colstore (System C)", colE, srcs.unpartRPL},
	} {
		if _, err := e.eng.Load(e.src); err != nil {
			return nil, err
		}
		if err := e.eng.Release(); err != nil {
			return nil, err
		}
		cold, err := Timed(func() error {
			_, err := opts.run(e.eng, core.Spec{Task: core.TaskThreeLine})
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := e.eng.Release(); err != nil {
			return nil, err
		}
		if err := e.eng.Warm(); err != nil {
			return nil, err
		}
		var warmRes *core.Results
		warm, err := Timed(func() error {
			r, err := opts.run(e.eng, core.Spec{Task: core.TaskThreeLine})
			warmRes = r
			return err
		})
		if err != nil {
			return nil, err
		}
		// Phase breakdown comes from the execution pipeline's built-in
		// instrumentation of the warm run itself.
		if warmRes.Phases == nil {
			return nil, fmt.Errorf("fig6 %s: run reported no phase instrumentation", e.name)
		}
		p := warmRes.Phases
		rep.AddRow(e.name, fmtDur(cold), fmtDur(warm),
			fmtDur(p.T1Quantiles), fmtDur(p.T2Regression), fmtDur(p.T3Adjust))
	}
	return rep, nil
}

// Phases reports the execution pipeline's extract/compute/emit
// breakdown for a cold 3-line run on the three single-server platforms
// — the cost anatomy behind Figure 6, now measured inside the shared
// pipeline instead of re-derived by the harness.
func Phases(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "phases", false, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "phases",
		Title:   "Pipeline phase breakdown (cold start)",
		Columns: []string{"engine", "task", "extract", "compute", "emit", "rows", "MB extracted", "summary blocks", "MB stored", "MB raw"},
		Notes: []string{
			"expected shape: extract dominates cold runs; colstore's binary decode smallest",
			"summary blocks is the fraction of stored blocks the compressed-domain PAR",
			"fast path consumed without decoding (colstore only; other engines keep no",
			"block summaries and report n/a)",
			"MB stored vs MB raw is the engine-native storage footprint against the",
			"uncompressed matrix; their ratio is the storage compression factor (colstore",
			"segments are delta/XOR compressed, file engines report no native storage)",
		},
	}
	fileE, rowE, colE := singleNodeEngines(&opts, "phases")
	defer rowE.Close()
	for _, e := range []struct {
		name string
		eng  core.Engine
		src  *meterdata.Source
	}{
		{"filestore (Matlab)", fileE, srcs.part},
		{"rowstore (MADLib)", rowE, srcs.unpartRPL},
		{"colstore (System C)", colE, srcs.unpartRPL},
	} {
		st, err := e.eng.Load(e.src)
		if err != nil {
			return nil, err
		}
		for _, task := range []core.Task{core.TaskThreeLine, core.TaskPAR} {
			if err := e.eng.Release(); err != nil {
				return nil, err
			}
			res, err := opts.run(e.eng, core.Spec{Task: task})
			if err != nil {
				return nil, err
			}
			if res.Phases == nil {
				return nil, fmt.Errorf("phases %s: run reported no phase instrumentation", e.name)
			}
			p := res.Phases
			rep.AddRow(e.name, fmt.Sprint(task), fmtDur(p.Extract.Wall), fmtDur(p.Compute.Wall), fmtDur(p.Emit.Wall),
				fmt.Sprint(p.Extract.Rows), fmtMB(p.Extract.Bytes), fmtBlockFraction(p),
				fmtMB(st.StorageBytes), fmtMB(st.RawBytes))
		}
	}
	return rep, nil
}

// fmtBlockFraction renders the compressed-domain fast paths' block
// provenance: how many stored blocks were consumed summary-only out of
// all blocks the run touched. Runs that never took a fast path report
// n/a.
func fmtBlockFraction(p *core.Phases) string {
	total := p.SummaryBlocks + p.DecodedBlocks
	if total == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d (%.0f%%)", p.SummaryBlocks, total,
		100*float64(p.SummaryBlocks)/float64(total))
}

// Fig7 regenerates Figure 7: single-threaded cold-start execution time
// of each algorithm on each single-server platform across data sizes.
func Fig7(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig7",
		Title:   "Single-threaded execution times (cold start)",
		Columns: []string{"task", "consumers", "filestore", "rowstore", "colstore"},
		Notes: []string{
			"expected shape: colstore fastest overall; rowstore slowest on 3-line/PAR/similarity",
			"similarity uses the smaller consumer sweep (quadratic cost)",
		},
	}
	for _, task := range core.Tasks {
		sweep := opts.Scale.Consumers
		if task == core.TaskSimilarity {
			sweep = opts.Scale.SimilarityConsumers
			if len(sweep) == 0 {
				sweep = opts.Scale.Consumers
			}
		}
		for _, n := range sweep {
			srcs, err := opts.makeSources(n, fmt.Sprintf("fig7-%s", task), false, true)
			if err != nil {
				return nil, err
			}
			fileE, rowE, colE := singleNodeEngines(&opts, fmt.Sprintf("fig7-%v-%d", task, n))
			times := make([]time.Duration, 3)
			for i, eng := range []core.Engine{fileE, rowE, colE} {
				src := srcs.unpartRPL
				if i == 0 {
					src = srcs.part // filestore always runs partitioned (§5.3.1)
				}
				if _, err := eng.Load(src); err != nil {
					return nil, err
				}
				if err := eng.Release(); err != nil {
					return nil, err
				}
				d, err := Timed(func() error {
					_, err := opts.run(eng, core.Spec{Task: task, Workers: 1})
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("fig7 %v n=%d engine %d: %w", task, n, i, err)
				}
				times[i] = d
			}
			_ = rowE.Close()
			rep.AddRow(task.String(), fmt.Sprint(n), fmtDur(times[0]), fmtDur(times[1]), fmtDur(times[2]))
		}
	}
	return rep, nil
}

// Fig8 regenerates Figure 8: memory consumption of each algorithm on
// each single-server platform.
func Fig8(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig8", false, true)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig8",
		Title:   "Memory consumption per algorithm and engine (peak heap delta)",
		Columns: []string{"task", "filestore", "rowstore", "colstore"},
		Notes: []string{
			"expected shape: 3-line lowest; similarity highest; filestore partitioned streaming stays flat",
		},
	}
	for _, task := range core.Tasks {
		cells := []string{task.String()}
		fileE, rowE, colE := singleNodeEngines(&opts, fmt.Sprintf("fig8-%v", task))
		for i, eng := range []core.Engine{fileE, rowE, colE} {
			src := srcs.unpartRPL
			if i == 0 {
				src = srcs.part
			}
			if _, err := eng.Load(src); err != nil {
				return nil, err
			}
			if err := eng.Release(); err != nil {
				return nil, err
			}
			_, mem, err := MeasureMem(500*time.Microsecond, func() error {
				_, err := opts.run(eng, core.Spec{Task: task})
				return err
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmtMB(mem.PeakBytes))
		}
		_ = rowE.Close()
		rep.AddRow(cells...)
	}
	return rep, nil
}

// Fig9 regenerates §5.3.3 / Figure 9: the row-per-reading layout versus
// the array-per-consumer layout inside the row store.
func Fig9(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig9", false, false)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig9",
		Title:   "Row store table layouts: one row per reading vs arrays per consumer",
		Columns: []string{"task", "row layout", "array layout", "speedup"},
		Notes:   []string{"expected shape: arrays faster on every task (paper: 1.1-1.7x)"},
	}
	rows := rowstore.New(filepath.Join(opts.WorkDir, "fig9-rows"), rowstore.WithLayout(rowstore.LayoutRows))
	defer rows.Close()
	arrays := rowstore.New(filepath.Join(opts.WorkDir, "fig9-arrays"), rowstore.WithLayout(rowstore.LayoutArrays))
	defer arrays.Close()
	if _, err := rows.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	if _, err := arrays.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	for _, task := range core.Tasks {
		var dRow, dArr time.Duration
		for _, m := range []struct {
			eng *rowstore.Engine
			d   *time.Duration
		}{{rows, &dRow}, {arrays, &dArr}} {
			if err := m.eng.Release(); err != nil {
				return nil, err
			}
			d, err := Timed(func() error {
				_, err := opts.run(m.eng, core.Spec{Task: task})
				return err
			})
			if err != nil {
				return nil, err
			}
			*m.d = d
		}
		rep.AddRow(task.String(), fmtDur(dRow), fmtDur(dArr), fmtSpeedup(dRow, dArr))
	}
	return rep, nil
}

// Fig10 regenerates Figure 10: multi-core speedup of each algorithm as
// the worker count grows, on the column store (the paper sweeps all
// three engines; the shape is driven by the shared per-consumer
// parallelism, measured here on the fastest engine).
func Fig10(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	srcs, err := opts.makeSources(opts.Scale.BaseConsumers, "fig10", false, false)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "fig10",
		Title:   "Multi-core speedup (colstore, warm data)",
		Columns: []string{"task", "workers", "time", "speedup"},
		Notes:   []string{"expected shape: near-linear to the physical core count, then flattening"},
	}
	eng := colstore.New(filepath.Join(opts.WorkDir, "fig10-colstore"))
	if _, err := eng.Load(srcs.unpartRPL); err != nil {
		return nil, err
	}
	if err := eng.Warm(); err != nil {
		return nil, err
	}
	for _, task := range core.Tasks {
		var base time.Duration
		for _, w := range opts.Scale.Workers {
			d, err := Timed(func() error {
				_, err := opts.run(eng, core.Spec{Task: task, Workers: w})
				return err
			})
			if err != nil {
				return nil, err
			}
			if w == opts.Scale.Workers[0] {
				base = d
			}
			rep.AddRow(task.String(), fmt.Sprint(w), fmtDur(d), fmtSpeedup(base, d))
		}
	}
	return rep, nil
}

// MatMul regenerates the §5.3.2 micro-benchmark: the optimized
// (blocked, parallel) matrix multiply versus the naive hand-written
// loop — the paper's Matlab-vs-System C anecdote.
func MatMul(opts Options) (*Report, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	n := opts.Scale.MatrixSize
	if n <= 0 {
		n = 256
	}
	rep := &Report{
		ID:      "matmul",
		Title:   fmt.Sprintf("%dx%d matrix multiplication: optimized kernel vs naive loop", n, n),
		Columns: []string{"kernel", "time"},
		Notes:   []string{"expected shape: blocked+parallel kernel (Matlab analogue) beats the naive loop (System C analogue)"},
	}
	a := stats.NewMatrix(n, n)
	b := stats.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i%97) / 97
		b.Data[i] = float64(i%89) / 89
	}
	dOpt, err := Timed(func() error { _, err := a.Mul(b); return err })
	if err != nil {
		return nil, err
	}
	dNaive, err := Timed(func() error { _, err := a.MulNaive(b); return err })
	if err != nil {
		return nil, err
	}
	rep.AddRow("optimized (Matlab analogue)", fmtDur(dOpt))
	rep.AddRow("naive (System C analogue)", fmtDur(dNaive))
	return rep, nil
}
