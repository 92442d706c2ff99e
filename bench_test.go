package smartbench

// One testing.B benchmark per paper table/figure, plus kernel
// micro-benchmarks. Each benchmark exercises the same code path as the
// corresponding cmd/smbench experiment at a reduced, fixed size so the
// whole suite completes in minutes. See EXPERIMENTS.md for the mapping
// to the paper's evaluation.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/smartmeter/smartbench/internal/benchmark"
	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/engine/colstore"
	"github.com/smartmeter/smartbench/internal/engine/dfs"
	"github.com/smartmeter/smartbench/internal/engine/filestore"
	"github.com/smartmeter/smartbench/internal/engine/mapreduce"
	"github.com/smartmeter/smartbench/internal/engine/rdd"
	"github.com/smartmeter/smartbench/internal/engine/rowstore"
	"github.com/smartmeter/smartbench/internal/exec"
	"github.com/smartmeter/smartbench/internal/fault"
	"github.com/smartmeter/smartbench/internal/generator"
	"github.com/smartmeter/smartbench/internal/histogram"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/similarity"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/stream"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"
	"github.com/smartmeter/smartbench/internal/wal"
)

const (
	benchConsumers = 16
	benchDays      = 60
)

// benchDataset caches one dataset for all kernel benchmarks.
var benchDataset *timeseries.Dataset

func getDataset(b *testing.B) *timeseries.Dataset {
	b.Helper()
	if benchDataset == nil {
		ds, err := seed.Generate(seed.Config{Consumers: benchConsumers, Days: benchDays, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = ds
	}
	return benchDataset
}

func writeSources(b *testing.B, format meterdata.Format, partitioned bool) *meterdata.Source {
	b.Helper()
	ds := getDataset(b)
	dir := b.TempDir()
	var src *meterdata.Source
	var err error
	if partitioned {
		src, err = meterdata.WritePartitioned(dir, ds, format)
	} else {
		src, err = meterdata.WriteUnpartitioned(dir, ds, format)
	}
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// --- Kernel micro-benchmarks -------------------------------------------

func BenchmarkKernelHistogram(b *testing.B) {
	ds := getDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := histogram.Compute(ds.Series[i%len(ds.Series)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelThreeLine(b *testing.B) {
	ds := getDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := threeline.Compute(ds.Series[i%len(ds.Series)], ds.Temperature); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPAR(b *testing.B) {
	ds := getDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := par.Compute(ds.Series[i%len(ds.Series)], ds.Temperature); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSimilarity(b *testing.B) {
	ds := getDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.Compute(ds, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// simDataset caches the larger n=64 dataset used by the blocked-vs-naive
// similarity A/B pair below (scripts/bench.sh aggregates these two into
// BENCH_similarity.json; see EXPERIMENTS.md §5.3.4).
var simDataset *timeseries.Dataset

func getSimDataset(b *testing.B) *timeseries.Dataset {
	b.Helper()
	if simDataset == nil {
		ds, err := seed.Generate(seed.Config{Consumers: 64, Days: benchDays, Seed: 43})
		if err != nil {
			b.Fatal(err)
		}
		simDataset = ds
	}
	return simDataset
}

func BenchmarkKernelSimilarityBlocked(b *testing.B) {
	ds := getSimDataset(b)
	// Warm once so the FlatMatrix packing is cached and the loop measures
	// the steady-state kernel, matching how engines reuse a loaded dataset.
	if _, err := similarity.Compute(ds, 5); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.Compute(ds, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSimilarityNaive(b *testing.B) {
	ds := getSimDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.ComputeNaive(ds, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFault{Baseline,QuarantineZero,QuarantineInjected} measure
// what per-consumer failure containment costs on the pipeline hot path.
// Baseline is the historical fail-fast run with no fault wrapper;
// QuarantineZero runs the full containment machinery (fault source
// wrapper, quarantine bookkeeping) with a zero injection rate, so any
// gap over Baseline is pure overhead — scripts/bench.sh distills the
// pair into BENCH_fault.json and the target is <3%; QuarantineInjected
// adds a 5% mixed fault rate, pricing the retry and quarantine paths
// themselves.
func benchFault(b *testing.B, src exec.Source, policy core.FailPolicy) {
	spec := core.Spec{Task: core.TaskThreeLine, Workers: 4, FailPolicy: policy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunContext(context.Background(), src, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultBaseline(b *testing.B) {
	benchFault(b, exec.NewDatasetSource(getDataset(b)), core.FailFast)
}

func BenchmarkFaultQuarantineZero(b *testing.B) {
	src := fault.New(exec.NewDatasetSource(getDataset(b)), fault.Config{Seed: 42})
	benchFault(b, src, core.Quarantine)
}

func BenchmarkFaultQuarantineInjected(b *testing.B) {
	cfg := fault.Config{Seed: 42, Transient: 0.025, Permanent: 0.0125, Corrupt: 0.0125}
	src := fault.New(exec.NewDatasetSource(getDataset(b)), cfg)
	benchFault(b, src, core.Quarantine)
}

func BenchmarkKernelQuantiles(b *testing.B) {
	ds := getDataset(b)
	xs := ds.Series[0].Readings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Quantiles(xs, 0.1, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerator(b *testing.B) {
	ds := getDataset(b)
	gen, err := generator.New(ds, generator.Config{Clusters: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.NextSeries(ds.Temperature); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1 ------------------------------------------------------------

func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := benchmark.Table1(benchmark.Options{WorkDir: b.TempDir(), Scale: benchmark.SmallScale()})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 4 {
			b.Fatal("table1 shape")
		}
	}
}

// --- Figure 4: load times ------------------------------------------------

func benchLoad(b *testing.B, mk func(i int) core.Engine, src *meterdata.Source) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := mk(i)
		if _, err := eng.Load(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4LoadColstore(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	dir := b.TempDir()
	benchLoad(b, func(i int) core.Engine {
		return colstore.New(fmt.Sprintf("%s/%d", dir, i))
	}, src)
}

func BenchmarkFig4LoadRowstore(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	dir := b.TempDir()
	benchLoad(b, func(i int) core.Engine {
		return rowstore.New(fmt.Sprintf("%s/%d", dir, i))
	}, src)
}

func BenchmarkFig4LoadFilestore(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	dir := b.TempDir()
	benchLoad(b, func(i int) core.Engine {
		return filestore.New(filestore.WithSplitDir(fmt.Sprintf("%s/%d", dir, i)))
	}, src)
}

// --- Figure 5: partitioning impact on the file engine -------------------

func benchFilestoreThreeLine(b *testing.B, partitioned bool) {
	src := writeSources(b, meterdata.FormatReadingPerLine, partitioned)
	eng := filestore.New()
	if _, err := eng.LoadDirect(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5PartitioningPartitioned(b *testing.B)   { benchFilestoreThreeLine(b, true) }
func BenchmarkFig5PartitioningUnpartitioned(b *testing.B) { benchFilestoreThreeLine(b, false) }

// --- Figure 6: cold vs warm ----------------------------------------------

func BenchmarkFig6ColdWarm(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	eng := colstore.New(b.TempDir())
	if _, err := eng.Load(src); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := eng.Release(); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if err := eng.Warm(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 7: single-threaded tasks per engine --------------------------

func BenchmarkFig7SingleThread(b *testing.B) {
	srcUnpart := writeSources(b, meterdata.FormatReadingPerLine, false)
	srcPart := writeSources(b, meterdata.FormatReadingPerLine, true)

	engines := []struct {
		name string
		mk   func() core.Engine
		src  *meterdata.Source
	}{
		{"filestore", func() core.Engine { return filestore.New() }, srcPart},
		{"rowstore", func() core.Engine { return rowstore.New(b.TempDir()) }, srcUnpart},
		{"colstore", func() core.Engine { return colstore.New(b.TempDir()) }, srcUnpart},
	}
	for _, e := range engines {
		eng := e.mk()
		if _, err := eng.Load(e.src); err != nil {
			b.Fatal(err)
		}
		for _, task := range core.Tasks {
			b.Run(fmt.Sprintf("%s/%s", e.name, task), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := eng.Release(); err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Run(core.Spec{Task: task, K: 5, Workers: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 8 is a memory measurement; report allocations here ----------

func BenchmarkFig8MemoryProxy(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	eng := colstore.New(b.TempDir())
	if _, err := eng.Load(src); err != nil {
		b.Fatal(err)
	}
	for _, task := range core.Tasks {
		b.Run(task.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(core.Spec{Task: task, K: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 9: row vs array layout ---------------------------------------

func BenchmarkFig9Layout(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	for _, layout := range []rowstore.Layout{rowstore.LayoutRows, rowstore.LayoutArrays} {
		eng := rowstore.New(b.TempDir(), rowstore.WithLayout(layout))
		if _, err := eng.Load(src); err != nil {
			b.Fatal(err)
		}
		b.Run(layout.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := eng.Release(); err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
					b.Fatal(err)
				}
			}
		})
		eng.Close()
	}
}

// --- Figure 10: multi-core speedup ---------------------------------------

func BenchmarkFig10Speedup(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	eng := colstore.New(b.TempDir())
	if _, err := eng.Load(src); err != nil {
		b.Fatal(err)
	}
	if err := eng.Warm(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(core.Spec{Task: core.TaskPAR, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Cluster figures ------------------------------------------------------

func newBenchCluster(b *testing.B, nodes int) *dfs.FS {
	b.Helper()
	cluster, err := distsim.New(distsim.Config{
		Nodes: nodes, SlotsPerNode: 4,
		TransferLatency: 20 * time.Microsecond, BytesPerSecond: 1 << 31,
	})
	if err != nil {
		b.Fatal(err)
	}
	fsys, err := dfs.New(cluster, dfs.WithBlockSize(128<<10))
	if err != nil {
		b.Fatal(err)
	}
	return fsys
}

// BenchmarkFig11ClusterVsC compares the column store against the two
// cluster engines on the same workload (Figure 11 / 12).
func BenchmarkFig11ClusterVsC(b *testing.B) {
	srcRPL := writeSources(b, meterdata.FormatReadingPerLine, false)
	srcSPL := writeSources(b, meterdata.FormatSeriesPerLine, false)

	colE := colstore.New(b.TempDir())
	if _, err := colE.Load(srcRPL); err != nil {
		b.Fatal(err)
	}
	fsys := newBenchCluster(b, 4)
	hive := mapreduce.New(fsys)
	spark := rdd.New(fsys)
	if _, err := hive.Load(srcSPL); err != nil {
		b.Fatal(err)
	}
	if _, err := spark.Load(srcSPL); err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		eng  core.Engine
	}{{"colstore", colE}, {"spark", spark}, {"hive", hive}} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.eng.Release(); err != nil {
					b.Fatal(err)
				}
				if _, err := e.eng.Run(core.Spec{Task: core.TaskPAR}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchClusterFormat runs one task on Spark and Hive for a given source.
func benchClusterFormat(b *testing.B, src *meterdata.Source, hiveOpts ...mapreduce.Option) {
	b.Helper()
	fsys := newBenchCluster(b, 4)
	hive := mapreduce.New(fsys, hiveOpts...)
	spark := rdd.New(fsys)
	if _, err := hive.Load(src); err != nil {
		b.Fatal(err)
	}
	if _, err := spark.Load(src); err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		eng  core.Engine
	}{{"spark", spark}, {"hive", hive}} {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.eng.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig13Format1(b *testing.B) {
	benchClusterFormat(b, writeSources(b, meterdata.FormatReadingPerLine, false))
}

func BenchmarkFig16Format2(b *testing.B) {
	benchClusterFormat(b, writeSources(b, meterdata.FormatSeriesPerLine, false))
}

func BenchmarkFig18Format3(b *testing.B) {
	ds := getDataset(b)
	src, err := meterdata.WriteGrouped(b.TempDir(), ds, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("udtf", func(b *testing.B) {
		benchClusterFormat(b, src, mapreduce.WithStyle(mapreduce.StyleUDTF))
	})
	b.Run("udaf", func(b *testing.B) {
		benchClusterFormat(b, src, mapreduce.WithStyle(mapreduce.StyleUDAF))
	})
}

// BenchmarkFig14NodeSweep measures the same job at two cluster sizes
// (Figures 14/17/19 regenerate the full sweep via cmd/smbench).
func BenchmarkFig14NodeSweep(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	for _, nodes := range []int{2, 4, 8} {
		fsys := newBenchCluster(b, nodes)
		hive := mapreduce.New(fsys)
		if _, err := hive.Load(src); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hive.Run(core.Spec{Task: core.TaskThreeLine}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §5.3.2 matrix multiplication ----------------------------------------

func benchMatMul(b *testing.B, optimized bool) {
	const n = 128
	a := stats.NewMatrix(n, n)
	c := stats.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i % 31)
		c.Data[i] = float64(i % 29)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if optimized {
			_, err = a.Mul(c)
		} else {
			_, err = a.MulNaive(c)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMulOptimized(b *testing.B) { benchMatMul(b, true) }
func BenchmarkMatMulNaive(b *testing.B)     { benchMatMul(b, false) }

// TestMain keeps the cached dataset across benchmarks and cleans up.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// --- Updates (§3 future work) ---------------------------------------------

func BenchmarkUpdatesAppendDay(b *testing.B) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	delta, err := seed.Generate(seed.Config{Consumers: benchConsumers, Days: 1, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	type appendable interface {
		core.Engine
		core.Appender
		Checkpoint() error
	}
	// Each iteration appends the next day as one batch, household by
	// household, and checkpoints it into the stored base.
	appendDays := func(b *testing.B, eng appendable) {
		if _, err := eng.Load(src); err != nil {
			b.Fatal(err)
		}
		// A durable base first: the timed Checkpoints' fsyncs then
		// cover the new days, not the load's write-back.
		if err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := core.DeltaBatch(delta, (benchDays+i)*timeseries.HoursPerDay)
			if err := eng.Append(batch); err != nil {
				b.Fatal(err)
			}
			if err := eng.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("rowstore", func(b *testing.B) {
		eng := rowstore.New(b.TempDir())
		defer eng.Close()
		appendDays(b, eng)
	})
	b.Run("colstore", func(b *testing.B) {
		appendDays(b, colstore.New(b.TempDir()))
	})
}

// --- Streaming (§6 future work) --------------------------------------------

func BenchmarkStreamingThroughput(b *testing.B) {
	ds := getDataset(b)
	profiles, err := stream.TrainProfiles(ds, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc, err := stream.NewProcessor(stream.NewProfileDetector(profiles), 4)
		if err != nil {
			b.Fatal(err)
		}
		events := make(chan stream.Event, 4096)
		alerts := make(chan stream.Alert, 4096)
		go stream.Replay(ds, events)
		done := make(chan error, 1)
		go func() { done <- proc.Run(events, alerts) }()
		for range alerts {
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchConsumers*benchDays*24), "events/op")
}

// --- Scale-up: compressed out-of-core segments --------------------------

// scaleupSize reads the benchmark population from the environment so
// scripts/bench.sh can drive the same code path at CI scale (the 64 x
// 60-day default) and at paper scale (SMARTBENCH_SCALE_CONSUMERS=100000
// SMARTBENCH_SCALE_DAYS=365 for the committed BENCH_scale.json record).
func scaleupSize() (consumers, days int) {
	consumers, days = 64, benchDays
	if v, err := strconv.Atoi(os.Getenv("SMARTBENCH_SCALE_CONSUMERS")); err == nil && v > 0 {
		consumers = v
	}
	if v, err := strconv.Atoi(os.Getenv("SMARTBENCH_SCALE_DAYS")); err == nil && v > 0 {
		days = v
	}
	return consumers, days
}

// scaleupEncoders reads the segment-encode worker count from the
// environment (SMARTBENCH_SCALE_ENCODERS, default 1). The written file
// is byte-identical at any count, so the setting only moves the encode
// wall-clock that the Paged benchmarks report as enc-rows/s.
func scaleupEncoders() int {
	if v, err := strconv.Atoi(os.Getenv("SMARTBENCH_SCALE_ENCODERS")); err == nil && v > 0 {
		return v
	}
	return 1
}

// buildScaleupSegments streams n synthetic consumers into a Wh-quantized
// segment file without materializing the matrix, fanning encoding out
// over the given worker count (1 = serial), and returns the path's
// directory, the raw and stored byte counts and the encode wall time.
func buildScaleupSegments(b *testing.B, n, days, encoders int) (dir string, raw, stored int64, encTime time.Duration) {
	b.Helper()
	seedDS, err := seed.Generate(seed.Config{Consumers: 10, Days: days, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := generator.New(seedDS, generator.Config{Clusters: 4, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	dir = b.TempDir()
	start := time.Now()
	wopts := []colstore.WriterOption{colstore.WithQuantize(3)}
	if encoders > 1 {
		wopts = append(wopts, colstore.WithEncoders(encoders))
	}
	w, err := colstore.NewSegmentWriter(dir+"/"+colstore.SegmentFileName, seedDS.Temperature.Values, wopts...)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float64, len(seedDS.Temperature.Values))
	for i := 0; i < n; i++ {
		if err := gen.SeriesInto(buf, seedDS.Temperature); err != nil {
			b.Fatal(err)
		}
		if err := w.Append(timeseries.ID(i+1), buf); err != nil {
			b.Fatal(err)
		}
	}
	raw = w.RawBytes()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	encTime = time.Since(start)
	st, err := os.Stat(dir + "/" + colstore.SegmentFileName)
	if err != nil {
		b.Fatal(err)
	}
	return dir, raw, st.Size(), encTime
}

// BenchmarkScaleupPagedThreeLine is the scaleup experiment at benchmark
// scale: 3-line over the paged column store under a quarter-of-raw
// memory budget. Custom metrics report the storage compression ratio,
// the untimed build phase's encode throughput (generate+encode wall, so
// the 1M-consumer run needs no second full encode) and the sustained
// consumer throughput of the measured task.
func BenchmarkScaleupPagedThreeLine(b *testing.B) {
	n, days := scaleupSize()
	encoders := scaleupEncoders()
	dir, raw, stored, encTime := buildScaleupSegments(b, n, days, encoders)
	eng := colstore.New(dir, colstore.WithMemBudget(raw/4))
	if _, err := eng.OpenExisting(); err != nil {
		b.Fatal(err)
	}
	defer eng.Release()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(core.Spec{Task: core.TaskThreeLine, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(raw)/float64(stored), "ratio")
	b.ReportMetric(float64(raw)/(1<<20), "rawMB")
	b.ReportMetric(float64(stored)/(1<<20), "storedMB")
	b.ReportMetric(float64(raw/4)/(1<<20), "budgetMB")
	b.ReportMetric(float64(encoders), "encoders")
	if s := encTime.Seconds(); s > 0 {
		b.ReportMetric(float64(n)/s, "enc-rows/s")
		b.ReportMetric(float64(n*days*24)/s, "enc-readings/s")
	}
	if elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed.Seconds(), "rows/s")
	}
}

// BenchmarkScaleupPagedHistogram measures the compressed-domain
// histogram fast path: block summaries answer most consumers without
// decoding, so throughput should beat the decode-everything baseline.
func BenchmarkScaleupPagedHistogram(b *testing.B) {
	n, days := scaleupSize()
	dir, raw, _, _ := buildScaleupSegments(b, n, days, scaleupEncoders())
	eng := colstore.New(dir, colstore.WithMemBudget(raw/4))
	if _, err := eng.OpenExisting(); err != nil {
		b.Fatal(err)
	}
	defer eng.Release()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
			b.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed.Seconds(), "rows/s")
	}
}

// BenchmarkScaleupPagedPAR measures the compressed-domain PAR fast
// path: per-hour sum lanes in the block headers reconstruct most
// consumers' series without touching the compressed payloads, then the
// unchanged PAR kernel runs bit-identically over the result.
func BenchmarkScaleupPagedPAR(b *testing.B) {
	n, days := scaleupSize()
	dir, raw, _, _ := buildScaleupSegments(b, n, days, scaleupEncoders())
	eng := colstore.New(dir, colstore.WithMemBudget(raw/4))
	if _, err := eng.OpenExisting(); err != nil {
		b.Fatal(err)
	}
	defer eng.Release()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(core.Spec{Task: core.TaskPAR, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/elapsed.Seconds(), "rows/s")
	}
}

// benchScaleupEncode measures streaming generation + compression
// throughput at a fixed CI-scale population so the serial/parallel pair
// below is a like-for-like A/B of the encode pool.
func benchScaleupEncode(b *testing.B, encoders int) {
	const n = 32
	b.ResetTimer()
	start := time.Now()
	var raw, stored int64
	for i := 0; i < b.N; i++ {
		_, raw, stored, _ = buildScaleupSegments(b, n, benchDays, encoders)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(raw)/float64(stored), "ratio")
	b.ReportMetric(float64(encoders), "encoders")
	if elapsed > 0 {
		b.ReportMetric(float64(n*benchDays*24)*float64(b.N)/elapsed.Seconds(), "readings/s")
	}
}

// BenchmarkScaleupEncodeSerial / BenchmarkScaleupEncodeParallel A/B the
// segment-encode worker pool against the serial writer. The output file
// is byte-identical either way; only wall-clock moves. On a multi-core
// host the parallel side should win roughly linearly in core count
// (>=1.8x at 4 cores); on a 1-CPU host expect parity.
func BenchmarkScaleupEncodeSerial(b *testing.B)   { benchScaleupEncode(b, 1) }
func BenchmarkScaleupEncodeParallel(b *testing.B) { benchScaleupEncode(b, 4) }

// --- Live ingestion: append-driven engines ---------------------------------

// liveBenchEngine is the shape both append-driven engines share.
type liveBenchEngine interface {
	core.Engine
	core.Appender
}

const ingestLiveDays = 3
const ingestWorkers = 4

// benchIngest loads the standard base, then appends ingestLiveDays of
// fresh hour batches through ingestWorkers sharded writers. ns/op is
// the append phase; records/s is the sustained append throughput and
// lagNs the freshness lag — the time from the last append to a
// histogram answer over a read-isolated snapshot of base + tail.
func benchIngest(b *testing.B, mk func(b *testing.B) (liveBenchEngine, func())) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	live, err := seed.Generate(seed.Config{Consumers: benchConsumers, Days: ingestLiveDays, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	baseHours := benchDays * timeseries.HoursPerDay
	liveHours := ingestLiveDays * timeseries.HoursPerDay

	shards := make([][]*timeseries.Series, ingestWorkers)
	for _, s := range live.Series {
		w := core.ShardFor(s.ID, ingestWorkers)
		shards[w] = append(shards[w], s)
	}

	var appendTime, lagTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, done := mk(b)
		if _, err := eng.Load(src); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, ingestWorkers)
		for w := 0; w < ingestWorkers; w++ {
			wg.Add(1)
			go func(own []*timeseries.Series) {
				defer wg.Done()
				batch := make([]core.Reading, len(own))
				for h := 0; h < liveHours; h++ {
					for j, s := range own {
						batch[j] = core.Reading{
							ID: s.ID, Hour: baseHours + h,
							Consumption: s.Readings[h],
							Temperature: live.Temperature.Values[h],
						}
					}
					if err := eng.Append(batch); err != nil {
						errs <- err
						return
					}
				}
			}(shards[w])
		}
		wg.Wait()
		appendTime += time.Since(start)
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}

		lagStart := time.Now()
		res, _, err := exec.RunSnapshot(context.Background(), eng,
			core.Spec{Task: core.TaskHistogram, Workers: ingestWorkers})
		if err != nil {
			b.Fatal(err)
		}
		lagTime += time.Since(lagStart)
		if len(res.Histograms) != benchConsumers {
			b.Fatalf("snapshot saw %d consumers, want %d", len(res.Histograms), benchConsumers)
		}
		b.StopTimer()
		done()
		b.StartTimer()
	}
	records := float64(liveHours) * float64(benchConsumers) * float64(b.N)
	b.ReportMetric(records/appendTime.Seconds(), "records/s")
	b.ReportMetric(float64(lagTime.Nanoseconds())/float64(b.N), "lagNs")
}

func BenchmarkIngestColstore(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := colstore.New(b.TempDir())
		return eng, func() { _ = eng.Release() }
	})
}

func BenchmarkIngestRowstore(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := rowstore.New(b.TempDir())
		return eng, func() { _ = eng.Close() }
	})
}

// WAL variants of the ingest pair: the same workload acked through the
// CRC-framed write-ahead log, so BENCH_ingest.json records the
// durability cost next to the in-memory baseline. batch fsyncs at
// group commit (the durable default; overhead target <=15% vs the
// no-wal baseline), always fsyncs every append.

func BenchmarkIngestColstoreWALBatch(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := colstore.New(b.TempDir(), colstore.WithWAL(wal.SyncBatch))
		return eng, func() { _ = eng.Release() }
	})
}

func BenchmarkIngestColstoreWALAlways(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := colstore.New(b.TempDir(), colstore.WithWAL(wal.SyncAlways))
		return eng, func() { _ = eng.Release() }
	})
}

func BenchmarkIngestRowstoreWALBatch(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := rowstore.New(b.TempDir(), rowstore.WithWAL(wal.SyncBatch))
		return eng, func() { _ = eng.Close() }
	})
}

func BenchmarkIngestRowstoreWALAlways(b *testing.B) {
	benchIngest(b, func(b *testing.B) (liveBenchEngine, func()) {
		eng := rowstore.New(b.TempDir(), rowstore.WithWAL(wal.SyncAlways))
		return eng, func() { _ = eng.Close() }
	})
}

// crashBenchEngine is an appender that can simulate process death.
type crashBenchEngine interface {
	liveBenchEngine
	Crash()
}

// benchRecovery measures crash-to-first-answer: each iteration loads
// the base, acks a live tail into the write-ahead log, drops every
// handle without flushing, then times reopen + log replay + the first
// histogram over a verified snapshot. replay-records/s is the live tail
// replayed per second of recovery.
func benchRecovery(b *testing.B,
	mk func(dir string) crashBenchEngine,
	reopen func(dir string) (liveBenchEngine, func(), error)) {
	src := writeSources(b, meterdata.FormatReadingPerLine, false)
	live, err := seed.Generate(seed.Config{Consumers: benchConsumers, Days: ingestLiveDays, Seed: 78})
	if err != nil {
		b.Fatal(err)
	}
	baseHours := benchDays * timeseries.HoursPerDay
	liveHours := ingestLiveDays * timeseries.HoursPerDay

	var replayTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		eng := mk(dir)
		if _, err := eng.Load(src); err != nil {
			b.Fatal(err)
		}
		batch := make([]core.Reading, len(live.Series))
		for h := 0; h < liveHours; h++ {
			for j, s := range live.Series {
				batch[j] = core.Reading{
					ID: s.ID, Hour: baseHours + h,
					Consumption: s.Readings[h],
					Temperature: live.Temperature.Values[h],
				}
			}
			if err := eng.Append(batch); err != nil {
				b.Fatal(err)
			}
		}
		eng.Crash()
		b.StartTimer()

		start := time.Now()
		re, done, err := reopen(dir)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := exec.RunSnapshot(context.Background(), re,
			core.Spec{Task: core.TaskHistogram, Workers: ingestWorkers})
		if err != nil {
			b.Fatal(err)
		}
		replayTime += time.Since(start)
		if len(res.Histograms) != benchConsumers {
			b.Fatalf("recovered snapshot saw %d consumers, want %d", len(res.Histograms), benchConsumers)
		}
		wantTotal := int64(baseHours + liveHours)
		for _, h := range res.Histograms {
			if h.Histogram.Total() != wantTotal {
				b.Fatalf("consumer %d recovered %d readings, want %d", h.ID, h.Histogram.Total(), wantTotal)
			}
		}
		b.StopTimer()
		done()
		b.StartTimer()
	}
	records := float64(liveHours) * float64(benchConsumers) * float64(b.N)
	b.ReportMetric(records/replayTime.Seconds(), "replay-records/s")
}

func BenchmarkRecoveryColstore(b *testing.B) {
	benchRecovery(b,
		func(dir string) crashBenchEngine {
			return colstore.New(dir, colstore.WithWAL(wal.SyncBatch))
		},
		func(dir string) (liveBenchEngine, func(), error) {
			eng := colstore.New(dir, colstore.WithWAL(wal.SyncBatch))
			if _, err := eng.OpenExisting(); err != nil {
				return nil, nil, err
			}
			return eng, func() { _ = eng.Release() }, nil
		})
}

func BenchmarkRecoveryRowstore(b *testing.B) {
	benchRecovery(b,
		func(dir string) crashBenchEngine {
			return rowstore.New(dir, rowstore.WithWAL(wal.SyncBatch))
		},
		func(dir string) (liveBenchEngine, func(), error) {
			eng := rowstore.New(dir, rowstore.WithWAL(wal.SyncBatch))
			if err := eng.Open(); err != nil {
				return nil, nil, err
			}
			return eng, func() { _ = eng.Close() }, nil
		})
}

// BenchmarkFsync measures one small write + fsync on the benchmark
// filesystem. The durable wal modes pay at least one of these per acked
// hour batch, so this number is the floor under their ingest overhead —
// bench.sh records it next to wal_batch_overhead in BENCH_ingest.json.
func BenchmarkFsync(b *testing.B) {
	f, err := os.Create(filepath.Join(b.TempDir(), "fsync-probe"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Write(buf); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
