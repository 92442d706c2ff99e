package benchmark

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/distsim"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Options configures an experiment run. Zero values take the Small
// scale, which keeps the whole suite fast enough for `go test`.
type Options struct {
	// WorkDir receives generated data and engine storage. Required.
	WorkDir string
	// Scale sizes the workloads.
	Scale Scale
	// Seed drives all data generation.
	Seed int64
	// FailPolicy is applied to every experiment Spec that does not pin
	// its own: FailFast (the zero value) preserves the historical
	// all-or-nothing semantics, Quarantine/Repair let experiments finish
	// over partially bad data (cmd/smbench -failpolicy).
	FailPolicy core.FailPolicy
	// Timeout, when positive, bounds each measured engine run with a
	// context deadline (cmd/smbench -timeout). Expired runs fail the
	// experiment with context.DeadlineExceeded.
	Timeout time.Duration
	// MemBudget, when positive, caps the column store's decoded-block
	// cache at this many bytes (cmd/smbench -membudget): the engine
	// pages compressed blocks in and out instead of decoding the whole
	// matrix, so datasets larger than memory stay runnable. Zero keeps
	// the historical fully-decoded in-core behavior.
	MemBudget int64
	// Encoders, when above 1, fans the scale-up experiment's segment
	// encoding out over that many workers (cmd/smbench -encoders). The
	// written file is byte-identical to the serial writer's; only the
	// generate wall-clock changes. Zero or 1 keeps the serial path.
	Encoders int
	// WAL selects the write-ahead-log fsync policy for append-driven
	// engines in the recovery experiment (cmd/smbench -wal / -fsync):
	// "off" (no log), "batch" (fsync at group commit — the durable
	// default) or "always" (fsync every append). The ingest experiment
	// ignores it and sweeps all three modes so the durability cost is
	// recorded side by side. Empty means "batch" where a log is needed.
	WAL string
	// TailBudget, when positive, arms background checkpointing in the
	// WAL-backed engines (cmd/smbench -tailbudget): once that many
	// readings accumulate past the last checkpoint the tail is folded
	// into the base segment and the log truncated. Zero leaves
	// checkpointing to the experiments' explicit calls.
	TailBudget int
}

// run executes spec on eng under the options' failure policy and
// timeout. Every experiment's measured engine invocation funnels
// through here so -failpolicy and -timeout reach all of them.
func (o *Options) run(eng core.Engine, spec core.Spec) (*core.Results, error) {
	if spec.FailPolicy == core.FailFast {
		spec.FailPolicy = o.FailPolicy
	}
	ctx := context.Background()
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	return eng.RunContext(ctx, spec)
}

// Scale sizes an experiment suite. The paper's absolute sizes (10 GB to
// 1 TB) are scaled to consumer counts that run on one machine; shapes,
// not absolute numbers, are the reproduction target.
type Scale struct {
	// Consumers is the data-size sweep (Figures 5, 7, 11, 13, 16).
	Consumers []int
	// BaseConsumers is the single-size workload (Figures 4, 6, 9, 10).
	BaseConsumers int
	// SimilarityConsumers is the sweep for similarity experiments.
	SimilarityConsumers []int
	// Days is the series length in days.
	Days int
	// Workers is the thread sweep for Figure 10.
	Workers []int
	// ClusterNodes is the node sweep for Figures 14, 17, 19.
	ClusterNodes []int
	// FileCounts is the file-count sweep for Figure 18.
	FileCounts []int
	// MatrixSize is the matrix multiplication micro-benchmark dimension.
	MatrixSize int
}

// SmallScale is the test-suite scale: seconds, not minutes.
func SmallScale() Scale {
	return Scale{
		Consumers:           []int{4, 8, 16},
		BaseConsumers:       8,
		SimilarityConsumers: []int{8, 16},
		Days:                30,
		Workers:             []int{1, 2, 4},
		ClusterNodes:        []int{2, 4},
		FileCounts:          []int{2, 8},
		MatrixSize:          64,
	}
}

// DefaultScale is the CLI scale: a few minutes for the full suite.
func DefaultScale() Scale {
	return Scale{
		Consumers:           []int{50, 100, 200, 400},
		BaseConsumers:       200,
		SimilarityConsumers: []int{100, 200, 400},
		Days:                365,
		Workers:             []int{1, 2, 4, 8},
		ClusterNodes:        []int{4, 8, 12, 16},
		FileCounts:          []int{10, 100, 1000},
		MatrixSize:          400,
	}
}

func (o *Options) fill() error {
	if o.WorkDir == "" {
		return fmt.Errorf("benchmark: Options.WorkDir is required")
	}
	if len(o.Scale.Consumers) == 0 {
		o.Scale = SmallScale()
	}
	if o.Scale.BaseConsumers == 0 {
		o.Scale.BaseConsumers = o.Scale.Consumers[len(o.Scale.Consumers)-1]
	}
	if o.Scale.Days == 0 {
		o.Scale.Days = 30
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	switch o.WAL {
	case "", "off", "batch", "always":
	default:
		return fmt.Errorf("benchmark: Options.WAL %q is not off, batch or always", o.WAL)
	}
	return os.MkdirAll(o.WorkDir, 0o755)
}

// makeDataset builds (and caches per call) a seed dataset of n
// consumers.
func (o *Options) makeDataset(n int) (*timeseries.Dataset, error) {
	return seed.Generate(seed.Config{Consumers: n, Days: o.Scale.Days, Seed: o.Seed})
}

// sources bundles the layouts one experiment needs.
type sources struct {
	ds *timeseries.Dataset
	// unpartRPL is one big reading-per-line file; unpartSPL one big
	// series-per-line file; part is one file per consumer.
	unpartRPL, unpartSPL, part *meterdata.Source
}

// makeSources writes a dataset in the requested layouts under
// workdir/sub.
func (o *Options) makeSources(n int, sub string, wantSPL, wantPart bool) (*sources, error) {
	ds, err := o.makeDataset(n)
	if err != nil {
		return nil, err
	}
	out := &sources{ds: ds}
	dir := fmt.Sprintf("%s/%s-%d", o.WorkDir, sub, n)
	out.unpartRPL, err = meterdata.WriteUnpartitioned(dir+"-rpl", ds, meterdata.FormatReadingPerLine)
	if err != nil {
		return nil, err
	}
	if wantSPL {
		out.unpartSPL, err = meterdata.WriteUnpartitioned(dir+"-spl", ds, meterdata.FormatSeriesPerLine)
		if err != nil {
			return nil, err
		}
	}
	if wantPart {
		out.part, err = meterdata.WritePartitioned(dir+"-part", ds, meterdata.FormatReadingPerLine)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newCluster builds a simulated cluster with the given node count and a
// fast but non-zero network.
func newCluster(nodes int) (*distsim.Cluster, error) {
	return distsim.New(distsim.Config{
		Nodes:           nodes,
		SlotsPerNode:    4,
		TransferLatency: 20 * time.Microsecond,
		BytesPerSecond:  1 << 31,
		// Simulated per-slot processing rate: lets clusters larger than
		// the host's core count exhibit genuine scaling (speedup figures
		// 14/17/19) while keeping absolute run times in seconds.
		ComputeBytesPerSecond: 8 << 20,
	})
}
