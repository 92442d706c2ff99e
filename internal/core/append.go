package core

import "github.com/smartmeter/smartbench/internal/timeseries"

// Live ingestion contract: instead of loading a finished dataset and
// then running tasks ("load once, then run"), an engine implementing
// Appender accepts batches of readings forever and serves read-isolated
// snapshots at any time ("append forever, query any time"). The
// incremental maintainers in internal/incr and the stream detectors are
// fed from the same committed batches (see exec.Ingestor), so storage,
// alerts and analytics all observe one ordered sequence of writes.
//
// Append is the engines' one write path. The paper's §3 update
// workload, adding a day's worth of new points to every series, is
// one Append batch holding every household's new hours followed by the
// engine's Checkpoint, which publishes the common prefix of every
// household to Run.
//
// Ordering contract. Within one household, readings must arrive in
// hour order with no gaps: the first reading for a household carries
// the hour right after its stored prefix (0 for a new household), and
// each subsequent reading the next hour. Re-delivering an hour the
// engine has already committed is a no-op — batches are idempotent, so
// a caller that retries a failed batch cannot double-apply the part
// that did land. Re-delivering with a gap (an hour beyond the
// household's next expected hour) is an error.
//
// Temperature contract. Reading.Temperature must equal the outdoor
// temperature for Reading.Hour: households share one temperature
// column, and the engine extends it from whichever household reaches a
// new hour first.

// Reading is one live meter measurement: household ID, the hour index
// it extends the household's series at, the consumption value, and the
// outdoor temperature for that hour. It is the one reading type shared
// by storage appends, the stream detectors (stream.Event is an alias)
// and the incremental maintainers.
type Reading struct {
	ID          timeseries.ID
	Hour        int
	Consumption float64
	Temperature float64
}

// DeltaBatch turns a delta dataset into one Append batch continuing
// every stored series at hour base: each household's new hours in
// turn, so an engine that coalesces runs writes each household's delta
// as one run.
func DeltaBatch(delta *timeseries.Dataset, base int) []Reading {
	batch := make([]Reading, 0, len(delta.Series)*len(delta.Temperature.Values))
	for _, s := range delta.Series {
		for h, v := range s.Readings {
			batch = append(batch, Reading{
				ID:          s.ID,
				Hour:        base + h,
				Consumption: v,
				Temperature: delta.Temperature.Values[h],
			})
		}
	}
	return batch
}

// Epoch identifies a snapshot's position in an engine's append
// sequence: the number of batches committed before the snapshot was
// taken. Epochs are monotonic within one engine instance (they restart
// at the stored state's epoch 0 after a reopen) and exist so tests and
// callers can prove isolation: a cursor obtained at epoch E never
// observes writes from any batch committed after E.
type Epoch uint64

// Appender is the live-ingestion contract. Append and Snapshot are
// safe for concurrent use with each other and with themselves —
// engines serve multiple sharded writers while snapshots are read —
// which is deliberately stronger than the base Engine contract.
type Appender interface {
	// Append commits one batch of readings atomically with respect to
	// Snapshot: a snapshot observes either none or all of a batch.
	// Batches are idempotent under the ordering contract above. On
	// error the batch may be partially applied internally, but it is
	// not committed (the epoch does not advance) and a successful
	// retry of the same batch completes it exactly once.
	Append(batch []Reading) error
	// Snapshot returns a read-isolated cursor over everything
	// committed so far — the stored base plus all appended batches —
	// in ascending household-ID order, together with the epoch it was
	// taken at. The cursor keeps serving exactly that epoch's data
	// while appends continue. Snapshot cursors also implement
	// SnapshotTemperature.
	Snapshot() (Cursor, Epoch, error)
}

// SnapshotTemperature is implemented by snapshot cursors: the
// temperature column captured at snapshot time, aligned with the
// captured series lengths even as later appends extend it.
type SnapshotTemperature interface {
	SnapshotTemp() *timeseries.Temperature
}

// ShardFor maps a household to one of n writer shards. Engines and
// callers share this one partitioning function (the stream processor's
// per-worker fan-out uses it too), so a batch pre-split by shard lands
// on disjoint engine-internal shard locks.
func ShardFor(id timeseries.ID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(uint64(id) % uint64(n))
}
