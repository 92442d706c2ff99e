package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// partitionedSource is the minimal PartitionedSource for pipeline tests:
// an in-memory dataset sharded either into contiguous ID ranges (like
// the storage engines) or round-robin (like the cluster engines' hash
// partitions, whose ID ranges interleave).
type partitionedSource struct {
	ds          *timeseries.Dataset
	roundRobin  bool
	cursorCalls *int // increments on NewCursor (single-cursor probe)
	partCalls   *int // increments on NewCursors
	maxParts    int  // cap on partitions handed out (0 = no cap)
}

func (s partitionedSource) NewCursor() (core.Cursor, error) {
	if s.cursorCalls != nil {
		*s.cursorCalls++
	}
	return core.NewDatasetCursor(s.ds), nil
}

func (s partitionedSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s partitionedSource) NewCursors(max int) ([]core.Cursor, error) {
	if s.partCalls != nil {
		*s.partCalls++
	}
	if s.maxParts > 0 && max > s.maxParts {
		max = s.maxParts
	}
	var parts [][]*timeseries.Series
	if s.roundRobin {
		n := max
		if n > len(s.ds.Series) {
			n = len(s.ds.Series)
		}
		parts = make([][]*timeseries.Series, n)
		for i, ser := range s.ds.Series {
			parts[i%n] = append(parts[i%n], ser)
		}
	} else {
		for _, r := range core.PartitionRanges(len(s.ds.Series), max) {
			parts = append(parts, s.ds.Series[r[0]:r[1]])
		}
	}
	curs := make([]core.Cursor, len(parts))
	for i, p := range parts {
		p := p
		curs[i] = core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
			return p, nil
		}, nil)
	}
	return curs, nil
}

var streamingTasks = []core.Task{core.TaskHistogram, core.TaskThreeLine, core.TaskPAR}

// TestPrefetchMatchesReference pins the overlapped path bit-identical to
// the oracle for contiguous and interleaved (hash-style) partitions.
func TestPrefetchMatchesReference(t *testing.T) {
	ds := makeDataset(t, 11, 30)
	for _, rr := range []bool{false, true} {
		for _, task := range streamingTasks {
			for _, workers := range []int{2, 4, 7} {
				name := fmt.Sprintf("%v_w%d_rr%v", task, workers, rr)
				t.Run(name, func(t *testing.T) {
					spec := core.Spec{Task: task, Workers: workers}
					src := partitionedSource{ds: ds, roundRobin: rr}
					got, err := Run(src, spec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.RunReference(ds, spec)
					if err != nil {
						t.Fatal(err)
					}
					if got.Count() != want.Count() {
						t.Fatalf("count = %d, want %d", got.Count(), want.Count())
					}
					compareResults(t, got, want)
				})
			}
		}
	}
}

// TestPrefetchSerialFallbacks covers cursor selection where partitions
// must not be asked for or must be used as returned: one worker drains
// the single NewCursor, a single-partition answer is drained as is, and
// the similarity task materializes NewCursor.
func TestPrefetchSerialFallbacks(t *testing.T) {
	ds := makeDataset(t, 6, 20)

	t.Run("one_worker", func(t *testing.T) {
		var partCalls int
		src := partitionedSource{ds: ds, partCalls: &partCalls}
		if _, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if partCalls != 0 {
			t.Errorf("NewCursors called %d times with one worker, want 0", partCalls)
		}
	})

	t.Run("single_partition", func(t *testing.T) {
		var cursorCalls int
		src := partitionedSource{ds: ds, maxParts: 1, cursorCalls: &cursorCalls}
		got, err := Run(src, core.Spec{Task: core.TaskPAR, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if cursorCalls != 0 {
			t.Errorf("NewCursor called %d times when a partition cursor exists, want 0", cursorCalls)
		}
		want, err := core.RunReference(ds, core.Spec{Task: core.TaskPAR, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, got, want)
	})

	t.Run("similarity", func(t *testing.T) {
		var partCalls int
		src := partitionedSource{ds: ds, partCalls: &partCalls}
		if _, err := Run(src, core.Spec{Task: core.TaskSimilarity, K: 2, Workers: 4}); err != nil {
			t.Fatal(err)
		}
		if partCalls != 0 {
			t.Errorf("NewCursors called %d times for similarity, want 0", partCalls)
		}
	})
}

// TestPrefetchPhaseAccounting checks the busy-time counters: exact row
// counts per stage, non-zero busy sums, and volume matching the dataset.
func TestPrefetchPhaseAccounting(t *testing.T) {
	const consumers, days = 12, 30
	ds := makeDataset(t, consumers, days)
	src := partitionedSource{ds: ds}
	res, err := Run(src, core.Spec{Task: core.TaskThreeLine, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph == nil {
		t.Fatal("Phases == nil")
	}
	if ph.Extract.Rows != consumers || ph.Compute.Rows != consumers || ph.Emit.Rows != consumers {
		t.Errorf("row counters = %d/%d/%d, want %d each",
			ph.Extract.Rows, ph.Compute.Rows, ph.Emit.Rows, consumers)
	}
	wantBytes := int64(consumers * days * 24 * 8)
	if ph.Extract.Bytes != wantBytes {
		t.Errorf("extract bytes = %d, want %d", ph.Extract.Bytes, wantBytes)
	}
	if ph.Extract.Wall <= 0 || ph.Compute.Wall <= 0 {
		t.Errorf("busy sums = extract %v, compute %v; want both > 0",
			ph.Extract.Wall, ph.Compute.Wall)
	}
	if ph.T1Quantiles+ph.T2Regression+ph.T3Adjust <= 0 {
		t.Error("3-line sub-phase timings are all zero")
	}
}

// failingCursor yields ok series then errors, for exercising pipeline
// shutdown without deadlock.
type failingCursor struct {
	series []*timeseries.Series
	failAt int
	i      int
}

var errBoom = errors.New("boom")

func (c *failingCursor) Next() (*timeseries.Series, error) {
	if c.i >= c.failAt {
		return nil, errBoom
	}
	if c.i >= len(c.series) {
		return nil, io.EOF
	}
	s := c.series[c.i]
	c.i++
	return s, nil
}

func (c *failingCursor) Reset() error { c.i = 0; return nil }
func (c *failingCursor) Close() error { return nil }

// failingPartSource hands out one healthy partition and one that errors
// after a few rows.
type failingPartSource struct {
	ds     *timeseries.Dataset
	failAt int
}

func (s failingPartSource) NewCursor() (core.Cursor, error) {
	return core.NewDatasetCursor(s.ds), nil
}

func (s failingPartSource) Temperature() (*timeseries.Temperature, error) {
	return s.ds.Temperature, nil
}

func (s failingPartSource) NewCursors(max int) ([]core.Cursor, error) {
	mid := len(s.ds.Series) / 2
	ok := s.ds.Series[:mid]
	return []core.Cursor{
		core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) { return ok, nil }, nil),
		&failingCursor{series: s.ds.Series[mid:], failAt: s.failAt},
	}, nil
}

// TestPrefetchErrorPropagates checks that a mid-stream cursor error
// surfaces as the Run error and the pipeline unwinds (no goroutine
// deadlock — the test itself would time out on one).
func TestPrefetchErrorPropagates(t *testing.T) {
	ds := makeDataset(t, 10, 20)
	for _, failAt := range []int{0, 1, 3} {
		src := failingPartSource{ds: ds, failAt: failAt}
		_, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: 4})
		if !errors.Is(err, errBoom) {
			t.Fatalf("failAt=%d: err = %v, want errBoom", failAt, err)
		}
	}
}

// TestRunConcurrentCallers runs several pipelines at once over one shared
// source, the shape a serving layer would produce: the dataset must be
// read-only to every decode goroutine and worker (`go test -race`
// checks), and each caller's results must equal the reference.
func TestRunConcurrentCallers(t *testing.T) {
	ds := makeDataset(t, 24, 21)
	src := NewDatasetSource(ds)
	for _, task := range streamingTasks {
		want, err := core.RunReference(ds, core.Spec{Task: task})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		got := make([]*core.Results, 4)
		errs := make([]error, 4)
		for c := range got {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got[c], errs[c] = Run(src, core.Spec{Task: task, Workers: 8})
			}(c)
		}
		wg.Wait()
		for c := range got {
			if errs[c] != nil {
				t.Fatalf("%v caller %d: %v", task, c, errs[c])
			}
			got[c].Phases = nil // the reference carries no instrumentation
			if !reflect.DeepEqual(got[c], want) {
				t.Errorf("%v caller %d: results differ from reference", task, c)
			}
		}
	}
}

// TestRunKernelErrorAborts checks that under FailFast a kernel error in
// one consumer aborts the run on both the one-cursor and the partitioned
// pipeline.
func TestRunKernelErrorAborts(t *testing.T) {
	ds := makeDataset(t, 8, 10)
	ds.Series[5] = &timeseries.Series{ID: 99} // empty: the histogram kernel errors
	for name, src := range map[string]Source{
		"one_cursor":  NewDatasetSource(ds),
		"partitioned": partitionedSource{ds: ds},
	} {
		if _, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: 4}); err == nil {
			t.Errorf("%s: run over an empty series succeeded, want the kernel error", name)
		}
	}
}
