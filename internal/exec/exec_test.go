package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func makeDataset(t *testing.T, consumers, days int) *timeseries.Dataset {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunMatchesReference(t *testing.T) {
	ds := makeDataset(t, 6, 30)
	sources := []struct {
		name string
		src  Source
	}{
		{"dataset", NewDatasetSource(ds)},
		{"partitioned", partitionedSource{ds: ds}},
	}
	for _, task := range core.Tasks {
		for _, workers := range []int{1, 3} {
			for _, sc := range sources {
				t.Run(fmt.Sprintf("%v_w%d_%s", task, workers, sc.name), func(t *testing.T) {
					spec := core.Spec{Task: task, K: 3, Workers: workers}
					got, err := Run(sc.src, spec)
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

// compareResults checks bit-identical agreement with the reference.
func compareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	cursortest.CompareResults(t, got, want)
}

func TestRunPopulatesPhases(t *testing.T) {
	ds := makeDataset(t, 5, 20)
	res, err := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases
	if ph == nil {
		t.Fatal("Phases == nil")
	}
	if ph.Extract.Rows != 5 || ph.Compute.Rows != 5 || ph.Emit.Rows != 5 {
		t.Errorf("row counters = %d/%d/%d, want 5/5/5",
			ph.Extract.Rows, ph.Compute.Rows, ph.Emit.Rows)
	}
	wantBytes := int64(5 * 20 * 24 * 8)
	if ph.Extract.Bytes != wantBytes {
		t.Errorf("extract bytes = %d, want %d", ph.Extract.Bytes, wantBytes)
	}
	if ph.T1Quantiles+ph.T2Regression+ph.T3Adjust <= 0 {
		t.Error("3-line sub-phase timings are all zero")
	}
	if ph.Total() < ph.Compute.Wall {
		t.Errorf("Total %v < Compute %v", ph.Total(), ph.Compute.Wall)
	}
}

func TestRunSimilarityPhases(t *testing.T) {
	ds := makeDataset(t, 6, 20)
	res, err := Run(NewDatasetSource(ds), core.Spec{Task: core.TaskSimilarity, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil || res.Phases.Extract.Rows != 6 || res.Phases.Emit.Rows != 6 {
		t.Fatalf("similarity phases = %+v", res.Phases)
	}
	if len(res.Similar) != 6 {
		t.Fatalf("similar results = %d", len(res.Similar))
	}
}

func TestRunUnknownTask(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	if _, err := Run(NewDatasetSource(ds), core.Spec{Task: core.Task(99)}); err == nil {
		t.Fatal("unknown task did not error")
	}
}

// hintedSource wraps a Source with a fixed ParallelHint.
type hintedSource struct {
	Source
	hint int
	seen *int
}

func (h hintedSource) ParallelHint() int {
	*h.seen++
	return h.hint
}

func TestParallelHintOnlyWhenWorkersUnset(t *testing.T) {
	ds := makeDataset(t, 4, 10)
	var calls int
	src := hintedSource{Source: NewDatasetSource(ds), hint: 8, seen: &calls}

	if _, err := Run(src, core.Spec{Task: core.TaskHistogram}); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("hint not consulted for unset Workers")
	}
	calls = 0
	if _, err := Run(src, core.Spec{Task: core.TaskHistogram, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Error("hint consulted despite explicit Workers")
	}
}

// A block is what one worker computes, so a cursor's blocks shrink until
// its remaining series cover every worker it feeds; a cursor without a
// size hint gets the cap.
func TestBlockFor(t *testing.T) {
	ds := makeDataset(t, 200, 4)
	for _, tc := range []struct{ taken, workers, want int }{
		{0, 1, 16}, {184, 1, 16}, {195, 1, 5}, {200, 1, 1},
		{0, 4, 16}, {0, 64, 4}, {0, 200, 1}, {190, 4, 3},
	} {
		if got := blockFor(core.NewDatasetCursor(ds), tc.taken, tc.workers); got != tc.want {
			t.Errorf("blockFor(200 series, taken %d, %d workers) = %d, want %d", tc.taken, tc.workers, got, tc.want)
		}
	}
	unsized := struct{ core.Cursor }{core.NewDatasetCursor(ds)}
	if got := blockFor(unsized, 0, 64); got != maxBlock {
		t.Errorf("blockFor(no size hint) = %d, want %d", got, maxBlock)
	}
}

func TestDatasetCursorConformance(t *testing.T) {
	ds := makeDataset(t, 5, 10)
	cursortest.Run(t, func(t *testing.T) core.Cursor {
		return core.NewDatasetCursor(ds)
	})
}

func TestLazyCursorConformance(t *testing.T) {
	ds := makeDataset(t, 5, 10)
	cursortest.Run(t, func(t *testing.T) core.Cursor {
		return core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
			return ds.Series, nil
		}, nil)
	})
}

func TestLazyCursorLoadOnceAndOnClose(t *testing.T) {
	ds := makeDataset(t, 3, 10)
	loads, closes := 0, 0
	cur := core.NewLazyCursor(func(context.Context) ([]*timeseries.Series, error) {
		loads++
		return ds.Series, nil
	}, func() { closes++ })
	for i := 0; i < 3; i++ {
		if _, err := cur.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cur.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("load ran %d times, want 1", loads)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if closes != 1 {
		t.Fatalf("onClose ran %d times, want 1", closes)
	}
}

// failingSource returns an error from NewCursor.
type failingSource struct{ err error }

func (f failingSource) NewCursor() (core.Cursor, error)               { return nil, f.err }
func (f failingSource) Temperature() (*timeseries.Temperature, error) { return nil, f.err }

func TestRunPropagatesCursorError(t *testing.T) {
	want := errors.New("boom")
	if _, err := Run(failingSource{err: want}, core.Spec{Task: core.TaskHistogram}); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// The chaos conformance suite in cursortest cannot import exec (exec's own
// tests import cursortest), so it pins the retry budget as a constant. Keep
// the two in lock-step.
func TestRetryBudgetMatchesCursortest(t *testing.T) {
	if cursortest.RetryBudget != ExtractAttempts {
		t.Fatalf("cursortest.RetryBudget = %d, exec.ExtractAttempts = %d; update cursortest.RetryBudget",
			cursortest.RetryBudget, ExtractAttempts)
	}
}
