package rowstore

import (
	"io"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// runBatch is count consecutive hours of one household from hour from.
func runBatch(id timeseries.ID, from, count int) []core.Reading {
	batch := make([]core.Reading, 0, count)
	for h := from; h < from+count; h++ {
		batch = append(batch, core.Reading{ID: id, Hour: h,
			Consumption: liveVal(id, h), Temperature: liveTemp(h)})
	}
	return batch
}

// wantTotals asserts that Run sees exactly the given households, each
// with n readings.
func wantTotals(t *testing.T, e *Engine, ids []timeseries.ID, n int) {
	t.Helper()
	got := cursortest.HistogramTotals(t, e)
	if len(got) != len(ids) {
		t.Fatalf("Run sees %d consumers, want %d", len(got), len(ids))
	}
	for _, id := range ids {
		if got[id] != int64(n) {
			t.Fatalf("consumer %d: %d readings, want %d", id, got[id], n)
		}
	}
}

// reopen closes e and opens a fresh engine over its directory.
func reopen(t *testing.T, e *Engine) *Engine {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := New(e.dir)
	if err := re.Open(); err != nil {
		t.Fatal(err)
	}
	return re
}

// TestCheckpointPublishesCommonPrefix: ragged households publish the
// shortest one's length. With arrays of 480-hour chunks, the cut falls
// inside chunks that longer batches wrote, and the base view reads
// just their first hours — before and after a reopen.
func TestCheckpointPublishesCommonPrefix(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 1)
			e := New(t.TempDir(), WithLayout(layout))
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			// One batch per household: chunks [24, 504) and [504, 624)
			// for the first, [504, 554) for the third; the second ends
			// the common prefix at hour 524.
			extra := []int{600, 500, 530}
			for i, id := range ids {
				if err := e.Append(runBatch(id, baseN, extra[i])); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			cut := baseN + 500
			check := func(e *Engine) {
				t.Helper()
				wantTotals(t, e, ids, cut)
				for _, id := range ids {
					s, temp, err := e.table.readSeries(id)
					if err != nil {
						t.Fatal(err)
					}
					for h := baseN; h < cut; h++ {
						if s.Readings[h] != liveVal(id, h) || temp.Values[h] != liveTemp(h) {
							t.Fatalf("household %d hour %d: %v/%v", id, h, s.Readings[h], temp.Values[h])
						}
					}
				}
				temp, err := e.Temperature()
				if err != nil {
					t.Fatal(err)
				}
				if len(temp.Values) != cut {
					t.Fatalf("temperature covers %d hours, want %d", len(temp.Values), cut)
				}
				// Snapshots still serve every committed hour.
				cur, _, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				rows := drainSnap(t, cur)
				for i, id := range ids {
					if len(rows[id]) != baseN+extra[i] {
						t.Fatalf("snapshot of %d: %d hours, want %d", id, len(rows[id]), baseN+extra[i])
					}
				}
			}
			check(e)
			re := reopen(t, e)
			defer re.Close()
			check(re)
		})
	}
}

// TestCursorKeepsPrefixAcrossCheckpoint: cursors opened before a
// publishing Checkpoint drain the household list and length they
// opened on; cursors opened after it see the new day.
func TestCursorKeepsPrefixAcrossCheckpoint(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 4, 1)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			cur, err := e.NewCursor()
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			parts, err := e.NewCursors(2)
			if err != nil {
				t.Fatal(err)
			}
			open := append([]core.Cursor{cur}, parts...)
			for _, c := range open {
				if _, err := c.Next(); err != nil {
					t.Fatal(err)
				}
			}
			var day []core.Reading
			for h := baseN; h < baseN+24; h++ {
				day = append(day, hourBatch(append(ids, 99), h)...)
			}
			// Household 99 is new; it has every hour from 0.
			day = append(runBatch(99, 0, baseN), day...)
			if err := e.Append(day); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			drained := 0
			for _, c := range open {
				drained++ // the series read before the checkpoint
				for {
					s, err := c.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.ID == 99 || len(s.Readings) != baseN {
						t.Fatalf("cursor opened before the checkpoint read %d with %d hours", s.ID, len(s.Readings))
					}
					drained++
				}
				c.Close()
			}
			if drained != 2*len(ids) {
				t.Fatalf("old cursors drained %d series, want %d", drained, 2*len(ids))
			}
			wantTotals(t, e, append(ids, 99), baseN+24)
		})
	}
}

// TestLateShortHouseholdPinsCut: a household that joins with fewer
// hours than the base pins the common prefix, so Checkpoint publishes
// nothing, and a reopen keeps it out of the base view. Once it catches
// up to exactly the base length, the next Checkpoint publishes it at
// that length, and a reopen agrees; past it, it publishes with the
// others' new day.
func TestLateShortHouseholdPinsCut(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 1)
			e := New(t.TempDir(), WithLayout(layout))
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			baseN := len(ds.Temperature.Values)
			var ids []timeseries.ID
			for _, s := range ds.Series {
				ids = append(ids, s.ID)
			}
			var day []core.Reading
			for h := baseN; h < baseN+24; h++ {
				day = append(day, hourBatch(ids, h)...)
			}
			day = append(day, runBatch(99, 0, 2)...)
			if err := e.Append(day); err != nil {
				t.Fatal(err)
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			wantTotals(t, e, ids, baseN)
			re := reopen(t, e)
			defer re.Close()
			wantTotals(t, re, ids, baseN)
			if err := re.Append(runBatch(99, 2, baseN+22)); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			wantTotals(t, re, append(ids, 99), baseN+24)
			// A second late household that catches up to exactly the
			// published length publishes without moving the cut.
			if err := re.Append(runBatch(98, 0, 5)); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			wantTotals(t, re, append(ids, 99), baseN+24)
			if err := re.Append(runBatch(98, 5, baseN+19)); err != nil {
				t.Fatal(err)
			}
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			all := append([]timeseries.ID{98}, append(ids, 99)...)
			wantTotals(t, re, all, baseN+24)
			re2 := reopen(t, re)
			defer re2.Close()
			wantTotals(t, re2, all, baseN+24)
			if got := re2.table.consumers; got != len(all) {
				t.Fatalf("meta page holds %d consumers, want %d", got, len(all))
			}
		})
	}
}

// TestRunRacesPublishingCheckpoint runs partitioned histograms and
// 3-line runs while a writer appends days and checkpoints them and
// another goroutine warms and releases the cache, under -race: each Run
// reads one published prefix, the same length for every consumer and
// for the temperature column the 3-line task regresses against.
func TestRunRacesPublishingCheckpoint(t *testing.T) {
	src, ds := writeSource(t, 6, 30)
	e := New(t.TempDir(), WithLayout(LayoutArrays))
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	baseN := len(ds.Temperature.Values)
	var ids []timeseries.ID
	for _, s := range ds.Series {
		ids = append(ids, s.ID)
	}
	const days = 8
	done := make(chan error, 1)
	go func() {
		for d := 0; d < days; d++ {
			var day []core.Reading
			for _, id := range ids {
				day = append(day, runBatch(id, baseN+24*d, 24)...)
			}
			if err := e.Append(day); err != nil {
				done <- err
				return
			}
			if err := e.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	stop := make(chan struct{})
	warmed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				warmed <- nil
				return
			default:
			}
			if err := e.Warm(); err != nil {
				warmed <- err
				return
			}
			if err := e.Release(); err != nil {
				warmed <- err
				return
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		res, err := e.Run(core.Spec{Task: core.TaskHistogram, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		first := res.Histograms[0].Histogram.Total()
		for _, h := range res.Histograms {
			if n := h.Histogram.Total(); n != first || (n-int64(baseN))%24 != 0 {
				t.Fatalf("one Run read consumers with %d and %d readings", first, n)
			}
		}
		res, err = e.Run(core.Spec{Task: core.TaskThreeLine, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ThreeLines) != len(ids) {
			t.Fatalf("3-line Run returned %d consumers, want %d", len(res.ThreeLines), len(ids))
		}
	}
	close(stop)
	if err := <-warmed; err != nil {
		t.Fatal(err)
	}
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	wantTotals(t, e, ids, baseN+24*days)
}
