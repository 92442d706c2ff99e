package rowstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/exec/cursortest"
	"github.com/smartmeter/smartbench/internal/meterdata"
	"github.com/smartmeter/smartbench/internal/seed"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

func writeSource(t *testing.T, consumers, days int) (*meterdata.Source, *timeseries.Dataset) {
	t.Helper()
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return src, ds
}

func TestEngineLoadAndExtract(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 5, 30)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			st, err := e.Load(src)
			if err != nil {
				t.Fatal(err)
			}
			if st.Consumers != 5 {
				t.Errorf("consumers = %d", st.Consumers)
			}
			if st.Readings != int64(5*30*24) {
				t.Errorf("readings = %d", st.Readings)
			}
			if st.StorageBytes <= 0 {
				t.Errorf("storage = %d", st.StorageBytes)
			}
			// Extract each consumer and compare against the source data.
			for _, want := range ds.Series {
				s, temp, err := e.table.readSeries(want.ID)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Readings {
					if math.Abs(s.Readings[i]-want.Readings[i]) > 1e-4 {
						t.Fatalf("consumer %d reading %d: %g vs %g",
							want.ID, i, s.Readings[i], want.Readings[i])
					}
					if math.Abs(temp.Values[i]-ds.Temperature.Values[i]) > 1e-4 {
						t.Fatalf("consumer %d temp %d mismatch", want.ID, i)
					}
				}
			}
		})
	}
}

func TestEngineRunMatchesReference(t *testing.T) {
	src, _ := writeSource(t, 4, 40)
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		e := New(t.TempDir(), WithLayout(layout))
		if _, err := e.Load(src); err != nil {
			t.Fatal(err)
		}
		for _, task := range core.Tasks {
			spec := core.Spec{Task: task, K: 3}
			got, err := e.Run(spec)
			if err != nil {
				t.Fatalf("%v/%v: %v", layout, task, err)
			}
			want, err := core.RunReference(ref, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("%v/%v: count %d vs %d", layout, task, got.Count(), want.Count())
			}
			compareResults(t, got, want)
		}
		e.Close()
	}
}

// compareResults spot-checks engine output against the reference oracle.
func compareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	switch got.Task {
	case core.TaskHistogram:
		for i := range want.Histograms {
			g, w := got.Histograms[i], want.Histograms[i]
			if g.ID != w.ID {
				t.Fatalf("histogram %d: ID %d vs %d", i, g.ID, w.ID)
			}
			for b := range w.Histogram.Counts {
				if g.Histogram.Counts[b] != w.Histogram.Counts[b] {
					t.Fatalf("histogram %d bucket %d: %d vs %d",
						i, b, g.Histogram.Counts[b], w.Histogram.Counts[b])
				}
			}
		}
	case core.TaskThreeLine:
		for i := range want.ThreeLines {
			g, w := got.ThreeLines[i], want.ThreeLines[i]
			if g.ID != w.ID {
				t.Fatalf("3-line %d: ID mismatch", i)
			}
			if math.Abs(g.HeatingGradient-w.HeatingGradient) > 1e-6 {
				t.Fatalf("3-line %d: heating %g vs %g", i, g.HeatingGradient, w.HeatingGradient)
			}
		}
	case core.TaskPAR:
		for i := range want.Profiles {
			g, w := got.Profiles[i], want.Profiles[i]
			if g.ID != w.ID {
				t.Fatalf("PAR %d: ID mismatch", i)
			}
			for h := range w.Profile {
				if math.Abs(g.Profile[h]-w.Profile[h]) > 1e-6 {
					t.Fatalf("PAR %d hour %d: %g vs %g", i, h, g.Profile[h], w.Profile[h])
				}
			}
		}
	case core.TaskSimilarity:
		for i := range want.Similar {
			g, w := got.Similar[i], want.Similar[i]
			if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
				t.Fatalf("similarity %d: shape mismatch", i)
			}
			for j := range w.Matches {
				if g.Matches[j].ID != w.Matches[j].ID ||
					math.Abs(g.Matches[j].Score-w.Matches[j].Score) > 1e-9 {
					t.Fatalf("similarity %d match %d: %+v vs %+v",
						i, j, g.Matches[j], w.Matches[j])
				}
			}
		}
	}
}

func TestEngineWarmAndRelease(t *testing.T) {
	src, _ := writeSource(t, 3, 20)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if e.base.cache == nil {
		t.Fatal("warm did not populate cache")
	}
	r, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 3 {
		t.Errorf("count = %d", r.Count())
	}
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	if e.base.cache != nil {
		t.Error("release kept cache")
	}
	// Still runnable cold after release.
	r, err = e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 3 {
		t.Errorf("cold rerun: count=%d err=%v", r.Count(), err)
	}
}

func TestEngineRunWithoutLoad(t *testing.T) {
	e := New(t.TempDir())
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("err = %v, want ErrNotLoaded", err)
	}
	if err := e.Warm(); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("warm err = %v", err)
	}
}

func TestEngineParallelRun(t *testing.T) {
	src, _ := writeSource(t, 6, 20)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	seq, err := e.Run(core.Spec{Task: core.TaskPAR, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par4, err := e.Run(core.Spec{Task: core.TaskPAR, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, par4, seq)
}

func TestArrayLayoutUsesFewerTuples(t *testing.T) {
	src, _ := writeSource(t, 3, 30)
	rows := New(t.TempDir(), WithLayout(LayoutRows))
	defer rows.Close()
	arrays := New(t.TempDir(), WithLayout(LayoutArrays))
	defer arrays.Close()
	if _, err := rows.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := arrays.Load(src); err != nil {
		t.Fatal(err)
	}
	if arrays.table.heap.tuples >= rows.table.heap.tuples {
		t.Errorf("array tuples %d >= row tuples %d",
			arrays.table.heap.tuples, rows.table.heap.tuples)
	}
}

func TestTableRejectsBadSeries(t *testing.T) {
	src, _ := writeSource(t, 2, 5)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	tb := e.table
	bad := &timeseries.Series{ID: -1, Readings: make([]float64, 24)}
	temp := &timeseries.Temperature{Values: make([]float64, 24)}
	if err := tb.insertSeries(bad, temp); err == nil {
		t.Error("negative id: want error")
	}
	mismatch := &timeseries.Series{ID: 50, Readings: make([]float64, 48)}
	if err := tb.insertSeries(mismatch, temp); err == nil {
		t.Error("length mismatch vs temp: want error")
	}
	if _, _, err := tb.readSeries(9999); err == nil {
		t.Error("missing household: want error")
	}
}

func TestDistinctIDs(t *testing.T) {
	src, ds := writeSource(t, 7, 5)
	e := New(t.TempDir())
	defer e.Close()
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	ids, err := e.table.distinctIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(ds.Series) {
		t.Fatalf("ids = %v", ids)
	}
	for i, s := range ds.Series {
		if ids[i] != s.ID {
			t.Errorf("ids[%d] = %d, want %d", i, ids[i], s.ID)
		}
	}
}

func TestPoolStatsAndLayoutAccessors(t *testing.T) {
	src, _ := writeSource(t, 2, 5)
	e := New(t.TempDir(), WithLayout(LayoutArrays), WithPoolPages(16))
	defer e.Close()
	if e.Layout() != LayoutArrays {
		t.Error("Layout accessor")
	}
	if h, m := e.PoolStats(); h != 0 || m != 0 {
		t.Error("stats before load")
	}
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
		t.Fatal(err)
	}
	h, m := e.PoolStats()
	if h == 0 && m == 0 {
		t.Error("no pool activity recorded")
	}
}

func TestOpenReattachesStorage(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 4, 20)
			dir := t.TempDir()
			e1 := New(dir, WithLayout(layout))
			if _, err := e1.Load(src); err != nil {
				t.Fatal(err)
			}
			want, err := e1.Run(core.Spec{Task: core.TaskThreeLine})
			if err != nil {
				t.Fatal(err)
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			// A brand-new engine over the same directory reopens the
			// stored pages without reloading. Note the layout is recovered
			// from the meta page, not the constructor option.
			e2 := New(dir)
			if err := e2.Open(); err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if e2.Layout() != layout {
				t.Errorf("recovered layout = %v, want %v", e2.Layout(), layout)
			}
			got, err := e2.Run(core.Spec{Task: core.TaskThreeLine})
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, got, want)
			if len(e2.base.ids) != len(ds.Series) {
				t.Errorf("recovered %d consumers, want %d", len(e2.base.ids), len(ds.Series))
			}
		})
	}
}

func TestOpenErrors(t *testing.T) {
	e := New(t.TempDir())
	if err := e.Open(); err == nil {
		t.Error("open without file: want error")
	}
	// A file that is not a rowstore file is rejected by the magic check.
	dir := t.TempDir()
	path := filepath.Join(dir, "table.db")
	if err := os.WriteFile(path, make([]byte, PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := New(dir)
	if err := bad.Open(); err == nil {
		t.Error("bad magic: want error")
	}
}

// dayBatch generates days of new readings for consumers households
// and the Append batch continuing the stored series at hour base.
func dayBatch(t *testing.T, consumers, days, base int) (*timeseries.Dataset, []core.Reading) {
	t.Helper()
	d, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return d, core.DeltaBatch(d, base)
}

// TestAppendExtendsEverySeries: the update workload — one Append batch
// holding every household's new days, then Checkpoint — publishes the
// new prefix to Run; the appended values round-trip exactly, and all
// of it survives Close/Open.
func TestAppendExtendsEverySeries(t *testing.T) {
	for _, layout := range []Layout{LayoutRows, LayoutArrays} {
		t.Run(layout.String(), func(t *testing.T) {
			src, ds := writeSource(t, 3, 10)
			e := New(t.TempDir(), WithLayout(layout))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				t.Fatal(err)
			}
			off := 10 * timeseries.HoursPerDay
			delta, batch := dayBatch(t, len(ds.Series), 2, off)
			if err := e.Append(batch); err != nil {
				t.Fatal(err)
			}
			for id, n := range cursortest.HistogramTotals(t, e) {
				if n != int64(off) {
					t.Fatalf("consumer %d: %d readings visible before Checkpoint, want %d", id, n, off)
				}
			}
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			check := func(e *Engine) {
				t.Helper()
				totals := cursortest.HistogramTotals(t, e)
				if len(totals) != len(ds.Series) {
					t.Fatalf("Run sees %d consumers, want %d", len(totals), len(ds.Series))
				}
				for id, n := range totals {
					if n != int64(off+2*timeseries.HoursPerDay) {
						t.Fatalf("consumer %d: %d readings after Checkpoint", id, n)
					}
				}
				// Every series now holds 12 days and the appended values
				// round-trip exactly.
				for _, want := range delta.Series {
					s, temp, err := e.table.readSeries(want.ID)
					if err != nil {
						t.Fatal(err)
					}
					if len(s.Readings) != 12*timeseries.HoursPerDay {
						t.Fatalf("series %d has %d readings", s.ID, len(s.Readings))
					}
					for j, v := range want.Readings {
						if s.Readings[off+j] != v {
							t.Fatalf("series %d appended reading %d: %g vs %g", s.ID, j, s.Readings[off+j], v)
						}
						if temp.Values[off+j] != delta.Temperature.Values[j] {
							t.Fatalf("series %d appended temp %d mismatch", s.ID, j)
						}
					}
				}
			}
			check(e)
			// The published prefix survives a close/reopen cycle (meta
			// page updated).
			dir := e.dir
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			re := New(dir)
			if err := re.Open(); err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re)
		})
	}
}

// TestAppendValidation: a day batch with a gap is refused whole, so
// the following Checkpoint publishes nothing and Run keeps the base.
func TestAppendValidation(t *testing.T) {
	src, ds := writeSource(t, 3, 5)
	e := New(t.TempDir())
	defer e.Close()
	empty := New(t.TempDir())
	defer empty.Close()
	if err := empty.Checkpoint(); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("checkpoint before load: %v", err)
	}
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	base := 5 * timeseries.HoursPerDay
	_, batch := dayBatch(t, len(ds.Series), 1, base)
	batch = append(batch[:30], batch[31:]...) // household 2 skips an hour
	if err := e.Append(batch); err == nil {
		t.Fatal("day batch with a gap: want error")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id, n := range cursortest.HistogramTotals(t, e) {
		if n != int64(base) {
			t.Errorf("consumer %d: %d readings after a refused batch, want %d", id, n, base)
		}
	}
}

// Ablation: buffer pool capacity vs cold-scan performance. A pool too
// small for the working set forces re-reads from disk on every
// extraction (DESIGN.md's called-out buffer pool design choice).
func BenchmarkBufferPoolSize(b *testing.B) {
	ds, err := seed.Generate(seed.Config{Consumers: 12, Days: 90, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(b.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		b.Fatal(err)
	}
	for _, pages := range []int{8, 64, 4096} {
		b.Run(fmt.Sprintf("pages-%d", pages), func(b *testing.B) {
			e := New(b.TempDir(), WithPoolPages(pages))
			defer e.Close()
			if _, err := e.Load(src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Release(); err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
