package colstore

import (
	"errors"
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
	ds, err := seed.Generate(seed.Config{Consumers: consumers, Days: days, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src, err := meterdata.WriteUnpartitioned(t.TempDir(), ds, meterdata.FormatReadingPerLine)
	if err != nil {
		t.Fatal(err)
	}
	return src, ds
}

// writeAndDecode round-trips ds through a segment file on disk.
func writeAndDecode(t *testing.T, ds *timeseries.Dataset, inMemory bool) *timeseries.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "segments.col")
	if err := writeDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	st, err := openStore(path, inMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	got, err := decodeAll(st)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, ds := writeSource(t, 5, 20)
	got := writeAndDecode(t, ds, true)
	if len(got.Series) != len(ds.Series) {
		t.Fatalf("series = %d", len(got.Series))
	}
	for i, s := range ds.Series {
		if got.Series[i].ID != s.ID {
			t.Fatalf("series %d id %d vs %d", i, got.Series[i].ID, s.ID)
		}
		for j := range s.Readings {
			if got.Series[i].Readings[j] != s.Readings[j] {
				t.Fatalf("series %d reading %d mismatch", i, j)
			}
		}
	}
	for j := range ds.Temperature.Values {
		if got.Temperature.Values[j] != ds.Temperature.Values[j] {
			t.Fatalf("temperature %d mismatch", j)
		}
	}
}

func TestDecodedColumnsPackZeroCopy(t *testing.T) {
	// The decoder lays all consumer columns in one contiguous buffer, so
	// the similarity engine's FlatMatrix packing must adopt that backing
	// zero-copy instead of re-copying every row.
	_, ds := writeSource(t, 6, 15)
	got := writeAndDecode(t, ds, true)
	m, err := got.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Shared() {
		t.Fatal("FlatMatrix copied the decoded columns; want zero-copy adoption")
	}
	if &m.Data()[0] != &got.Series[0].Readings[0] {
		t.Error("FlatMatrix data does not alias the decoded buffer")
	}
	// Zero-copy means the matrix sees writes through the series view.
	got.ReleaseFlat()
	got.Series[2].Readings[3] = 1234.5
	m, err = got.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if m.Row(2)[3] != 1234.5 {
		t.Error("FlatMatrix row does not alias series readings")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, ds := writeSource(t, 2, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "segments.col")
	if err := writeDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"short":     func(b []byte) []byte { return b[:10] },
		"truncated": func(b []byte) []byte { return b[:len(b)-8] },
		"bad-magic": func(b []byte) []byte { b2 := append([]byte(nil), b...); b2[0] = 'X'; return b2 },
	} {
		bad := filepath.Join(dir, name+".col")
		if err := os.WriteFile(bad, mutate(img), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, inMemory := range []bool{true, false} {
			if st, err := openStore(bad, inMemory); err == nil {
				st.close()
				t.Errorf("%s (inMemory=%v): want error", name, inMemory)
			}
		}
	}
}

func TestEngineLoadRunRelease(t *testing.T) {
	src, ds := writeSource(t, 4, 30)
	e := New(t.TempDir())
	st, err := e.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Consumers != 4 || st.StorageBytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
	for _, task := range core.Tasks {
		spec := core.Spec{Task: task, K: 2}
		got, err := e.Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", task, err)
		}
		want, err := core.RunReference(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != want.Count() {
			t.Fatalf("%v: count %d vs %d", task, got.Count(), want.Count())
		}
	}
	// Release then cold-run again via Remap.
	if err := e.Release(); err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 4 {
		t.Fatalf("cold rerun: %d, %v", r.Count(), err)
	}
}

func TestEngineResultsMatchReferenceExactly(t *testing.T) {
	src, ds := writeSource(t, 3, 40)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	// The engine parses the same CSV, so values match the reference to
	// CSV precision.
	ref, err := meterdata.ReadDataset(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunReference(ref, core.Spec{Task: core.TaskThreeLine})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.ThreeLines {
		g, w := got.ThreeLines[i], want.ThreeLines[i]
		if g.ID != w.ID || math.Abs(g.HeatingGradient-w.HeatingGradient) > 1e-9 {
			t.Fatalf("3-line %d: %+v vs %+v", i, g, w)
		}
	}
	_ = ds
}

func TestEngineWarm(t *testing.T) {
	src, _ := writeSource(t, 2, 10)
	e := New(t.TempDir())
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if e.decoded == nil {
		t.Error("warm did not decode")
	}
	// Warm after release remaps from disk.
	e.Release()
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	if e.decoded == nil {
		t.Error("warm after release failed")
	}
}

func TestEngineRunWithoutLoad(t *testing.T) {
	e := New(t.TempDir())
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil || !errors.Is(err, core.ErrNotLoaded) {
		t.Errorf("err = %v, want ErrNotLoaded", err)
	}
}

func TestSegmentFilePersistsAcrossEngines(t *testing.T) {
	src, _ := writeSource(t, 3, 10)
	dir := t.TempDir()
	e1 := New(dir)
	if _, err := e1.Load(src); err != nil {
		t.Fatal(err)
	}
	// A second engine over the same dir can run from the segment file
	// alone (no Load).
	e2 := New(dir)
	r, err := e2.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil || r.Count() != 3 {
		t.Fatalf("second engine: %d, %v", r.Count(), err)
	}
}

func TestRemapMissingFile(t *testing.T) {
	e := New(t.TempDir())
	if err := e.Remap(); err == nil {
		t.Error("remap without file: want error")
	}
	// Corrupt file on disk surfaces as a decode error at Run.
	os.WriteFile(e.path, []byte("garbage"), 0o644)
	if _, err := e.Run(core.Spec{Task: core.TaskHistogram}); err == nil {
		t.Error("corrupt file: want error")
	}
}

// TestAppendRewritesSegments: the update workload — one Append batch
// with every household's new day, then Checkpoint — rewrites the
// segment file, so Run sees the day at once, after a cold remap and
// from a second engine over the same directory, bit-exact.
func TestAppendRewritesSegments(t *testing.T) {
	src, ds := writeSource(t, 3, 10)
	dir := t.TempDir()
	e := New(dir)
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	delta, err := seed.Generate(seed.Config{Consumers: 3, Days: 1, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	base := 10 * 24
	if err := e.Append(core.DeltaBatch(delta, base)); err != nil {
		t.Fatal(err)
	}
	// Appended but not checkpointed: the base view is unchanged.
	for id, n := range cursortest.HistogramTotals(t, e) {
		if n != int64(base) {
			t.Fatalf("consumer %d total = %d before Checkpoint, want %d", id, n, base)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := e.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("segment file %d bytes after the rewrite, %d before", after, before)
	}
	want := int64(base + 24)
	for _, eng := range []*Engine{e, New(dir)} {
		for pass := 0; pass < 2; pass++ {
			got := cursortest.HistogramTotals(t, eng)
			if len(got) != len(ds.Series) {
				t.Fatalf("pass %d: %d consumers, want %d", pass, len(got), len(ds.Series))
			}
			for id, n := range got {
				if n != want {
					t.Fatalf("pass %d: consumer %d total = %d, want %d", pass, id, n, want)
				}
			}
			eng.Release()
		}
	}
	// The new day round-trips exactly.
	if err := e.Warm(); err != nil {
		t.Fatal(err)
	}
	cur, err := e.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := range delta.Series {
		s, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		for h, v := range delta.Series[i].Readings {
			if s.Readings[base+h] != v {
				t.Fatalf("consumer %d hour %d: %v, want %v", s.ID, base+h, s.Readings[base+h], v)
			}
		}
	}
}

// TestAppendValidation: a day batch with a gap is refused whole, so
// the following Checkpoint folds nothing and Run keeps the base.
func TestAppendValidation(t *testing.T) {
	e := New(t.TempDir())
	if err := e.Checkpoint(); err == nil {
		t.Error("checkpoint with nothing stored: want error")
	}
	src, _ := writeSource(t, 2, 5)
	if _, err := e.Load(src); err != nil {
		t.Fatal(err)
	}
	delta, err := seed.Generate(seed.Config{Consumers: 2, Days: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := core.DeltaBatch(delta, 5*24)
	batch = append(batch[:30], batch[31:]...) // household 2 skips an hour
	if err := e.Append(batch); err == nil {
		t.Fatal("day batch with a gap: want error")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for id, n := range cursortest.HistogramTotals(t, e) {
		if n != 5*24 {
			t.Errorf("consumer %d total = %d after a refused batch, want %d", id, n, 5*24)
		}
	}
}
