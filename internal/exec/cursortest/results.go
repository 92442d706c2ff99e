package cursortest

import (
	"testing"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// HistogramTotals runs the histogram task on e and returns every
// consumer's reading count: what an engine's Run sees of each series.
func HistogramTotals(t testing.TB, e core.Engine) map[timeseries.ID]int64 {
	t.Helper()
	res, err := e.Run(core.Spec{Task: core.TaskHistogram})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[timeseries.ID]int64, len(res.Histograms))
	for _, h := range res.Histograms {
		out[h.ID] = h.Histogram.Total()
	}
	return out
}

// CompareResults fails the test unless got agrees bit-for-bit with
// want on every task's result set. It lives here, next to the cursor
// conformance suites, so both the exec package's own tests and engine
// tests (which cannot share exec's internal test helpers) assert the
// same notion of "identical to the reference".
func CompareResults(t *testing.T, got, want *core.Results) {
	t.Helper()
	if len(got.Histograms) != len(want.Histograms) {
		t.Fatalf("histograms: %d vs %d", len(got.Histograms), len(want.Histograms))
	}
	for i := range want.Histograms {
		g, w := got.Histograms[i], want.Histograms[i]
		if g.ID != w.ID {
			t.Fatalf("histogram %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for j := range w.Histogram.Counts {
			if g.Histogram.Counts[j] != w.Histogram.Counts[j] {
				t.Fatalf("histogram %d bucket %d: %d vs %d",
					i, j, g.Histogram.Counts[j], w.Histogram.Counts[j])
			}
		}
	}
	if len(got.ThreeLines) != len(want.ThreeLines) {
		t.Fatalf("3-lines: %d vs %d", len(got.ThreeLines), len(want.ThreeLines))
	}
	for i := range want.ThreeLines {
		g, w := got.ThreeLines[i], want.ThreeLines[i]
		if g.ID != w.ID ||
			!stats.ExactEqual(g.HeatingGradient, w.HeatingGradient) ||
			!stats.ExactEqual(g.CoolingGradient, w.CoolingGradient) ||
			!stats.ExactEqual(g.BaseLoad, w.BaseLoad) {
			t.Fatalf("3-line %d: %+v vs %+v", i, g, w)
		}
	}
	if len(got.Profiles) != len(want.Profiles) {
		t.Fatalf("profiles: %d vs %d", len(got.Profiles), len(want.Profiles))
	}
	for i := range want.Profiles {
		g, w := got.Profiles[i], want.Profiles[i]
		if g.ID != w.ID {
			t.Fatalf("profile %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for h := range w.Profile {
			if !stats.ExactEqual(g.Profile[h], w.Profile[h]) {
				t.Fatalf("profile %d hour %d differs", i, h)
			}
		}
	}
	if len(got.Similar) != len(want.Similar) {
		t.Fatalf("similar: %d vs %d", len(got.Similar), len(want.Similar))
	}
	for i := range want.Similar {
		g, w := got.Similar[i], want.Similar[i]
		if g.ID != w.ID {
			t.Fatalf("similar %d: ID %d vs %d", i, g.ID, w.ID)
		}
		if len(g.Matches) != len(w.Matches) {
			t.Fatalf("similar %d: %d vs %d matches", i, len(g.Matches), len(w.Matches))
		}
		for j := range w.Matches {
			if g.Matches[j].ID != w.Matches[j].ID ||
				!stats.ExactEqual(g.Matches[j].Score, w.Matches[j].Score) {
				t.Fatalf("similar %d match %d differs", i, j)
			}
		}
	}
}
