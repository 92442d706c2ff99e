package main

import (
	"fmt"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
)

// sameResults reports the first difference between got and want under
// the notion of bit-identical that cursortest.CompareResults enforces
// in the test suites: matching IDs, equal histogram counts, and exactly
// equal 3-line gradients, PAR profiles and similarity matches.
func sameResults(got, want *core.Results) error {
	if len(got.Histograms) != len(want.Histograms) {
		return fmt.Errorf("histograms: %d vs %d", len(got.Histograms), len(want.Histograms))
	}
	for i, w := range want.Histograms {
		g := got.Histograms[i]
		if g.ID != w.ID || len(g.Histogram.Counts) != len(w.Histogram.Counts) {
			return fmt.Errorf("histogram %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for j := range w.Histogram.Counts {
			if g.Histogram.Counts[j] != w.Histogram.Counts[j] {
				return fmt.Errorf("histogram %d bucket %d: %d vs %d", i, j, g.Histogram.Counts[j], w.Histogram.Counts[j])
			}
		}
	}
	if len(got.ThreeLines) != len(want.ThreeLines) {
		return fmt.Errorf("3-lines: %d vs %d", len(got.ThreeLines), len(want.ThreeLines))
	}
	for i, w := range want.ThreeLines {
		g := got.ThreeLines[i]
		if g.ID != w.ID ||
			!stats.ExactEqual(g.HeatingGradient, w.HeatingGradient) ||
			!stats.ExactEqual(g.CoolingGradient, w.CoolingGradient) ||
			!stats.ExactEqual(g.BaseLoad, w.BaseLoad) {
			return fmt.Errorf("3-line %d: %+v vs %+v", i, g, w)
		}
	}
	if len(got.Profiles) != len(want.Profiles) {
		return fmt.Errorf("profiles: %d vs %d", len(got.Profiles), len(want.Profiles))
	}
	for i, w := range want.Profiles {
		g := got.Profiles[i]
		if g.ID != w.ID {
			return fmt.Errorf("profile %d: ID %d vs %d", i, g.ID, w.ID)
		}
		for h := range w.Profile {
			if !stats.ExactEqual(g.Profile[h], w.Profile[h]) {
				return fmt.Errorf("profile %d hour %d differs", i, h)
			}
		}
	}
	if len(got.Similar) != len(want.Similar) {
		return fmt.Errorf("similar: %d vs %d", len(got.Similar), len(want.Similar))
	}
	for i, w := range want.Similar {
		g := got.Similar[i]
		if g.ID != w.ID || len(g.Matches) != len(w.Matches) {
			return fmt.Errorf("similar %d: ID %d vs %d, %d vs %d matches", i, g.ID, w.ID, len(g.Matches), len(w.Matches))
		}
		for j, m := range w.Matches {
			if g.Matches[j].ID != m.ID || !stats.ExactEqual(g.Matches[j].Score, m.Score) {
				return fmt.Errorf("similar %d match %d differs", i, j)
			}
		}
	}
	return nil
}
