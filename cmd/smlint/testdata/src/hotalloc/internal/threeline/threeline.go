// Fixture for the hotalloc analyzer: internal/threeline runs its T1
// percentile pass over every reading of every consumer and its T2
// search over every bin pair, so the whole package is hot — a map of
// growing per-bin slices or a per-bin error string costs once per
// reading or bin.
package threeline

import "fmt"

func binReadings(readings, temps []float64) [][]float64 {
	var bins [][]float64
	for i, r := range readings {
		if temps[i] < 0 {
			bins = append(bins, []float64{r}) // want "append to bins grows an un-capped slice"
		}
	}
	return bins
}

func labels(bins [][]float64) []string {
	out := make([]string, 0, len(bins))
	for i := range bins {
		out = append(out, fmt.Sprintf("bin %d", i)) // want "fmt.Sprintf allocates on every iteration"
	}
	return out
}

// Counting into a pre-sized buffer is the blessed pattern.
func count(keys []int, nb int) []int {
	counts := make([]int, nb)
	for _, k := range keys {
		counts[k]++
	}
	return counts
}
