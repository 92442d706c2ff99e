package colcodec

import (
	"math"
	"math/rand"
	"testing"
)

// refLanes is the oracle: the same reduction computed independently,
// first-assignment-then-add in row order.
func refLanes(start int, vals []float64) (sums [24]float64, counts [24]int32) {
	var seen [24]bool
	for i, v := range vals {
		h := (start + i) % 24
		if !seen[h] {
			sums[h] = v
			seen[h] = true
		} else {
			sums[h] += v
		}
		counts[h]++
	}
	return sums, counts
}

func TestSummarizeHoursMatchesDecodedReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		start := rng.Intn(24 * 400)
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 3 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = math.Round(math.Abs(rng.NormFloat64())*1000) / 1000
			case 2:
				vals[i] = []float64{0, math.Copysign(0, -1), 5e-324, math.Inf(1)}[rng.Intn(4)]
			}
		}
		var ls LaneSummary
		if !SummarizeHours(start, vals, &ls) {
			t.Fatalf("trial %d: NaN-free block rejected", trial)
		}
		sums, counts := refLanes(start, vals)
		total := int32(0)
		for h := 0; h < 24; h++ {
			if math.Float64bits(ls.Sums[h]) != math.Float64bits(sums[h]) {
				t.Fatalf("trial %d lane %d: sum bits %016x want %016x",
					trial, h, math.Float64bits(ls.Sums[h]), math.Float64bits(sums[h]))
			}
			if ls.Counts[h] != counts[h] {
				t.Fatalf("trial %d lane %d: count %d want %d", trial, h, ls.Counts[h], counts[h])
			}
			total += ls.Counts[h]
		}
		if total != int32(n) {
			t.Fatalf("trial %d: lane counts sum to %d, want %d", trial, total, n)
		}
	}
}

func TestSummarizeHoursSingleValueLanesExact(t *testing.T) {
	// Blocks of <= 24 rows pin at most one value per lane, so the lane
	// sum must be that value's exact bit pattern — the property the PAR
	// fast path relies on to reconstruct short blocks.
	vals := []float64{math.Copysign(0, -1), 5e-324, -0.0, 1.5, math.Inf(-1)}
	var ls LaneSummary
	if !SummarizeHours(7, vals, &ls) {
		t.Fatal("rejected")
	}
	for i, v := range vals {
		h := (7 + i) % 24
		if math.Float64bits(ls.Sums[h]) != math.Float64bits(v) {
			t.Fatalf("lane %d: got bits %016x want %016x", h,
				math.Float64bits(ls.Sums[h]), math.Float64bits(v))
		}
		if ls.Counts[h] != 1 {
			t.Fatalf("lane %d: count %d want 1", h, ls.Counts[h])
		}
	}
}

func TestSummarizeHoursFlags(t *testing.T) {
	constant := make([]float64, 48)
	for i := range constant {
		constant[i] = 2.5
	}
	var ls LaneSummary
	if !SummarizeHours(0, constant, &ls) || !ls.Constant || !ls.Periodic {
		t.Fatalf("constant aligned block: Constant=%v Periodic=%v", ls.Constant, ls.Periodic)
	}

	// A -0/+0 mix is NOT bit-constant even though the values compare ==.
	zeros := make([]float64, 48)
	zeros[13] = math.Copysign(0, -1)
	if !SummarizeHours(0, zeros, &ls) || ls.Constant {
		t.Fatal("-0/+0 mix must not report Constant")
	}

	periodic := make([]float64, 24*5)
	for i := range periodic {
		periodic[i] = float64(i%24) + 0.25
	}
	if !SummarizeHours(24, periodic, &ls) || ls.Constant || !ls.Periodic {
		t.Fatalf("tiled block: Constant=%v Periodic=%v", ls.Constant, ls.Periodic)
	}
	for h := 0; h < 24; h++ {
		if math.Float64bits(ls.Pattern[h]) != math.Float64bits(float64(h)+0.25) {
			t.Fatalf("pattern[%d] = %v", h, ls.Pattern[h])
		}
	}

	// Misaligned start or ragged count kills periodicity even for
	// otherwise tiled data.
	if !SummarizeHours(1, periodic, &ls) || ls.Periodic {
		t.Fatal("misaligned block must not report Periodic")
	}
	if !SummarizeHours(0, periodic[:100], &ls) || ls.Periodic {
		t.Fatal("ragged block must not report Periodic")
	}

	// NaN anywhere disables lanes entirely.
	withNaN := make([]float64, 48)
	withNaN[30] = math.NaN()
	if SummarizeHours(0, withNaN, &ls) {
		t.Fatal("NaN-bearing block must be rejected")
	}
	if SummarizeHours(0, nil, &ls) {
		t.Fatal("empty block must be rejected")
	}
}
