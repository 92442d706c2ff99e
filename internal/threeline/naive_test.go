package threeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the prefix-sum breakpoint search finds the same optimum as
// the naive O(n^3) reference on random percentile curves.
func TestFitSegmentedMatchesNaiveQuick(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seedVal))
		n := int(nRaw)%40 + 9 // at least 3 segments of 3
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + 0.5
			ys[i] = rng.NormFloat64()*2 + float64(i%7)
		}
		fast := fitSegmented(xs, ys, 3, 0.2, nil)
		naive := fitSegmentedNaive(xs, ys, 3, 0.2)
		if fast.Degenerate != naive.Degenerate {
			return false
		}
		// The optima must agree in SSE; breakpoints may differ only when
		// two splits tie exactly (which random noise precludes).
		if math.Abs(fast.SSE-naive.SSE) > 1e-6*(1+naive.SSE) {
			t.Logf("SSE %g vs %g (n=%d seed=%d)", fast.SSE, naive.SSE, n, seedVal)
			return false
		}
		if fast.Break1 != naive.Break1 || fast.Break2 != naive.Break2 {
			t.Logf("breaks (%g,%g) vs (%g,%g)", fast.Break1, fast.Break2, naive.Break1, naive.Break2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFitSegmentedMatchesNaiveDegenerate(t *testing.T) {
	xs := []float64{0.5, 1.5, 2.5}
	ys := []float64{1, 2, 3}
	fast := fitSegmented(xs, ys, 3, 0.2, nil)
	naive := fitSegmentedNaive(xs, ys, 3, 0.2)
	if !fast.Degenerate || !naive.Degenerate {
		t.Fatal("expected degenerate models")
	}
	if math.Abs(fast.Heating.Slope-naive.Heating.Slope) > 1e-9 {
		t.Errorf("degenerate slopes %g vs %g", fast.Heating.Slope, naive.Heating.Slope)
	}
}

// Ablation benchmark: prefix-sum search vs naive refitting (DESIGN.md's
// called-out design choice for the 3-line inner loop).
func BenchmarkFitSegmentedPrefixSum(b *testing.B) {
	xs, ys := ablationCurve(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSegmented(xs, ys, 3, 0.2, nil)
	}
}

func BenchmarkFitSegmentedNaive(b *testing.B) {
	xs, ys := ablationCurve(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fitSegmentedNaive(xs, ys, 3, 0.2)
	}
}

func ablationCurve(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) - float64(n)/2
		ys[i] = math.Max(0, 15-xs[i])*0.2 + math.Max(0, xs[i]-22)*0.15 + 1 + rng.NormFloat64()*0.1
	}
	return xs, ys
}
