package threeline

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// referencePoints is the map-append-sort T1: every bin sorted with
// sort.Float64s, then PointsFromSortedBins.
func referencePoints(readings, temps []float64, cfg Config) (xs, lows, highs []float64) {
	bins := make(map[int][]float64)
	for i, r := range readings {
		b := BinIndex(temps[i], cfg.BinWidth)
		bins[b] = append(bins[b], r)
	}
	for _, v := range bins {
		sort.Float64s(v)
	}
	return PointsFromSortedBins(bins, cfg)
}

// sameValue compares bit for bit, except that any two NaNs are equal
// and so are -0 and +0: sort.Float64s orders neither NaN payloads nor
// the two zeros, so the reference fixes neither.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b)) ||
		(stats.IsZero(a) && stats.IsZero(b))
}

func samePoints(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkPoints runs the selection kernel and the reference on the same
// input and demands the same point set.
func checkPoints(t *testing.T, readings, temps []float64, cfg Config) {
	t.Helper()
	cfg.fillDefaults()
	wx, wl, wh := referencePoints(readings, temps, cfg)
	gx, gl, gh := percentilePoints(readings, temps, cfg, new(scratch))
	samePoints(t, "xs", gx, wx)
	samePoints(t, "lows", gl, wl)
	samePoints(t, "highs", gh, wh)
}

// quantizedConsumer is a generated year of hourly readings rounded to
// whole Wh, as the benchmark's segments store them.
func quantizedConsumer(seedVal int64) (readings, temps []float64) {
	s, temp := syntheticThermal(0.8, 0.15, 0.2, 14, 24, 365, 0.3, seedVal)
	for i, v := range s.Readings {
		s.Readings[i] = math.Round(v*1000) / 1000
	}
	return s.Readings, temp.Values
}

func TestPercentilePointsMatchesSortedBins(t *testing.T) {
	readings, temps := quantizedConsumer(21)
	for _, w := range []float64{0.25, 1, 5} {
		checkPoints(t, readings, temps, Config{BinWidth: w})
	}
	checkPoints(t, nil, nil, Config{})

	t.Run("all-equal", func(t *testing.T) {
		r := make([]float64, 500)
		tp := make([]float64, 500)
		for i := range r {
			r[i] = 1.25
			tp[i] = float64(i%25) - 5
		}
		checkPoints(t, r, tp, Config{})
	})

	t.Run("ties", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		r := make([]float64, 2000)
		tp := make([]float64, 2000)
		for i := range r {
			r[i] = float64(rng.Intn(4)) * 0.5
			tp[i] = rng.Float64()*30 - 5
		}
		checkPoints(t, r, tp, Config{})
	})

	// Bins of MinBinPoints-1 (dropped), MinBinPoints, +1 and +2 values,
	// under quantiles that land on an order statistic exactly
	// (frac == 0) and next to the top one.
	t.Run("bin-sizes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		var r, tp []float64
		for b := 0; b < 40; b++ {
			for j := 0; j < 3+b%4; j++ {
				r = append(r, math.Round(rng.Float64()*20)/4)
				tp = append(tp, float64(b)+0.5)
			}
		}
		for _, q := range [][2]float64{{0.1, 0.9}, {0.25, 0.75}, {0.5, 0.5}, {math.Nextafter(0, 1), math.Nextafter(1, 0)}} {
			for mp := 1; mp <= 4; mp++ {
				checkPoints(t, r, tp, Config{LowQ: q[0], HighQ: q[1], MinBinPoints: mp})
			}
		}
	})

	t.Run("nan-readings", func(t *testing.T) {
		r := append([]float64(nil), readings...)
		for i := range r {
			switch {
			case i%7 == 0:
				r[i] = math.NaN()
			case i%1000 < 200 && i%3 == 0:
				r[i] = math.NaN()
			case i%997 == 1:
				r[i] = math.Inf(1)
			case i%991 == 2:
				r[i] = math.Inf(-1)
			}
		}
		for _, w := range []float64{0.25, 1, 5} {
			checkPoints(t, r, temps, Config{BinWidth: w})
		}
	})

	t.Run("signed-zeros", func(t *testing.T) {
		r := make([]float64, 400)
		tp := make([]float64, 400)
		for i := range r {
			r[i] = math.Copysign(0, float64(i%3-1))
			tp[i] = float64(i % 10)
		}
		checkPoints(t, r, tp, Config{})
	})

	// Temperatures that BinIndex maps far outside the physical range:
	// the kernel must fall back from its dense bin array.
	t.Run("wild-temperatures", func(t *testing.T) {
		tp := append([]float64(nil), temps...)
		wild := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 200, -1000, 1e300, -1e300}
		for i := range tp {
			if i%5 == 0 {
				tp[i] = wild[(i/5)%len(wild)]
			}
		}
		for _, w := range []float64{0.25, 1, 5, 1e-300} {
			checkPoints(t, readings, tp, Config{BinWidth: w})
		}
	})

	t.Run("tiny-bin-width", func(t *testing.T) {
		checkPoints(t, readings, temps, Config{BinWidth: 1e-9, MinBinPoints: 1})
	})
}

// The selection reproduces stats.QuantileSorted on any input, including
// the q = 0 and q = 1 ends where frac == 0 and lo == n-1.
func TestSelectQuantileMatchesQuantileSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func(i, n int) float64{
		"random":   func(i, n int) float64 { return rng.NormFloat64() },
		"ties":     func(i, n int) float64 { return float64(rng.Intn(3)) },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return float64(min(i, n-i)) },
		"nan-some": func(i, n int) float64 {
			if i%4 == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(5))
		},
	}
	qs := []float64{0, 1e-9, 0.1, 0.25, 0.5, 0.9, math.Nextafter(1, 0), 1}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 5, 13, 14, 100, 1000} {
			v := make([]float64, n)
			for i := range v {
				v[i] = gen(i, n)
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			for _, q := range qs {
				want, err := stats.QuantileSorted(sorted, q)
				if err != nil {
					t.Fatal(err)
				}
				w := append([]float64(nil), v...)
				if got := selectQuantile(w, nanFirst(w), q); !sameValue(got, want) {
					t.Fatalf("%s n=%d q=%g: got %v, want %v", name, n, q, got, want)
				}
			}
		}
	}
}

// FuzzPercentilePoints drives the selection kernel and the reference
// with arbitrary readings and temperatures, one byte each. Most bytes
// map to a few quantized values so bins fill and tie; the top bytes map
// to NaN, infinities, -0 and temperatures far outside [-90, 60]. knobs
// picks the bin width, MinBinPoints and quantiles.
func FuzzPercentilePoints(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 0, 0, 4, 4, 4, 4}, uint8(0))
	f.Add([]byte{255, 1, 1, 252, 2, 254, 3, 253}, []byte{1, 1, 1, 1, 255, 255, 250, 250}, uint8(0x17))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, []byte{251, 251, 251, 1, 1, 1}, uint8(0x2b))
	f.Fuzz(func(t *testing.T, rb, tb []byte, knobs uint8) {
		n := min(len(rb), len(tb))
		readings := make([]float64, n)
		temps := make([]float64, n)
		for i := 0; i < n; i++ {
			switch b := rb[i]; b {
			case 255:
				readings[i] = math.NaN()
			case 254:
				readings[i] = math.Inf(1)
			case 253:
				readings[i] = math.Inf(-1)
			case 252:
				readings[i] = math.Copysign(0, -1)
			default:
				readings[i] = float64(b%32) / 8
			}
			switch b := tb[i]; b {
			case 255:
				temps[i] = math.NaN()
			case 254:
				temps[i] = math.Inf(1)
			case 253:
				temps[i] = math.Inf(-1)
			case 252:
				temps[i] = 200
			case 251:
				temps[i] = -1e300
			case 250:
				temps[i] = 1e300
			default:
				temps[i] = float64(b%64)/4 - 8
			}
		}
		qs := [][2]float64{{0.1, 0.9}, {0.25, 0.75}, {0.5, 0.5}, {math.Nextafter(0, 1), math.Nextafter(1, 0)}}[knobs>>4&3]
		cfg := Config{
			BinWidth:     []float64{1, 0.25, 5, 1e-300}[knobs&3],
			MinBinPoints: 1 + int(knobs>>2&3),
			LowQ:         qs[0],
			HighQ:        qs[1],
		}
		checkPoints(t, readings, temps, cfg)
	})
}

func TestComputeTimedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	s, temp := syntheticThermal(1, 0.1, 0.1, 15, 23, 365, 0.05, 9)
	cfg := DefaultConfig()
	if _, _, err := ComputeTimed(s, temp, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ComputeTimed(s, temp, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ComputeTimed: %.1f allocs/op, want at most 1 (the *Result)", allocs)
	}
}

func benchConsumer() (*timeseries.Series, *timeseries.Temperature) {
	readings, temps := quantizedConsumer(22)
	return &timeseries.Series{ID: 1, Readings: readings}, &timeseries.Temperature{Values: temps}
}

// BenchmarkPercentilePoints times T1 for one year-long consumer.
func BenchmarkPercentilePoints(b *testing.B) {
	s, temp := benchConsumer()
	cfg := DefaultConfig()
	sc := new(scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		percentilePoints(s.Readings, temp.Values, cfg, sc)
	}
}

// BenchmarkPercentilePointsSortedBins times the map-append-sort
// reference on the same consumer, for comparison.
func BenchmarkPercentilePointsSortedBins(b *testing.B) {
	s, temp := benchConsumer()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referencePoints(s.Readings, temp.Values, cfg)
	}
}

// BenchmarkComputeTimed times T1 through T3 for one year-long consumer.
func BenchmarkComputeTimed(b *testing.B) {
	s, temp := benchConsumer()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ComputeTimed(s, temp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
