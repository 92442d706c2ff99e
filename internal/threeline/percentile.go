package threeline

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// scratch holds the buffers of one ComputeTimed or FitPoints call. The
// pool hands each goroutine its own, so the per-consumer kernels run
// without allocating and callers keep their signatures. Nothing here
// escapes into a Result.
type scratch struct {
	keys     []int     // per-reading bin key, then bin rank
	distinct []int     // sorted distinct keys, wide key spans only
	ends     []int     // per-rank offsets into vals
	vals     []float64 // readings grouped by bin
	pts      []float64 // xs, lows and highs, one third each
	sums     []float64 // segFitter prefix sums
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resliced to length n, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// percentilePoints bins readings by temperature and returns, for each
// bin holding at least cfg.MinBinPoints readings in ascending key
// order, the bin center and the LowQ/HighQ consumption percentiles.
// cfg must have its defaults filled. The output equals
// PointsFromSortedBins over bins sorted with sort.Float64s, but no bin
// is sorted: a counting sort groups the readings by bin and a selection
// finds the two order statistics each percentile interpolates. The
// returned slices live in sc.
func percentilePoints(readings, temps []float64, cfg Config, sc *scratch) (xs, lows, highs []float64) {
	n := len(readings)
	keys := grow(sc.keys, n)
	sc.keys = keys
	kmin, kmax := math.MaxInt, math.MinInt
	for i := range keys {
		k := BinIndex(temps[i], cfg.BinWidth)
		keys[i] = k
		kmin = min(kmin, k)
		kmax = max(kmax, k)
	}

	// Rank the keys. A span of at most n keys ranks by offset from the
	// smallest; anything wider (NaN or extreme temperatures, a tiny bin
	// width) ranks by position among the sorted distinct keys, so no
	// buffer is ever sized by the temperature values. The unsigned
	// difference cannot overflow.
	var distinct []int
	nb := 0
	if uint(kmax-kmin) < uint(n) {
		nb = kmax - kmin + 1
		for i := range keys {
			keys[i] -= kmin
		}
	} else {
		distinct = append(sc.distinct[:0], keys...)
		sc.distinct = distinct
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		nb = len(distinct)
		for i, k := range keys {
			keys[i], _ = slices.BinarySearch(distinct, k)
		}
	}

	// Counting sort: after the scatter, bin r occupies
	// vals[ends[r-1]:ends[r]] (from 0 for r = 0).
	ends := grow(sc.ends, nb+1)
	sc.ends = ends
	clear(ends)
	for _, r := range keys {
		ends[r+1]++
	}
	for r := 1; r <= nb; r++ {
		ends[r] += ends[r-1]
	}
	vals := grow(sc.vals, n)
	sc.vals = vals
	for i, r := range keys {
		vals[ends[r]] = readings[i]
		ends[r]++
	}

	pts := grow(sc.pts, 3*nb)
	sc.pts = pts
	xs, lows, highs = pts[:nb], pts[nb:2*nb], pts[2*nb:]
	m, start := 0, 0
	for r := 0; r < nb; r++ {
		bin := vals[start:ends[r]]
		start = ends[r]
		if len(bin) < cfg.MinBinPoints {
			continue
		}
		k := kmin + r
		if distinct != nil {
			k = distinct[r]
		}
		nan := nanFirst(bin)
		xs[m] = (float64(k) + 0.5) * cfg.BinWidth
		lows[m] = selectQuantile(bin, nan, cfg.LowQ)
		highs[m] = selectQuantile(bin, nan, cfg.HighQ)
		m++
	}
	return xs[:m], lows[:m], highs[:m]
}

// nanFirst moves the NaNs of v to its front, where sort.Float64s puts
// them, and returns how many there are.
func nanFirst(v []float64) int {
	nan := 0
	for i, x := range v {
		if math.IsNaN(x) {
			v[i], v[nan] = v[nan], v[i]
			nan++
		}
	}
	return nan
}

// selectQuantile returns stats.QuantileSorted(sorted, q) for sorted, v
// sorted with sort.Float64s, without sorting v. The first nan values of
// v are its NaNs. It reads the same order statistics and interpolates
// them with the same expression, so the result is bit-identical; only
// the sign of a zero may differ, because sort.Float64s leaves the order
// of -0 and +0 to its algorithm. v is permuted.
func selectQuantile(v []float64, nan int, q float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return orderStat(v, nan, n-1)
	}
	frac := pos - float64(lo)
	a := orderStat(v, nan, lo)
	var b float64
	switch {
	case lo+1 < nan:
		b = v[lo+1]
	case lo+1 == nan:
		b = minOf(v[nan:])
	default:
		// orderStat partitioned the numbers around rank lo, so rank
		// lo+1 is the smallest value above it.
		b = minOf(v[lo+1:])
	}
	return a*(1-frac) + b*frac
}

// orderStat returns the k-th smallest value of v (0-based) in
// sort.Float64s order, given that v's NaNs are its first nan values.
// For k >= nan it partitions v[nan:] so that no value before index k
// is larger and no value after it smaller.
func orderStat(v []float64, nan, k int) float64 {
	if k < nan {
		return v[k]
	}
	return quickselect(v[nan:], k-nan)
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// quickselect returns the k-th smallest value of the NaN-free v and
// partitions v around index k. Hoare partitioning around a median of
// three keeps runs of equal (quantized) readings balanced; a range
// that survives more rounds than a balanced split needs is sorted
// instead, which bounds the worst case at O(n log n).
func quickselect(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	budget := 2 * bits.Len(uint(len(v)))
	for hi-lo > 12 {
		if budget == 0 {
			slices.Sort(v[lo : hi+1])
			return v[k]
		}
		budget--
		mid := int(uint(lo+hi) >> 1)
		if v[mid] < v[lo] {
			v[mid], v[lo] = v[lo], v[mid]
		}
		if v[hi] < v[lo] {
			v[hi], v[lo] = v[lo], v[hi]
		}
		if v[hi] < v[mid] {
			v[hi], v[mid] = v[mid], v[hi]
		}
		p := v[mid]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for p < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[lo:j+1] <= p <= v[i:hi+1], and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k]
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
	return v[k]
}
